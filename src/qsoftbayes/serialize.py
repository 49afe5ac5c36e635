"""File formats: JSON containers for matrices and datasets, byte-stable CSV.

Matrices are stored as row-major [re, im] pairs so complex values survive a
round trip bit for bit (json floats use round-trip-exact shortest decimals).
CSV floats are printed with 17 significant digits for the same reason, and
rows always end with a bare newline, so one config and seed produce the same
bytes on every run.
"""

from __future__ import annotations

import hashlib
import json
import operator
from pathlib import Path

import numpy as np

from .linalg import ValidationError
from .tomography import Dataset


def _pairs(M: np.ndarray) -> list:
    """The row-major [re, im] pairs of a matrix, or of each matrix of a stack."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(np.float64).reshape(*M.shape[:-2], -1, 2).tolist()


def matrix_to_record(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    return {"kind": "matrix", "dim": M.shape[0], "entries": _pairs(M)}


def matrix_from_record(rec: dict) -> np.ndarray:
    dim = _dim_field(rec)
    entries = _field(rec, "entries")
    _check_entries(entries, dim)
    return _parse_entries(entries).reshape(dim, dim)


def save_matrix(path, M: np.ndarray) -> None:
    _dump(path, matrix_to_record(M))


def load_matrix(path) -> np.ndarray:
    rec = load_payload(path)
    if rec.get("kind") != "matrix":
        raise ValidationError(f"{path}: expected a matrix file, got kind {rec.get('kind')!r}")
    return matrix_from_record(rec)


def dataset_to_record(data: Dataset) -> dict:
    """The elements+index form: each distinct record once, and each record's element."""
    rec = {
        "kind": "dataset",
        "dim": data.dim,
        "n": len(data),
        "has_provenance": data.has_provenance,
        "elements": _pairs(data.elements),
        "index": data.index.tolist(),
    }
    if data.has_provenance:
        rec["povm_indices"] = np.asarray(data.povm_indices, dtype=np.int64).tolist()
        rec["outcome_indices"] = np.asarray(data.outcome_indices, dtype=np.int64).tolist()
    return rec


def dataset_form(rec: dict) -> str:
    """Which layout a dataset record uses: 'per-record' or 'elements+index'.

    The per-record form (`matrices`, one block per record) is what earlier
    versions wrote; `dataset_to_record` writes the elements+index form.
    """
    has_matrices, has_elements = "matrices" in rec, "elements" in rec
    if has_matrices and has_elements:
        raise ValidationError("dataset record holds both 'matrices' and 'elements'")
    if not (has_matrices or has_elements):
        raise ValidationError("container record is missing 'matrices' or 'elements'")
    return "per-record" if has_matrices else "elements+index"


def dataset_from_record(rec: dict) -> Dataset:
    """Read either dataset form; both give the same `Dataset`, bit for bit.

    Every block's entry count is checked before any stack is allocated, and
    the elements+index form is never expanded to one block per record.
    """
    dim = _dim_field(rec)
    n = _int_field(rec, "n")
    if n < 1:
        raise ValidationError("dataset header says n=0; a dataset holds at least one record")
    if dataset_form(rec) == "per-record":
        records = rec["matrices"]
        if not isinstance(records, list):
            raise ValidationError("dataset 'matrices' is not a list of records")
        if len(records) != n:
            raise ValidationError(f"dataset header says n={n} but {len(records)} records are stored")
        elements, index = _matrix_stack(records, dim, "record"), np.arange(n)
    else:
        blocks = rec["elements"]
        if not isinstance(blocks, list):
            raise ValidationError("dataset 'elements' is not a list of matrices")
        # the index comes first: it fails on an empty element list, which
        # would otherwise allocate a (0, dim, dim) stack for any header dim
        index = _index_list(rec, "index", n, len(blocks))
        unused = np.flatnonzero(np.bincount(index, minlength=len(blocks)) == 0)
        if len(unused):
            raise ValidationError(f"element {unused[0]} is referenced by no record")
        elements = _matrix_stack(blocks, dim, "element")
    povm_idx = out_idx = None
    if rec.get("has_provenance"):
        povm_idx = _index_list(rec, "povm_indices", n, _INT64_END)
        out_idx = _index_list(rec, "outcome_indices", n, _INT64_END)
    return Dataset(elements=elements, index=index, povm_indices=povm_idx, outcome_indices=out_idx)


def save_dataset(path, data: Dataset) -> None:
    _dump(path, dataset_to_record(data))


def load_dataset(path) -> Dataset:
    rec = load_payload(path)
    if rec.get("kind") != "dataset":
        raise ValidationError(f"{path}: expected a dataset file, got kind {rec.get('kind')!r}")
    return dataset_from_record(rec)


def save_return_stream(path, returns: np.ndarray) -> None:
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise ValidationError(f"expected a (T, D) array, got shape {returns.shape}")
    _dump(path, {
        "kind": "return-stream",
        "dim": int(returns.shape[1]),
        "rounds": int(returns.shape[0]),
        "rows": [[float(x) for x in row] for row in returns],
    })


def load_return_stream(path) -> np.ndarray:
    rec = load_payload(path)
    if rec.get("kind") != "return-stream":
        raise ValidationError(f"{path}: expected a return-stream file, got kind {rec.get('kind')!r}")
    shape = (_int_field(rec, "rounds"), _dim_field(rec))
    try:
        rows = np.array(_field(rec, "rows"))
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"{path}: rows are not a rectangular table") from exc
    # JSON numbers only: a string such as "0.5", null or a boolean is rejected
    if rows.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: rows hold an entry that is not a number")
    rows = rows.astype(float)
    if rows.shape != shape:
        raise ValidationError(f"{path}: rows shape {rows.shape} contradicts the header")
    return rows


def _field(rec: dict, key: str):
    if key not in rec:
        raise ValidationError(f"container record is missing {key!r}")
    return rec[key]


def _int_field(rec: dict, key: str) -> int:
    value = _field(rec, key)
    try:
        # a JSON true or false is a Python bool, which operator.index accepts
        number = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = -1
    if number < 0:
        raise ValidationError(f"{key!r} must be a nonnegative integer, got {value!r}")
    return number


_INT64_END = 2**63


def _index_list(rec: dict, key: str, n: int, end: int) -> np.ndarray:
    """A list of n JSON integers in [0, end), as an int64 array."""
    values = _field(rec, key)
    if not isinstance(values, list) or len(values) != n:
        raise ValidationError(f"{key!r} must be a list of n={n} integers")
    # type(), not isinstance(): JSON true and false load as bools, which are ints
    bad = next((v for v in values if type(v) is not int), None)
    if bad is not None:
        raise ValidationError(f"{key!r} holds {bad!r}, which is not an integer")
    low, high = min(values), max(values)
    if low < 0 or high >= end:
        raise ValidationError(f"{key!r} holds {low if low < 0 else high}, outside [0, {end})")
    return np.array(values, dtype=np.int64)


def _check_entries(entries, dim: int) -> None:
    if not isinstance(entries, list):
        raise ValidationError("matrix record entries are not a list of [re, im] pairs")
    if len(entries) != dim * dim:
        raise ValidationError(f"matrix record has {len(entries)} entries, expected {dim * dim}")


def _parse_entries(entries: list) -> np.ndarray:
    try:
        # complex() rejects strings and other non-numbers given as re or im,
        # but reads a JSON true or false (a Python bool) as 1 or 0
        if any(type(re) is bool or type(im) is bool for re, im in entries):
            raise TypeError("a boolean is not a number")
        return np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("matrix record entries are not [re, im] number pairs") from exc


def _matrix_stack(blocks: list, dim: int, label: str) -> np.ndarray:
    """Parse blocks of dim² [re, im] pairs into a (len(blocks), dim, dim) stack.

    Every block's entry count is checked first, so a header `dim` that no
    block matches fails before the stack is allocated. A failure names the
    block (`record 3: ...`, `element 0: ...`).
    """
    for i, entries in enumerate(blocks):
        try:
            _check_entries(entries, dim)
        except ValidationError as exc:
            raise ValidationError(f"{label} {i}: {exc}") from exc
    stack = np.empty((len(blocks), dim, dim), dtype=complex)
    for i, entries in enumerate(blocks):
        try:
            stack[i] = _parse_entries(entries).reshape(dim, dim)
        except ValidationError as exc:
            raise ValidationError(f"{label} {i}: {exc}") from exc
    return stack


def _dim_field(rec: dict) -> int:
    dim = _int_field(rec, "dim")
    if dim < 1:
        raise ValidationError(f"'dim' must be positive, got {dim}")
    return dim


def _dump(path, obj: dict) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_payload(path) -> dict:
    """Load any container and return the parsed record with its kind."""
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal over Python's digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not a valid container file: {exc}") from exc
    if not isinstance(rec, dict):
        raise ValidationError(f"{path}: not a container file: the top level is not an object")
    return rec


def format_cell(value) -> str:
    """One CSV cell: ints verbatim, floats at 17 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, columns: list[str], rows) -> None:
    """Fixed column order, '\\n' newlines, round-trip-exact floats."""
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValidationError(f"row has {len(row)} cells, expected {len(columns)}")
        lines.append(",".join(format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(path, config: dict, extra: dict) -> None:
    """Run manifest: config echo and hash, library versions, RNG name.

    The `extra` block carries per-run facts (wall-clock, summaries), so the
    manifest itself is not byte-stable; the CSV and matrix artifacts are.
    """
    from . import __version__
    from .ensembles import RNG_NAME

    record = {
        "kind": "manifest",
        "config": config,
        "config_sha256": config_hash(config),
        "rng": RNG_NAME,
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    record.update(extra)
    _dump(path, record)
