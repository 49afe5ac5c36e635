"""File formats: JSON containers for matrices and datasets, byte-stable CSV.

Matrices are stored as row-major [re, im] pairs so complex values survive a
round trip bit for bit (json floats use round-trip-exact shortest decimals).
CSV floats are printed with 17 significant digits for the same reason, and
rows always end with a bare newline, so one config and seed produce the same
bytes on every run.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import operator
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .linalg import ValidationError, _block_len

if TYPE_CHECKING:  # a reader imports it when it builds one, so writing loads no solver
    from .tomography import Dataset


def _pairs(M: np.ndarray) -> list:
    """The row-major [re, im] pairs of a matrix, or of each matrix of a stack."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(np.float64).reshape(*M.shape[:-2], -1, 2).tolist()


def _square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    return M


def matrix_to_record(M: np.ndarray) -> dict:
    M = _square(M)
    return {"kind": "matrix", "dim": M.shape[0], "entries": _pairs(M)}


def matrix_from_record(rec: dict) -> np.ndarray:
    dim = _dim_field(rec)
    entries = _field(rec, "entries")
    _check_entries(entries, dim)
    return _parse_entries(entries).reshape(dim, dim)


def save_matrix(path, M: np.ndarray) -> None:
    """`write_json(path, matrix_to_record(M))`, byte for byte, without the
    record's nested lists (see `_matrix_texts`)."""
    M = _square(M)
    _write_file(path, f'{{"dim":{M.shape[0]},"entries":',
                [*_matrix_texts(M[None]), ',"kind":"matrix"}\n'])


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


def dataset_from_record(rec: dict, label: Callable[[int], str] | None = None) -> Dataset:
    """Read either dataset form; both give the same `Dataset`, bit for bit.

    `label(n)` prefixes a check's failure at record n, as in `validate_dataset`.

    Every block's entry count is checked before any stack is allocated, and
    the elements+index form is never expanded to one block per record.
    """
    from .tomography import Dataset

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
    has_provenance = rec.get("has_provenance", False)
    if type(has_provenance) is not bool:
        raise ValidationError(f"'has_provenance' must be true or false, got {has_provenance!r}")
    if has_provenance:
        povm_idx = _index_list(rec, "povm_indices", n, _INT64_END)
        out_idx = _index_list(rec, "outcome_indices", n, _INT64_END)
    return Dataset(elements=elements, index=index, povm_indices=povm_idx, outcome_indices=out_idx,
                   label=label)


def save_dataset(path, data: Dataset) -> None:
    """`write_json(path, dataset_to_record(data))`, byte for byte, written a
    block of elements at a time (see `_matrix_texts`): neither the record's
    nested lists nor the whole file's text is held. The keys come in sorted
    order, and the integer lists are json's text of them, a block at a time."""
    _write_file(path, f'{{"dim":{data.dim},"elements":[', _dataset_tail(data))


def _dataset_tail(data: Dataset) -> Iterator[str]:
    """The text of a dataset record after its '{"dim":D,"elements":['."""
    yield from _matrix_texts(data.elements)
    has = data.has_provenance
    yield f'],"has_provenance":{json.dumps(has)},"index":'
    yield from _int_list(data.index)
    yield f',"kind":"dataset","n":{len(data)}'
    if has:
        yield ',"outcome_indices":'
        yield from _int_list(data.outcome_indices)
        yield ',"povm_indices":'
        yield from _int_list(data.povm_indices)
    yield "}\n"


# Integers of a list whose json text is made at a time
_INT_BLOCK = 2 ** 13


def _int_list(values) -> Iterator[str]:
    """json's text of a list of integers, one text for each block of them."""
    values = np.asarray(values, dtype=np.int64)
    yield "["
    for start in range(0, len(values), _INT_BLOCK):
        text = json.dumps(values[start:start + _INT_BLOCK].tolist(), separators=(",", ":"))
        yield ("," if start else "") + text[1:-1]
    yield "]"


# json's text of the floats that are not finite; float.__repr__ spells the rest
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _matrix_texts(M: np.ndarray) -> Iterator[str]:
    """The json text of a (K, D, D) stack's matrices, each a list of
    row-major [re, im] pairs, joined by commas: one text for each block of
    `linalg._block_len(D)` matrices."""
    dim = M.shape[-1]
    step = _block_len(max(dim, 1))
    matrix = "[" + ",".join(["[%s,%s]"] * (dim * dim)) + "]"
    for start in range(0, len(M), step):
        block = M[start:start + step]
        yield _spell(("," if start else "") + ",".join([matrix] * len(block)), block)


def _spell(template: str, block: np.ndarray) -> str:
    """`template` with its `%s` fields filled by json's text of the real and
    imaginary parts of `block`'s entries, in order.

    Each distinct bit pattern is spelled once (so -0.0 and 0.0 stay apart):
    by `float.__repr__`, as json spells a finite float, or as NaN or Infinity.
    """
    block = np.ascontiguousarray(block, dtype=complex)
    bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    floats = bits.view(np.float64)
    words = list(map(float.__repr__, floats.tolist()))
    if not np.isfinite(floats).all():
        words = [_NONFINITE.get(word, word) for word in words]
    return template % tuple(np.array(words, dtype=object)[inverse].tolist())


def load_dataset(path, label: Callable[[int], str] | None = None) -> Dataset:
    rec = load_payload(path)
    if rec.get("kind") != "dataset":
        raise ValidationError(f"{path}: expected a dataset file, got kind {rec.get('kind')!r}")
    return dataset_from_record(rec, label)


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


def _write_file(path, text: str, more=()) -> None:
    """`text`, then each text of `more`, written under a temporary name and
    renamed into place; an error leaves `path` as it was and no temporary."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8", newline="") as f:
            f.write(text)
            f.writelines(more)
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_json(path, obj: dict) -> None:
    """One JSON object with sorted keys and no spaces, ending in a newline;
    every container, manifest and sidecar is written this way."""
    _write_file(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


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
    """One CSV cell: text and ints verbatim, floats at 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


# Rows formatted by one `%` and written at a time: the lines of a long file,
# its joined text and its whole columns as Python lists are never held.
_CSV_BLOCK = 2 ** 12

# The `%` code giving `format_cell` of a cell of each kind of numpy dtype
_DTYPE_CODES = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}
_TYPE_CODES = (("%d", (int, np.integer)), ("%.17g", (float, np.floating)), ("%s", str))


def _format_block(columns: list, rows: int) -> str:
    """The lines of `rows` rows given as columns, each line ending in '\\n'.

    A column's `%` code comes from its cell types: `%d`, `%.17g` or `%s`
    (text, written verbatim) when its cells share one, else its cells go
    through `format_cell` one by one. A numpy column's code is its dtype's,
    and it becomes a Python list here, one block at a time. The cells are
    interleaved row by row into one tuple, and one `%` formats the block.
    """
    codes, cells = [], [None] * (rows * len(columns))
    for i, column in enumerate(columns):
        if isinstance(column, np.ndarray) and column.dtype.kind in _DTYPE_CODES:
            code, column = _DTYPE_CODES[column.dtype.kind], column.tolist()
        else:
            types = set(map(type, column))
            code = next((code for code, kinds in _TYPE_CODES
                         if all(issubclass(kind, kinds) for kind in types)), None)
            if code is None:
                code, column = "%s", list(map(format_cell, column))
        codes.append(code)
        cells[i::len(columns)] = column
    return ((",".join(codes) + "\n") * rows) % tuple(cells)


def format_column(column: np.ndarray) -> list[str]:
    """`format_cell` of each entry of a numeric array: the text of a column
    that several files share, to be formatted once."""
    return _format_block([column], len(column)).split("\n")[:-1]


def write_columns(path, names: list[str], columns: list) -> None:
    """Fixed column order, '\\n' newlines, round-trip-exact floats.

    `columns` holds one sequence per name, each as long as the first: a
    numpy array, a list, a range or any other sliceable sequence. Row t is
    the text of `format_cell` on each column's cell t. A column of the
    wrong length raises `ValidationError` before anything is written.
    """
    if len(columns) != len(names):
        raise ValidationError(f"{len(columns)} columns for {len(names)} names")
    rows = len(columns[0]) if columns else 0
    for name, column in zip(names, columns):
        if len(column) != rows:
            raise ValidationError(f"column {name!r} has {len(column)} cells, expected {rows}")
    _write_file(path, ",".join(names) + "\n", (
        _format_block([column[start:start + _CSV_BLOCK] for column in columns],
                      min(_CSV_BLOCK, rows - start))
        for start in range(0, rows, _CSV_BLOCK)
    ))


def write_csv(path, names: list[str], rows) -> None:
    """`write_columns` for an iterable of rows.

    A row of the wrong length raises `ValidationError` before anything is
    written, and leaves `path` as it was.
    """
    rows = list(rows)
    ragged = next((row for row in rows if len(row) != len(names)), None)
    if ragged is not None:
        raise ValidationError(f"row has {len(ragged)} cells, expected {len(names)}")
    write_columns(path, names, list(zip(*rows)) or [()] * len(names))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# The variables that set the thread count of OpenBLAS, of OpenMP and of MKL
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _best_effort(query: Callable[[], object]):
    """`query()`, or None where it fails: the thread setup is a record, not a check."""
    try:
        return query()
    except (OSError, AttributeError, LookupError, TypeError, ValueError):
        return None


def _openblas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy; None if it has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def thread_setup() -> dict:
    """The CPUs this process may use and numpy's BLAS with its thread count,
    as the environment sets it and as the library reports it. Each query is
    best-effort: a field is None where it fails."""
    blas = _best_effort(lambda: dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"]))
    blas = blas or {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": _best_effort(lambda: len(os.sched_getaffinity(0))),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "blas_threads_queried": _best_effort(_openblas_threads),
    }


def _peak_rss_mb() -> float:
    """This process's peak resident set size (`VmHWM`, which `exec` resets), in MiB."""
    status = Path("/proc/self/status").read_text(encoding="utf-8")
    fields = dict(line.split(":", 1) for line in status.splitlines())
    return int(fields["VmHWM"].split()[0]) / 1024


def write_manifest(path, config: dict, extra: dict) -> None:
    """Run manifest: config echo and hash, library versions, RNG name, the
    thread setup (`thread_setup`) and the peak memory so far (`peak_rss_mb`,
    None where it cannot be read).

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
        "threads": thread_setup(),
        "peak_rss_mb": _best_effort(_peak_rss_mb),
    }
    record.update(extra)
    write_json(path, record)
