import contextlib
import io
import json
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsoftbayes import serialize
from qsoftbayes.cli import main, write_ops_report
from qsoftbayes.ensembles import _psd_block, make_rng, random_density, uniform_returns
from qsoftbayes.linalg import ValidationError, _block_len
from qsoftbayes.portfolio import ops_regret_bound
from qsoftbayes.serialize import (
    config_hash,
    dataset_form,
    dataset_from_record,
    dataset_to_record,
    format_cell,
    format_column,
    load_dataset,
    load_matrix,
    load_payload,
    matrix_from_record,
    matrix_to_record,
    save_dataset,
    save_matrix,
    write_columns,
    write_csv,
    write_manifest,
)
from qsoftbayes.tomography import Dataset, generate_dataset, pauli_basis_povms


class TestMatrixContainer:

    def test_round_trip_is_exact(self, tmp_path):
        M = random_density(make_rng(1), 4)
        path = tmp_path / "m.json"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_record_layout(self):
        rec = matrix_to_record(np.array([[1.0, 2.0 - 3.0j], [2.0 + 3.0j, 4.0]]))
        assert rec["kind"] == "matrix"
        assert rec["dim"] == 2
        assert rec["entries"] == [[1.0, 0.0], [2.0, -3.0], [2.0, 3.0], [4.0, 0.0]]

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "negative-zero"])
    def test_entries_equal_a_per_entry_reference(self, layout):
        """The stacked [re, im] encoder writes the JSON of one float() per part."""
        M = random_density(make_rng(2), 3)
        if layout == "transposed":
            M = M.T
        elif layout == "negative-zero":
            M = np.array([[complex(1.0, -0.0), complex(-0.0, -0.0)],
                          [complex(-0.0, 0.0), complex(2.0, -0.0)]])

        def reference(X):
            return [[float(z.real), float(z.imag)] for z in np.asarray(X, complex).reshape(-1)]

        assert json.dumps(matrix_to_record(M)["entries"]) == json.dumps(reference(M))
        data = Dataset(matrices=np.stack([M, 2 * M]))
        assert json.dumps(dataset_to_record(data)["elements"]) == json.dumps(
            [reference(E) for E in data.elements])

    def test_rejects_non_square_input(self):
        with pytest.raises(ValidationError):
            matrix_to_record(np.zeros((2, 3)))

    def test_rejects_entry_count_mismatch(self):
        with pytest.raises(ValidationError, match="entries"):
            matrix_from_record({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"kind":"dataset","dim":1,"n":0,"matrices":[]}')
        with pytest.raises(ValidationError, match="kind"):
            load_matrix(path)

    def test_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ValidationError, match="container"):
            load_payload(path)

    def test_rejects_a_top_level_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="not an object"):
            load_matrix(path)


def per_record(data: Dataset) -> dict:
    """The per-record form earlier versions wrote: one [re, im] block per record."""
    M = np.ascontiguousarray(data.matrices, dtype=complex)
    n, dim = M.shape[0], M.shape[1]
    rec = {
        "kind": "dataset",
        "dim": dim,
        "n": n,
        "has_provenance": data.has_provenance,
        "matrices": M.view(np.float64).reshape(n, dim * dim, 2).tolist(),
    }
    if data.has_provenance:
        rec["povm_indices"] = data.povm_indices.tolist()
        rec["outcome_indices"] = data.outcome_indices.tolist()
    return rec


def pauli_data(shots: int) -> Dataset:
    rho = random_density(make_rng(2), 2)
    return generate_dataset(rho, pauli_basis_povms(1), shots, make_rng(2))


def signed_zero_data() -> Dataset:
    """Records that differ only in the sign of a zero, so they are distinct."""
    plus, minus = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    minus[0, 1] = minus[1, 0] = complex(-0.0, -0.0)
    return Dataset(matrices=np.stack([plus, minus, plus, minus, minus]))


def assert_same_dataset(a: Dataset, b: Dataset) -> None:
    assert np.array_equal(a.matrices, b.matrices)
    assert a.matrices.tobytes() == b.matrices.tobytes()  # also the signs of zeros
    assert a.has_provenance == b.has_provenance
    if a.has_provenance:
        assert np.array_equal(a.povm_indices, b.povm_indices)
        assert np.array_equal(a.outcome_indices, b.outcome_indices)
    for field in ("elements", "index", "counts"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestDatasetContainer:

    def test_round_trip_with_provenance(self, tmp_path):
        rho = random_density(make_rng(2), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 12, make_rng(2))
        path = tmp_path / "d.json"
        save_dataset(path, data)
        back = load_dataset(path)
        assert np.array_equal(back.matrices, data.matrices)
        assert np.array_equal(back.povm_indices, data.povm_indices)
        assert np.array_equal(back.outcome_indices, data.outcome_indices)

    def test_round_trip_without_provenance(self, tmp_path):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (3, 2, 2)).astype(complex))
        path = tmp_path / "d.json"
        save_dataset(path, data)
        back = load_dataset(path)
        assert not back.has_provenance
        assert np.array_equal(back.matrices, data.matrices)

    @pytest.mark.parametrize("make", [lambda: pauli_data(40), signed_zero_data],
                             ids=["pauli", "signed-zero"])
    def test_round_trip_is_bitwise(self, tmp_path, make):
        data = make()
        path = tmp_path / "d.json"
        save_dataset(path, data)
        assert_same_dataset(load_dataset(path), data)

    def test_writes_each_distinct_record_once(self):
        data = pauli_data(40)
        rec = dataset_to_record(data)
        assert "matrices" not in rec
        assert dataset_form(rec) == "elements+index"
        assert len(rec["elements"]) == len(data.elements) <= 6
        assert rec["index"] == data.index.tolist()
        assert rec["n"] == len(rec["index"]) == 40

    def test_a_per_record_file_and_its_rewrite_load_equal(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(per_record(pauli_data(40))))
        assert dataset_form(load_payload(old)) == "per-record"
        save_dataset(new, load_dataset(old))
        assert dataset_form(load_payload(new)) == "elements+index"
        assert_same_dataset(load_dataset(old), load_dataset(new))

    def test_ml_run_writes_the_same_artifacts_from_either_form(self, tmp_path, capsys):
        data = pauli_data(300)
        inputs = {"per-record": tmp_path / "old.json", "elements+index": tmp_path / "new.json"}
        inputs["per-record"].write_text(json.dumps(per_record(data)))
        save_dataset(inputs["elements+index"], data)
        for form, path in inputs.items():
            assert main(["ml-run", "--dim", "2", "--povm", "from-file", "--input", str(path),
                         "--rounds", "64", "--seeds", "0,1", "--out", str(tmp_path / form)]) == 0
        capsys.readouterr()
        stable = sorted(p.name for p in (tmp_path / "per-record").iterdir()
                        if p.name != "manifest.json")
        assert "dataset.json" in stable and len(stable) == 6
        for name in stable:
            old = (tmp_path / "per-record" / name).read_bytes()
            assert old == (tmp_path / "elements+index" / name).read_bytes(), name

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.eye(2))
        with pytest.raises(ValidationError, match="kind"):
            load_dataset(path)

    @pytest.mark.parametrize("n", [1, 5])
    def test_header_count_must_match_the_stored_records(self, tmp_path, n):
        data = generate_dataset(np.eye(2) / 2, pauli_basis_povms(1), 2, make_rng(5))
        rec = per_record(data)
        rec["n"] = n
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rec))
        with pytest.raises(ValidationError, match=f"n={n} but 2 records"):
            load_dataset(path)

    def test_every_record_must_hold_dim_squared_entries(self):
        rec = per_record(Dataset(matrices=np.broadcast_to(np.eye(2), (3, 2, 2))))
        rec["matrices"][1] = rec["matrices"][1][:3]
        with pytest.raises(ValidationError, match="record 1: .*3 entries, expected 4"):
            dataset_from_record(rec)

    @pytest.mark.parametrize("key", ["dim", "n", "matrices"])
    def test_missing_header_keys(self, key):
        rec = per_record(Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2))))
        del rec[key]
        with pytest.raises(ValidationError, match=f"missing '{key}'"):
            dataset_from_record(rec)

    @pytest.mark.parametrize("pair", [["1.5", "0"], ["nan", "0"], [1.5, "0"], [None, 0.0],
                                      [10**400, 0.0], [True, 0.0], [1.0, False]])
    def test_entries_must_be_numbers(self, tmp_path, pair):
        rec = per_record(Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2))))
        rec["matrices"][1][0] = pair
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rec))
        with pytest.raises(ValidationError, match="record 1: .*not \\[re, im\\] number pairs"):
            load_dataset(path)

    def test_missing_matrix_entries(self):
        with pytest.raises(ValidationError, match="missing 'entries'"):
            matrix_from_record({"kind": "matrix", "dim": 2})

    @pytest.mark.parametrize("edit, match", [
        (lambda r: r["index"].__setitem__(1, 2), r"'index' holds 2, outside \[0, 2\)"),
        (lambda r: r["index"].__setitem__(1, -1), r"'index' holds -1, outside \[0, 2\)"),
        (lambda r: r["index"].__setitem__(1, True), "'index' holds True, which is not an integer"),
        (lambda r: r["index"].__setitem__(1, 1.0), "'index' holds 1.0, which is not an integer"),
        (lambda r: r["index"].__setitem__(1, [1]), r"'index' holds \[1\], which is not an integer"),
        (lambda r: r["index"].pop(), "'index' must be a list of n=3 integers"),
        (lambda r: r.__setitem__("index", {"0": 0}), "'index' must be a list of n=3 integers"),
        (lambda r: r["elements"].append(r["elements"][0]), "element 2 is referenced by no record"),
        (lambda r: r["elements"][1].pop(), "element 1: .*3 entries, expected 4"),
        (lambda r: r["elements"][1].__setitem__(0, ["1", 0.0]), "element 1: .*not \\[re, im\\] number pairs"),
        (lambda r: r.__setitem__("matrices", []), "holds both 'matrices' and 'elements'"),
        (lambda r: r.pop("index"), "missing 'index'"),
    ], ids=["index-past-the-end", "index-negative", "index-bool", "index-float", "index-nested",
            "index-short", "index-not-a-list", "unreferenced-element", "short-element",
            "string-entry", "both-forms", "no-index"])
    def test_rejects_a_malformed_elements_index_record(self, edit, match):
        data = Dataset(matrices=np.array([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)]))
        rec = dataset_to_record(data)
        assert rec["index"] == [0, 1, 0]
        edit(rec)
        with pytest.raises(ValidationError, match=match):
            dataset_from_record(rec)

    @pytest.mark.parametrize("values, match", [
        (["x", "y", "z"], "'povm_indices' holds 'x', which is not an integer"),
        ([[1, 2]], "'povm_indices' must be a list of n=3 integers"),
        ([[1], [2], [3]], r"'povm_indices' holds \[1\], which is not an integer"),
        ([1.5, 0, 0], "'povm_indices' holds 1.5, which is not an integer"),
        ([False, 0, 0], "'povm_indices' holds False, which is not an integer"),
        ([0, -1, 0], r"'povm_indices' holds -1, outside \[0, "),
        ([0, 2**63, 0], r"'povm_indices' holds 9223372036854775808, outside \[0, "),
        ([0, 0], "'povm_indices' must be a list of n=3 integers"),
        ("012", "'povm_indices' must be a list of n=3 integers"),
    ])
    @pytest.mark.parametrize("form", ["per-record", "elements+index"])
    def test_provenance_must_be_n_nonnegative_integers(self, values, match, form):
        data = generate_dataset(np.eye(2) / 2, pauli_basis_povms(1), 3, make_rng(5))
        rec = per_record(data) if form == "per-record" else dataset_to_record(data)
        rec["povm_indices"] = values
        with pytest.raises(ValidationError, match=match):
            dataset_from_record(rec)

    @pytest.mark.parametrize("value, provenance", [
        ("absent", False), (False, False), (True, True),
        ("yes", None), (0, None), (1, None), (None, None), ([True], None),
    ])
    @pytest.mark.parametrize("form", ["per-record", "elements+index"])
    def test_has_provenance_must_be_a_json_boolean(self, value, provenance, form):
        """Absent or false is no provenance, true is provenance; any other
        value fails on its own, not on a list it would have named."""
        data = generate_dataset(np.eye(2) / 2, pauli_basis_povms(1), 3, make_rng(5))
        rec = per_record(data) if form == "per-record" else dataset_to_record(data)
        if value == "absent":
            del rec["has_provenance"]
        else:
            rec["has_provenance"] = value
        if provenance is None:
            message = f"'has_provenance' must be true or false, got {value!r}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                dataset_from_record(rec)
        else:
            assert dataset_from_record(rec).has_provenance is provenance

    @pytest.mark.parametrize("key, value, match", [
        ("dim", True, "'dim' must be a nonnegative integer, got True"),
        ("n", True, "'n' must be a nonnegative integer, got True"),
        ("n", 0, "n=0; a dataset holds at least one record"),
        ("dim", 10**7, "record 0: .*4 entries, expected 100000000000000"),
        ("dim", 2**70, "record 0: .*4 entries, expected"),
    ])
    def test_rejects_a_bad_header_before_allocating(self, key, value, match):
        rec = per_record(Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2))))
        rec[key] = value
        with pytest.raises(ValidationError, match=match):
            dataset_from_record(rec)

    def test_an_elements_index_file_loads_without_expanding_its_records(self, tmp_path):
        """One 16 x 16 element held by 20,000 records: loading keeps the one
        element and the index, never a 20,000 x 16 x 16 record stack (82 MB)."""
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "kind": "dataset", "dim": 16, "n": 20_000, "has_provenance": False,
            "elements": [matrix_to_record(np.eye(16))["entries"]], "index": [0] * 20_000,
        }))
        tracemalloc.start()
        try:
            data = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert len(data.elements) == 1 and len(data) == 20_000

    def test_an_empty_element_list_with_a_huge_dim_fails_on_the_index(self):
        rec = {"kind": "dataset", "dim": 10**10, "n": 1, "elements": [], "index": [0]}
        with pytest.raises(ValidationError, match=r"'index' holds 0, outside \[0, 0\)"):
            dataset_from_record(rec)


# --- the block writer -------------------------------------------------------

def json_reference(rec: dict) -> bytes:
    """The bytes `write_json` gives a record: what the block writers must write."""
    return (json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def psd_elements(n: int, dim: int) -> np.ndarray:
    """n continuous-valued PSD matrices, distinct bit for bit."""
    return _psd_block(make_rng(3), n, dim)[0]


def with_provenance(matrices: np.ndarray) -> Dataset:
    n = len(matrices)
    return Dataset(matrices=matrices, povm_indices=np.arange(n), outcome_indices=np.arange(n) % 3)


# K at one block of D = 4 elements (`linalg._block_len`) and one either side
BLOCK_4 = _block_len(4)
# the integers of a list that save_dataset writes at a time
INT_BLOCK = serialize._INT_BLOCK


class TestBlockWriter:
    """`save_dataset` and `save_matrix` write a block of elements at a time,
    and their bytes are `write_json`'s of the record, `json_reference`."""

    @pytest.mark.parametrize("make", [
        signed_zero_data,
        lambda: Dataset(matrices=np.array([np.diag([5e-324, 1e150]), np.diag([1.0, 2.0]),
                                           np.diag([3.0, 0.0]), np.diag([1e16, 2.5e-8])])),
        lambda: pauli_data(40),
        lambda: Dataset(matrices=psd_elements(5, 3)),
        lambda: Dataset(matrices=np.eye(2)[None]),
        lambda: with_provenance(psd_elements(1, 4)),
        lambda: with_provenance(psd_elements(BLOCK_4 - 1, 4)),
        lambda: with_provenance(psd_elements(BLOCK_4, 4)),
        lambda: Dataset(matrices=psd_elements(BLOCK_4 + 1, 4)),
        lambda: Dataset(matrices=psd_elements(3, 100)),
        lambda: with_provenance(np.tile(psd_elements(3, 2), (INT_BLOCK, 1, 1))[:2 * INT_BLOCK + 1]),
    ], ids=["signed-zeros", "tiny-huge-integral", "pauli", "no-provenance", "K=1",
            "K=1-provenance", "block-1", "block", "block+1", "matrix-over-a-block",
            "lists-over-two-blocks"])
    def test_save_dataset_writes_the_json_of_its_record(self, tmp_path, make):
        data = make()
        save_dataset(tmp_path / "d.json", data)
        assert (tmp_path / "d.json").read_bytes() == json_reference(dataset_to_record(data))

    @pytest.mark.parametrize("M", [
        random_density(make_rng(4), 5),
        np.array([[1.0, complex(-0.0, 0.0)], [complex(0.0, -0.0), 5e-324]]),
        np.array([[np.nan, np.inf], [-np.inf, 1e300]]),
        np.arange(9.0).reshape(3, 3).T,
        psd_elements(1, 100)[0],
    ], ids=["density", "signed-zeros", "non-finite", "real-transposed", "over-a-block"])
    def test_save_matrix_writes_the_json_of_its_record(self, tmp_path, M):
        save_matrix(tmp_path / "m.json", M)
        assert (tmp_path / "m.json").read_bytes() == json_reference(matrix_to_record(M))

    def test_a_continuous_dataset_is_written_in_bounded_memory(self, tmp_path):
        """16 blocks of distinct D = 8 elements, every float of them distinct:
        the traced peak is one block's work, well below the file's size."""
        data = Dataset(matrices=psd_elements(16 * _block_len(8), 8))
        path = tmp_path / "d.json"
        tracemalloc.start()
        try:
            save_dataset(path, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_the_integer_lists_are_written_in_bounded_memory(self, tmp_path):
        """With provenance, every record distinct at D = 2: the traced peak
        stays the same from 2^13 to 2^15 records, as it would not if a whole
        index or provenance list were turned into one text."""
        peaks = []
        for n in (2 ** 13, 2 ** 15):
            data = with_provenance(psd_elements(n, 2))
            tracemalloc.start()
            try:
                save_dataset(tmp_path / f"d{n}.json", data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]


# --- fuzzing the dataset reader ---------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# valid observations at D = 1 and D = 2, with repeats when drawn more than once
POOL = {1: [np.array([[1.0]]), np.array([[0.25]])],
        2: [np.eye(2), np.diag([1.0, 0.0]), np.array([[0.5, 0.5j], [-0.5j, 0.5]])]}


@st.composite
def dataset_records(draw):
    """A valid record in either form, then up to four random edits of it."""
    dim = draw(st.sampled_from([1, 2]))
    picks = draw(st.lists(st.integers(0, len(POOL[dim]) - 1), min_size=1, max_size=6))
    povm = draw(st.none() | st.lists(st.integers(0, 5), min_size=len(picks), max_size=len(picks)))
    data = Dataset(matrices=np.array([POOL[dim][k] for k in picks], dtype=complex),
                   povm_indices=None if povm is None else np.array(povm),
                   outcome_indices=None if povm is None else np.array(povm[::-1]))
    rec = draw(st.sampled_from([per_record, dataset_to_record]))(data)
    for _ in range(draw(st.integers(0, 4))):
        _edit(draw, rec)
    return rec


def _edit(draw, rec) -> None:
    """Delete, replace, shorten, lengthen, nudge or retype one value anywhere in rec."""
    node = rec
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        break
    value = node[key]
    action = draw(st.sampled_from(["delete", "replace", "shorten", "lengthen", "nudge", "retype"]))
    if action == "delete":
        del node[key]
    elif action == "replace":
        node[key] = draw(JSON_VALUES)
    elif action == "shorten" and isinstance(value, list):
        del value[draw(st.integers(0, len(value))):]
    elif action == "lengthen" and isinstance(value, list) and value:
        value.append(json.loads(json.dumps(value[-1])))
    elif action == "nudge" and type(value) is int:
        node[key] = value + draw(st.sampled_from([-1, 1]))
    elif action == "retype" and type(value) in (int, float):
        node[key] = draw(st.sampled_from([float(value), bool(value), str(value), [value]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dataset_records())
def test_fuzzed_records_load_or_fail_with_one_error_line(tmp_path_factory, rec):
    """A record loads into a valid Dataset or raises ValidationError, and
    `qsb validate` on its file exits 0 or 1 with at most one error line."""
    try:
        data = dataset_from_record(rec)
    except ValidationError:
        data = None
    else:
        # what loads holds exactly the record's JSON integers
        assert isinstance(data, Dataset)
        assert type(rec["n"]) is type(rec["dim"]) is int
        assert (len(data), data.dim) == (rec["n"], rec["dim"])
        keys = ["povm_indices", "outcome_indices"] if data.has_provenance else []
        for key in keys + (["index"] if "index" in rec else []):
            assert all(type(v) is int for v in rec[key])
        for key in keys:
            assert getattr(data, key).tolist() == rec[key]
        if "index" in rec:
            assert sorted(set(rec["index"])) == list(range(len(rec["elements"])))
    path = tmp_path_factory.getbasetemp() / "fuzzed_dataset.json"
    path.write_text(json.dumps(rec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    if code == 0:
        assert err.getvalue() == "" and "all checks passed" in out.getvalue()
    else:
        assert code == 1
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    if rec.get("kind") == "dataset":
        assert code == (1 if data is None else 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dataset_records())
def test_save_dataset_writes_the_json_of_any_loaded_record(tmp_path_factory, rec):
    """Whatever dataset a record loads into is written as json.dumps writes its record."""
    try:
        data = dataset_from_record(rec)
    except ValidationError:
        return
    path = tmp_path_factory.getbasetemp() / "written_dataset.json"
    save_dataset(path, data)
    assert path.read_bytes() == json_reference(dataset_to_record(data))


class TestCsv:

    def test_float_cells_round_trip(self):
        for x in (1.0 / 3.0, 1e-300, 0.1 + 0.2, -7.25, 1e17):
            assert float(format_cell(x)) == x

    def test_int_cells_stay_integers(self):
        assert format_cell(42) == "42"
        assert format_cell(np.int64(7)) == "7"

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
           st.floats(width=32))
    def test_float_cells_are_the_17_digit_format(self, x, x32):
        """'%.17g' % float(x) gives the text of format(x, '.17g') for every float type."""
        expected = format(x, ".17g")
        assert format_cell(x) == expected
        assert format_cell(np.float64(x)) == expected
        assert format_cell(np.float32(x32)) == format(x32, ".17g")

    def test_layout_and_newlines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
        text = path.read_text()
        assert text == "a,b\n1,0.5\n2,0.25\n"
        assert "\r" not in text

    def test_header_only_when_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [])
        assert path.read_text() == "x\n"

    def test_rejects_ragged_rows(self, tmp_path):
        """A short row, even after blocks of rows were written, leaves no file."""
        for good_rows in (0, 3 * serialize._CSV_BLOCK):
            rows = [(t, 0.5) for t in range(good_rows)] + [(1,)]
            with pytest.raises(ValidationError, match="row has 1 cells, expected 2"):
                write_csv(tmp_path / "t.csv", ["a", "b"], iter(rows))
            assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_leaves_an_earlier_file_as_it_was(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [[1]])
        with pytest.raises(ValidationError):
            write_csv(path, ["a"], [[2], [3, 4]])
        assert path.read_text() == "a\n1\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_rows_equal_the_per_cell_reference(self, tmp_path):
        """Every row is `format_cell` of each cell, whether its cell types match
        the first row's (one `%` per row) or not (cell by cell): Python and
        numpy ints and bools, float64 and float32, nan, infinities, -0.0,
        subnormals, and a column whose type changes mid-file."""
        specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
                    2.2250738585072014e-308, 1.0 / 3.0, 1e38, -7.25]
        rows = []
        for i, x in enumerate(specials * 3):
            rows.append((i, np.int64(-i), True, x, np.float64(x), np.float32(x),
                         i if i < 15 else float(i) / 7.0))
        rows += [(np.uint8(7), False, np.bool_(True), np.float16(0.1), 3, 2.5, np.int32(-1)),
                 (1, 2, 3, 4, 5, 6, 7)]
        rows += rows[:2] * (serialize._CSV_BLOCK // 2)  # past one block of lines
        columns = ["i", "neg", "flag", "x", "x64", "x32", "mixed"]
        path = tmp_path / "t.csv"
        write_csv(path, columns, rows)
        reference = [",".join(columns)] + [",".join(format_cell(v) for v in row) for row in rows]
        assert path.read_text() == "\n".join(reference) + "\n"

    def test_cells_without_a_row_format_go_through_format_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [("2.5", 1), ("0.25", np.bool_(False))])
        assert path.read_text() == "a,b\n2.5,1\n0.25,0\n"

    def test_text_cells_are_verbatim(self):
        assert format_cell("0.1") == "0.1"
        assert format_cell("x,y") == "x,y"

    def test_columns_and_rows_equal_the_per_cell_reference(self, tmp_path):
        """Both paths give `format_cell` of each cell across several blocks:
        int, float64, float32, text and bool columns, as numpy arrays, lists
        and a range, and columns whose types change within a block or from
        one block to the next."""
        rows = 2 * serialize._CSV_BLOCK + 5
        rng = make_rng(7)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        x[:6] = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]
        x32 = (rng.standard_normal(rows) * 10.0 ** rng.integers(-45, 37, rows)).astype(np.float32)
        x32[:5] = x[:5]
        flags = rng.random(rows) < 0.5
        block_mixed = [t if t < serialize._CSV_BLOCK else t / 7.0 for t in range(rows)]
        columns = {
            "range": range(1, rows + 1),
            "int64": rng.integers(-2**62, 2**62, rows),
            "uint8": rng.integers(0, 255, rows, dtype=np.uint8),
            "float64": x,
            "float32": x32,
            "floats": x.tolist(),
            "text": ["%.17g" % v for v in x.tolist()],
            "bool": flags,
            "bools": flags.tolist(),
            "np_bools": list(flags),
            "mixed": [v if t % 3 else int(t) for t, v in enumerate(x.tolist())],
            "block_mixed": block_mixed,
        }
        names = list(columns)
        reference = [",".join(names)] + [
            ",".join(format_cell(column[t]) for column in columns.values()) for t in range(rows)
        ]
        expected = "\n".join(reference) + "\n"
        write_columns(tmp_path / "columns.csv", names, list(columns.values()))
        assert (tmp_path / "columns.csv").read_text() == expected
        write_csv(tmp_path / "rows.csv", names, zip(*columns.values()))
        assert (tmp_path / "rows.csv").read_text() == expected
        for name in ("int64", "float64", "float32", "bool"):
            assert format_column(columns[name]) == [format_cell(v) for v in columns[name]]

    def test_a_column_of_the_wrong_length_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValidationError, match="column 'b' has 2 cells, expected 3"):
            write_columns(path, ["a", "b"], [np.arange(3), [0.5, 0.25]])
        with pytest.raises(ValidationError, match="1 columns for 2 names"):
            write_columns(path, ["a", "b"], [np.arange(3)])
        assert list(tmp_path.iterdir()) == []

    def test_an_ops_report_holds_no_whole_column_lists(self, tmp_path):
        """A 20000-row ops report peaks below the five whole-column float
        lists (loss, cum_loss, comparator_loss, regret, bound) that a
        row-at-a-time writer builds before its first row."""
        rounds, dim = 20_000, 16
        returns = uniform_returns(make_rng(0), rounds, dim)
        weights = np.full(dim, 1.0 / dim)
        losses = -np.log(returns @ weights)
        bound = ops_regret_bound(dim, np.arange(1, rounds + 1))
        column_lists = 5 * (sys.getsizeof([0.5] * rounds) + rounds * sys.getsizeof(0.5))
        tracemalloc.start()
        try:
            write_ops_report(tmp_path / "ops.csv", losses, returns, weights, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < column_lists


class TestManifest:

    def test_hash_ignores_insertion_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_contents(self, tmp_path):
        path = tmp_path / "manifest.json"
        config = {"mode": "ops-game", "dim": "2"}
        write_manifest(path, config, {"elapsed_s": 1.5})
        rec = load_payload(path)
        assert rec["kind"] == "manifest"
        assert rec["config"] == config
        assert rec["config_sha256"] == config_hash(config)
        assert rec["rng"] == "philox"
        assert rec["elapsed_s"] == 1.5
        assert rec["numpy_version"] == np.__version__
        assert rec["threads"]["nproc"] == os.cpu_count()
        assert rec["peak_rss_mb"] > 0.0

    def test_peak_memory_is_best_effort(self, tmp_path, monkeypatch):
        """Where the process status cannot be read, the peak is None."""
        read_text = Path.read_text

        def fail(self, *args, **kwargs):
            if self == Path("/proc/self/status"):
                raise OSError("not here")
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", fail)
        path = tmp_path / "manifest.json"
        write_manifest(path, {"mode": "ops-game"}, {})
        assert load_payload(path)["peak_rss_mb"] is None

    def test_thread_setup_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        setup = serialize.thread_setup()
        assert setup["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "3"
        assert setup["blas_threads_env"]["MKL_NUM_THREADS"] is None
        assert json.loads(json.dumps(setup)) == setup

    def test_thread_setup_is_best_effort(self, monkeypatch):
        """A query that fails leaves its field None and raises nothing."""
        def fail(*args, **kwargs):
            raise OSError("not here")

        monkeypatch.setattr(serialize.os, "sched_getaffinity", fail, raising=False)
        monkeypatch.setattr(serialize.np, "show_config", fail)
        monkeypatch.setattr(serialize.ctypes, "CDLL", fail)
        setup = serialize.thread_setup()
        assert setup["nproc"] == os.cpu_count()
        for field in ("affinity_cpus", "blas", "blas_version", "blas_threads_queried"):
            assert setup[field] is None, field


@pytest.mark.parametrize("write", [
    lambda path, x: save_matrix(path, np.eye(2) * x),
    lambda path, x: save_dataset(path, Dataset(matrices=np.eye(2)[None] * x)),
    lambda path, x: write_manifest(path, {"mode": "ops-game"}, {"x": x}),
    lambda path, x: write_columns(path, ["x"], [[x]]),
], ids=["matrix", "dataset", "manifest", "csv"])
def test_a_failed_rename_leaves_the_earlier_file_and_no_part(tmp_path, monkeypatch, write):
    """Every writer writes under `.part` and renames into place."""
    path = tmp_path / "file"
    write(path, 0.5)
    before = path.read_bytes()

    def fail(self, target):
        raise OSError("cannot rename")

    monkeypatch.setattr(Path, "replace", fail)
    with pytest.raises(OSError, match="cannot rename"):
        write(path, 0.25)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
