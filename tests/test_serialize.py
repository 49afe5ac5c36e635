import json

import numpy as np
import pytest

from qsoftbayes.ensembles import make_rng, random_density, uniform_returns
from qsoftbayes.linalg import ValidationError
from qsoftbayes.serialize import (
    config_hash,
    dataset_from_record,
    dataset_to_record,
    format_cell,
    load_dataset,
    load_matrix,
    load_payload,
    load_return_stream,
    matrix_from_record,
    matrix_to_record,
    save_dataset,
    save_matrix,
    save_return_stream,
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

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.eye(2))
        with pytest.raises(ValidationError, match="kind"):
            load_dataset(path)

    @pytest.mark.parametrize("n", [1, 5])
    def test_header_count_must_match_the_stored_records(self, tmp_path, n):
        data = generate_dataset(np.eye(2) / 2, pauli_basis_povms(1), 2, make_rng(5))
        rec = dataset_to_record(data)
        rec["n"] = n
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rec))
        with pytest.raises(ValidationError, match=f"n={n} but 2 records"):
            load_dataset(path)

    def test_every_record_must_hold_dim_squared_entries(self):
        rec = dataset_to_record(Dataset(matrices=np.broadcast_to(np.eye(2), (3, 2, 2))))
        rec["matrices"][1] = rec["matrices"][1][:3]
        with pytest.raises(ValidationError, match="record 1: .*3 entries, expected 4"):
            dataset_from_record(rec)

    @pytest.mark.parametrize("key", ["dim", "n", "matrices"])
    def test_missing_header_keys(self, key):
        rec = dataset_to_record(Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2))))
        del rec[key]
        with pytest.raises(ValidationError, match=f"missing '{key}'"):
            dataset_from_record(rec)

    @pytest.mark.parametrize("pair", [["1.5", "0"], ["nan", "0"], [1.5, "0"], [None, 0.0]])
    def test_entries_must_be_numbers(self, tmp_path, pair):
        rec = dataset_to_record(Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2))))
        rec["matrices"][1][0] = pair
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rec))
        with pytest.raises(ValidationError, match="record 1: .*not \\[re, im\\] number pairs"):
            load_dataset(path)

    def test_missing_matrix_entries(self):
        with pytest.raises(ValidationError, match="missing 'entries'"):
            matrix_from_record({"kind": "matrix", "dim": 2})


class TestReturnStreamContainer:

    def test_round_trip_is_exact(self, tmp_path):
        returns = uniform_returns(make_rng(3), 20, 4)
        path = tmp_path / "r.json"
        save_return_stream(path, returns)
        assert np.array_equal(load_return_stream(path), returns)

    def test_rejects_header_contradiction(self, tmp_path):
        path = tmp_path / "r.json"
        save_return_stream(path, np.ones((2, 3)))
        rec = json.loads(path.read_text())
        rec["rounds"] = 5
        path.write_text(json.dumps(rec))
        with pytest.raises(ValidationError, match="contradicts"):
            load_return_stream(path)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            save_return_stream("unused", np.ones(3))


class TestCsv:

    def test_float_cells_round_trip(self):
        for x in (1.0 / 3.0, 1e-300, 0.1 + 0.2, -7.25, 1e17):
            assert float(format_cell(x)) == x

    def test_int_cells_stay_integers(self):
        assert format_cell(42) == "42"
        assert format_cell(np.int64(7)) == "7"

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
        with pytest.raises(ValidationError, match="cells"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1]])


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
