import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsoftbayes import cli, linalg, qsb, serialize, tomography
from qsoftbayes.ensembles import (
    make_rng,
    psd_observation_stream,
    random_density,
    random_psd,
    uniform_returns,
)
from qsoftbayes.linalg import (
    DomainError,
    ValidationError,
    hermitianize,
    hs_inner,
    validate_observation,
)
from qsoftbayes.portfolio import (
    SolverError,
    best_fixed_portfolio,
    learning_rate,
    soft_bayes_step,
)
from qsoftbayes.qsb import qsb_init, qsb_regret_bound, qsb_step, run_qst_game
from qsoftbayes.serialize import _pairs, save_dataset
from qsoftbayes.tomography import (
    Dataset,
    batch_ml_solve,
    generate_dataset,
    ml_objective,
    pauli_basis_povms,
    stationarity_operator,
    stochastic_qsb,
    validate_dataset,
    validate_povm,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def diag_dataset(weights: dict[int, int], dim: int) -> Dataset:
    """`weights[k]` copies of the projector onto basis vector k."""
    records = []
    for k, count in weights.items():
        A = np.zeros((dim, dim), dtype=complex)
        A[k, k] = 1.0
        records.extend([A] * count)
    return Dataset(matrices=np.array(records))


def per_record_objective(rho: np.ndarray, matrices: np.ndarray) -> float:
    """Reference: -(1/N) sum_n log tr(A_n rho), one record at a time."""
    return -float(np.mean([np.log(np.trace(A @ rho).real) for A in matrices]))


def per_record_stationarity(rho: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Reference: (1/N) sum_n A_n / tr(A_n rho), one record at a time."""
    R = sum(A / np.trace(A @ rho).real for A in matrices) / len(matrices)
    return (R + R.conj().T) / 2


def per_outcome_pauli_povms(qubits: int) -> list[np.ndarray]:
    """Reference: outcome j's vector as a chain of single-qubit `kron`s, one
    chain per outcome, and its projector as an `outer` product."""
    bases = tomography._QUBIT_BASES
    dim = 2 ** qubits
    povms = []
    for string in itertools.product("XYZ", repeat=qubits):
        elements = np.empty((dim, dim, dim), dtype=complex)
        for j, bits in enumerate(itertools.product((0, 1), repeat=qubits)):
            v = np.ones(1, dtype=complex)
            for s, b in zip(string, bits):
                v = np.kron(v, bases[s][:, b])
            elements[j] = np.outer(v, v.conj())
        povms.append(elements)
    return povms


@st.composite
def repeated_records(draw):
    """Stacks of 1-4 random PSD elements repeated over up to 40 records,
    stored as a complex stack, a real stack, or a read-only broadcast view,
    with the candidates and each record's candidate they were stacked from."""
    dim = draw(st.integers(2, 3))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    elements = [random_psd(rng, dim, rank=draw(st.integers(1, dim)))
                for _ in range(draw(st.integers(1, 4)))]
    layout = draw(st.sampled_from(["complex", "real", "broadcast"]))
    if layout == "real":
        elements = [E.real for E in elements]
    if layout == "broadcast":
        order = [0] * draw(st.integers(2, 40))
        matrices = np.broadcast_to(elements[0], (len(order), dim, dim))
    else:
        order = draw(st.lists(st.integers(0, len(elements) - 1),
                              min_size=len(elements) + 1, max_size=40))
        matrices = np.stack([elements[k] for k in order])
    return matrices, np.stack(elements), order, random_density(rng, dim)


class TestDistinctElements:

    def test_counts_records_in_order_of_first_appearance(self):
        a, b = np.eye(2), np.diag([1.0, 0.0])
        data = Dataset(matrices=np.stack([b, a, b, b, a]))
        assert data.elements.dtype == complex
        assert np.array_equal(data.elements, np.stack([b, a]))
        assert list(data.counts) == [3, 2]
        assert list(data.index) == [0, 1, 0, 0, 1]
        assert data.index.dtype == np.int64

    def test_a_stack_without_repeats_is_its_own_element_list(self):
        matrices = np.stack([random_psd(make_rng(s), 3, rank=1) for s in range(5)])
        data = Dataset(matrices=matrices)
        assert data.elements is matrices
        assert list(data.counts) == [1] * 5
        assert list(data.index) == list(range(5))

    def test_canonical_elements_and_index_are_kept_as_given(self):
        elements = np.stack([random_psd(make_rng(s), 3, rank=1) for s in range(3)])
        index = np.array([0, 1, 0, 2, 1])
        data = Dataset(elements=elements, index=index)
        assert data.elements is elements and data.index is index

    def test_candidates_are_merged_dropped_and_renumbered(self):
        a, b, c = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        # candidate 1 is never used and candidate 3 equals candidate 0 bit for bit
        data = Dataset(elements=np.stack([a, c, b, a.copy()]), index=[2, 3, 0, 2])
        assert np.array_equal(data.elements, np.stack([b, a]))
        assert list(data.index) == [0, 1, 1, 0]
        assert list(data.counts) == [2, 2]

    @pytest.mark.parametrize("shared_hash", [False, True], ids=["own-hash", "shared-hash"])
    def test_candidates_are_told_apart_by_their_bytes(self, monkeypatch, shared_hash):
        """A signed zero makes a distinct element, and so does a hash shared
        by unequal candidates: a match is confirmed on the bytes."""
        if shared_hash:
            monkeypatch.setattr(tomography, "hash", lambda data: 7, raising=False)
        a, b = np.eye(2), np.diag([1.0, 0.0])
        signed = b.copy()
        signed[0, 1] = signed[1, 0] = -0.0
        data = Dataset(matrices=np.stack([b, a, signed, b.copy(), signed.copy(), a.copy()]))
        assert data.elements.tobytes() == np.stack([b, a, signed]).astype(complex).tobytes()
        assert list(data.index) == [0, 1, 2, 0, 2, 1]
        assert list(data.counts) == [2, 2, 2]

    def test_a_generated_dataset_equals_its_record_stack(self):
        rng = make_rng(9)
        data = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 500, rng)
        stacked = Dataset(matrices=data.matrices)
        for field in ("elements", "index", "counts"):
            x, y = getattr(data, field), getattr(stacked, field)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(repeated_records())
    def test_frequency_form_matches_the_per_record_sums(self, case):
        matrices, candidates, order, rho = case
        data = Dataset(matrices=matrices)
        assert data.matrices.tobytes() == matrices.astype(complex).tobytes()
        # every element is held by a record, numbered in order of first appearance
        firsts = [list(data.index).index(k) for k in range(len(data.elements))]
        assert firsts == sorted(firsts)
        indexed = Dataset(elements=candidates, index=order)
        for field in ("elements", "index", "counts"):
            assert getattr(indexed, field).tobytes() == getattr(data, field).tobytes()

        f_ref = per_record_objective(rho, matrices)
        assert ml_objective(rho, data) == pytest.approx(f_ref, rel=1e-12, abs=1e-14)
        R_ref = per_record_stationarity(rho, matrices)
        R = stationarity_operator(rho, data)
        assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()

        rho_hat, f_star = batch_ml_solve(data)
        f_hat_ref = per_record_objective(rho_hat, matrices)
        assert f_star == pytest.approx(f_hat_ref, rel=1e-12, abs=1e-14)


class TestDataset:

    def test_shape_accessors(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(3), (4, 3, 3)))
        assert len(data) == 4
        assert data.dim == 3
        assert not data.has_provenance

    @pytest.mark.parametrize("fields, match", [
        ({"matrices": np.stack([np.eye(2), SIGMA_X])}, "record 1:"),
        ({"matrices": np.stack([np.eye(2), np.eye(2), SIGMA_X.real, np.eye(2),
                                SIGMA_X.real, SIGMA_X.real])}, "record 2:"),
        ({"matrices": np.broadcast_to(np.eye(2), (3, 2, 2)),
          "povm_indices": np.zeros(2, dtype=np.int64),
          "outcome_indices": np.zeros(3, dtype=np.int64)}, "povm_indices"),
        ({"elements": np.stack([SIGMA_X, np.eye(2)]), "index": np.array([1, 1, 0])}, "record 2:"),
        ({"elements": np.stack([np.eye(2)]), "index": np.array([0, 1])}, r"outside \[0, 1\)"),
        ({"elements": np.stack([np.eye(2)]), "index": np.array([-1])}, r"outside \[0, 1\)"),
        ({"elements": np.stack([np.eye(2)]), "index": np.array([], dtype=np.int64)}, "nonempty"),
        ({"elements": np.stack([np.eye(2)]), "index": np.array([0.0])}, "integers"),
        ({"elements": np.stack([np.eye(2)]), "index": np.array([False])}, "integers"),
        ({"elements": np.stack([np.eye(2)])}, "either matrices, or elements and an index"),
        ({"matrices": np.stack([np.eye(2)]), "elements": np.stack([np.eye(2)]),
          "index": np.array([0])}, "either matrices, or elements and an index"),
        ({"matrices": np.eye(2)}, "stack of D x D matrices"),
    ], ids=["indefinite-record", "first-record-of-a-bad-element", "index-length-mismatch",
            "first-record-of-a-bad-candidate", "index-past-the-end", "index-negative",
            "index-empty", "index-float", "index-bool", "elements-without-index",
            "matrices-and-elements", "not-a-stack"])
    def test_construction_rejects(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            Dataset(**fields)

    def test_validated_once_per_ml_run(self, tmp_path, monkeypatch):
        """The dataset is checked when built, not again by the oracle or per seed."""
        calls = []
        check = tomography.validate_dataset

        def counted(data, *args, **kwargs):
            calls.append(len(data))
            return check(data, *args, **kwargs)

        monkeypatch.setattr(tomography, "validate_dataset", counted)
        assert cli.main(["ml-run", "--qubits", "1", "--shots", "50", "--rounds", "16",
                         "--seeds", "0,1", "--out", str(tmp_path / "run")]) == 0
        assert calls == [50]


class TestValidatePovm:

    def test_accepts_projective_measurement(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        out = validate_povm(stack)
        assert out.shape == (2, 2, 2)

    def test_rejects_elements_not_summing_to_identity(self):
        stack = np.broadcast_to(np.eye(2) / 2, (3, 2, 2))
        with pytest.raises(ValidationError, match="identity"):
            validate_povm(stack)

    def test_rejects_indefinite_element_by_position(self):
        stack = np.stack([np.eye(2) - SIGMA_X.real, SIGMA_X.real]).astype(complex)
        with pytest.raises(ValidationError, match="element 1"):
            validate_povm(stack)

    def test_names_the_failing_povm_of_a_stack(self):
        """A (P, J, D, D) stack is checked in one pass; a failure names the
        POVM k as well as the element j."""
        povms = pauli_basis_povms(1)
        povms[1, 0] -= np.eye(2)
        with pytest.raises(ValidationError, match="^POVM 1 element 0: not positive semidefinite"):
            validate_povm(povms)
        povms = pauli_basis_povms(1)
        povms[2] /= 2
        with pytest.raises(ValidationError,
                           match=r"^POVM 2 elements sum to identity only within 5\.000e-01$"):
            validate_povm(povms)


def random_povm(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` PSD elements S^(-1/2) P_j S^(-1/2) of random P_j, S = sum_j P_j."""
    P = np.stack([random_psd(rng, dim) for _ in range(count)])
    w, V = np.linalg.eigh(P.sum(axis=0))
    root = (V / np.sqrt(w)) @ V.conj().T
    return hermitianize(root @ P @ root)


def per_matrix_validation(stack: np.ndarray, name) -> str | None:
    """Reference: `validate_observation` on each matrix in turn; the first error."""
    for i, A in enumerate(stack):
        try:
            validate_observation(A)
        except ValidationError as exc:
            return f"{name(i)}{exc}"
    return None


BAD_MATRICES = {
    "non-hermitian": lambda A: A + np.triu(np.full_like(A, 1e-3), 1),
    "indefinite": lambda A: A - 2.0 * np.eye(len(A)) * np.linalg.eigvalsh(A)[-1],
    "zero": np.zeros_like,
    "nan": lambda A: np.where(np.eye(len(A)) == 1, np.nan, A),
    "inf": lambda A: np.where(np.eye(len(A)) == 1, np.inf, A),
}


class TestStackedCheck:
    """Each consumer checks its whole stack in one pass and raises exactly the
    per-matrix check's message for the first failing matrix."""

    @pytest.mark.parametrize("bad_rows", [
        {}, {5: "non-hermitian"}, {5: "indefinite"}, {5: "zero"}, {5: "nan"}, {5: "inf"},
        {2: "indefinite", 9: "nan"}, {4: "inf", 7: "zero"}, {0: "zero", 11: "non-hermitian"},
    ], ids=["valid", "non-hermitian", "indefinite", "zero", "nan", "inf",
            "indefinite-before-nan", "inf-before-zero", "first-and-last"])
    @pytest.mark.parametrize("block", [linalg._CHECK_BLOCK, 18], ids=["one-block", "two-per-block"])
    def test_names_the_first_failing_matrix_as_the_per_matrix_check_does(
            self, bad_rows, block, monkeypatch):
        monkeypatch.setattr(linalg, "_CHECK_BLOCK", block)
        stack = random_povm(make_rng(31), 12, 3)
        for i, kind in bad_rows.items():
            stack[i] = BAD_MATRICES[kind](stack[i])
        # records hold the elements in reverse, twice each
        index = np.repeat(np.arange(12)[::-1], 2)
        consumers = [
            (lambda: Dataset(elements=stack, index=index), stack[index], lambda n: f"record {n}: "),
            (lambda: validate_povm(stack), stack, lambda j: f"element {j}: "),
            (lambda: run_qst_game(stack), stack, lambda t: f"round {t + 1}: "),
        ]
        for consume, records, name in consumers:
            expected = per_matrix_validation(records, name)
            if expected is None:
                consume()
                continue
            with pytest.raises(ValidationError) as err:
                consume()
            assert str(err.value) == expected

    @pytest.mark.parametrize("kind", ["non-hermitian", "indefinite", "zero", "nan"])
    @pytest.mark.parametrize("bad", [8, 18], ids=["block-boundary", "last-partial-block"])
    def test_a_game_names_a_bad_round_past_its_first_block(self, tmp_path, capsys, kind, bad):
        """At D = 32 a block holds 8 rounds, so a 20-round stream is played as
        rounds 1-8, 9-16 and the partial block 17-20. The game raises the
        per-matrix check's message for round bad + 1 once it reaches that
        round's block; a qst-game from-file input with the same records ends
        in the same message, naming both the record and the round that
        plays it, on one line, with exit code 1; ml-run names the record."""
        assert linalg._block_len(32) == 8
        stream = psd_observation_stream(make_rng(41), 20, 32)
        stream[bad] = BAD_MATRICES[kind](stream[bad])
        expected = per_matrix_validation(stream, lambda t: f"round {t + 1}: ")
        assert expected.startswith(f"round {bad + 1}: ")
        with pytest.raises(ValidationError) as err:
            run_qst_game(stream)
        assert str(err.value) == expected

        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"kind": "dataset", "dim": 32, "n": 20,
                                    "has_provenance": False, "matrices": _pairs(stream)}))
        out = tmp_path / "run"
        assert cli.main(["qst-game", "--dim", "32", "--rounds", "20", "--povm", "from-file",
                         "--input", str(path), "--out", str(out)]) == 1
        message = expected.removeprefix(f"round {bad + 1}: ")
        assert capsys.readouterr().err == f"error: record {bad} (round {bad + 1}): {message}\n"
        assert not out.exists()
        # ml-run draws records in no round order, so it names the record alone
        assert cli.main(["ml-run", "--dim", "32", "--rounds", "20", "--povm", "from-file",
                         "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: record {bad}: {message}\n"

    @pytest.mark.parametrize("povm, records", [("random-rank1", None), ("pauli-basis", None),
                                               ("from-file", 1000), ("from-file", 3000)],
                             ids=["random-rank1", "pauli-basis", "from-file", "from-file-longer"])
    def test_a_game_checks_each_observation_once(self, tmp_path, monkeypatch, povm, records):
        """Three 1000-round qst-game seeds at D = 4. Each seed's generated
        stream is checked once, in its dataset: the random-rank1 stream's
        1000 records; a Pauli game's 9 POVMs, their 36 elements in one pass,
        then the 36 distinct elements its records hold. A from-file input is
        loaded and checked once per run; a file longer than the rounds has
        its 1000-record prefix built (and checked) once, for all seeds."""
        argv = ["qst-game", "--dim", "4", "--rounds", "1000", "--povm", povm,
                "--seeds", "0,1,2", "--out", str(tmp_path / "run")]
        if povm == "random-rank1":
            checked = [1000] * 3
        elif povm == "pauli-basis":
            checked = [36, 36] * 3
        else:
            rng = make_rng(5)
            data = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), records, rng)
            save_dataset(tmp_path / "in.json", data)
            argv += ["--input", str(tmp_path / "in.json")]
            prefix = Dataset(elements=data.elements, index=data.index[:1000])
            checked = [len(data.elements)] + ([len(prefix.elements)] if records > 1000 else [])
        loads = []
        load = serialize.load_dataset
        monkeypatch.setattr(serialize, "load_dataset",
                            lambda path, *label: loads.append(path) or load(path, *label))
        counts = []
        check = linalg._hermitian_psd

        def counted(M, label, symbol="A", nonzero=True):
            if nonzero:  # observations, not the truth state's density check
                counts.append(len(M))
            return check(M, label, symbol, nonzero)

        for module in (linalg, tomography, qsb):
            monkeypatch.setattr(module, "_hermitian_psd", counted)
        assert cli.main(argv) == 0
        assert counts == checked
        assert len(loads) == (povm == "from-file")


class TestMlObjective:

    def test_identity_records_cost_nothing(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (5, 2, 2)))
        rng = make_rng(0)
        for _ in range(5):
            assert ml_objective(random_density(rng, 2), data) == pytest.approx(0.0, abs=1e-15)

    def test_projector_on_mixed_state(self):
        data = diag_dataset({0: 1}, dim=2)
        assert ml_objective(np.eye(2) / 2, data) == pytest.approx(np.log(2), abs=1e-15)

    def test_duplicates_weight_the_mean(self):
        data = diag_dataset({0: 2, 1: 1}, dim=2)
        rho = np.diag([0.8, 0.2]).astype(complex)
        expected = (2 * -np.log(0.8) - np.log(0.2)) / 3
        assert ml_objective(rho, data) == pytest.approx(expected, abs=1e-15)

    def test_zero_overlap_names_the_record(self):
        data = Dataset(matrices=np.stack([np.eye(2), np.diag([0.0, 1.0])]).astype(complex))
        with pytest.raises(DomainError, match=r"^tr\(A_n rho\) = 0\.0 is not positive at record n=1$"):
            ml_objective(np.diag([1.0, 0.0]), data)


def sample_outcome(rho: np.ndarray, povm: np.ndarray,
                   rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Reference: one shot of a POVM, outcome j with probability tr(M_j rho),
    by inverting its CDF on one uniform draw; returns j and M_j."""
    M = np.asarray(povm, dtype=complex)
    cdf = tomography._outcome_cdf(np.asarray(rho), M)
    j = min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)
    return j, M[j]


class TestOutcomeCdf:

    def test_rejects_non_simplex_probabilities(self):
        doubled = 2.0 * pauli_basis_povms(1)[2]
        with pytest.raises(DomainError, match="simplex"):
            tomography._outcome_cdf(np.eye(2, dtype=complex) / 2, doubled)


class TestGenerateDataset:

    def test_point_mass_truth(self):
        data = generate_dataset(
            np.diag([1.0, 0.0]).astype(complex), [pauli_basis_povms(1)[2]], 10, make_rng(3)
        )
        assert len(data) == 10
        assert data.has_provenance
        assert np.all(data.outcome_indices == 0)
        assert np.allclose(data.matrices, np.diag([1.0, 0.0]))

    def test_povms_cycle_round_robin(self):
        povms = pauli_basis_povms(1)[:2]
        data = generate_dataset(np.eye(2, dtype=complex) / 2, povms, 5, make_rng(4))
        assert list(data.povm_indices) == [0, 1, 0, 1, 0]

    def test_deterministic_given_seed(self):
        rho = random_density(make_rng(6), 2)
        povms = pauli_basis_povms(1)
        a = generate_dataset(rho, povms, 30, make_rng(12))
        b = generate_dataset(rho, povms, 30, make_rng(12))
        assert np.array_equal(a.matrices, b.matrices)
        assert np.array_equal(a.outcome_indices, b.outcome_indices)

    def test_equals_one_sample_outcome_per_shot(self):
        """The per-POVM CDFs change no record: same outcomes, bit for bit, and
        the generator ends where a per-shot loop of sample_outcome leaves it."""
        for qubits, shots in ((1, 7), (2, 500), (3, 130)):
            truth = random_density(make_rng(qubits), 2 ** qubits)
            povms = pauli_basis_povms(qubits)
            rng, ref = make_rng(30 + qubits), make_rng(30 + qubits)
            data = generate_dataset(truth, povms, shots, rng)
            draws = [sample_outcome(truth, povms[n % len(povms)], ref) for n in range(shots)]
            assert np.array_equal(data.outcome_indices, [j for j, _ in draws])
            assert np.array_equal(data.povm_indices, np.arange(shots) % len(povms))
            assert np.array_equal(data.matrices, np.array([M for _, M in draws]))
            assert rng.random() == ref.random()

    def test_outcome_frequencies_track_the_state(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        data = generate_dataset(rho, [pauli_basis_povms(1)[2]], 4000, make_rng(7))
        freq = np.mean(data.outcome_indices == 0)
        assert abs(freq - 0.75) < 0.03  # a bit over 4 sigma

    def test_records_validate(self):
        rho = random_density(make_rng(8), 4)
        data = generate_dataset(rho, pauli_basis_povms(2), 27, make_rng(8))
        validate_dataset(data)

    def test_rejects_empty_requests(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValidationError):
            generate_dataset(rho, [pauli_basis_povms(1)[0]], 0, make_rng(0))
        with pytest.raises(ValidationError):
            generate_dataset(rho, [], 5, make_rng(0))

    @pytest.mark.parametrize("povms, match", [
        ([np.diag([1.0, 0.0])[None], pauli_basis_povms(1)[0]],
         r"^elements must form one \(\.\.\., J, D, D\) stack: "),
        ([], r"^expected a \(\.\.\., J, D, D\) stack of elements, got shape \(0,\)$"),
    ], ids=["ragged", "empty"])
    def test_rejects_a_ragged_or_empty_povm_list(self, povms, match):
        """A list of POVMs that is no (P, J, D, D) stack ends in one
        ValidationError, not numpy's ValueError."""
        with pytest.raises(ValidationError, match=match):
            generate_dataset(np.eye(2) / 2, povms, 5, make_rng(0))

    def test_holds_one_copy_of_the_povm_set(self):
        """At q = 4 the 81 POVMs take 5.3 MB. Ten shots use ten of them: the
        traced peak of building the set and the dataset stays near one copy
        of it, with no list of the POVMs and no concatenation beside it, and
        no copy of the POVMs the shots do not use."""
        truth = random_density(make_rng(9), 16)
        tracemalloc.start()
        try:
            povms = pauli_basis_povms(4)
            data = generate_dataset(truth, povms, 10, make_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 10
        assert peak <= 1.5 * povms.nbytes


    def test_keeps_no_copy_of_the_candidates(self):
        """At q = 4 and 100 shots all 81 POVMs' 1296 elements are candidates.
        Merging them holds no copy of their bytes beside the set, so the
        traced peak of the call stays well under the set's 5.3 MB; a dict
        keyed by each candidate's bytes would hold one more set-size."""
        truth = random_density(make_rng(9), 16)
        povms = pauli_basis_povms(4)
        tracemalloc.start()
        try:
            data = generate_dataset(truth, povms, 100, make_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 100
        assert peak <= 0.5 * povms.nbytes

class TestPauliBasisPovms:

    def test_single_qubit_stacks(self):
        povms = pauli_basis_povms(1)
        assert len(povms) == 3
        for stack in povms:
            validate_povm(stack)
        assert np.array_equal(povms[2], np.stack([np.diag([1, 0]), np.diag([0, 1])]).astype(complex))

    def test_projectors_are_pauli_eigenstates(self):
        povms = pauli_basis_povms(1)
        for sigma, stack in zip((SIGMA_X, SIGMA_Y), povms[:2]):
            assert hs_inner(sigma, stack[0]) == pytest.approx(+1.0, abs=1e-15)
            assert hs_inner(sigma, stack[1]) == pytest.approx(-1.0, abs=1e-15)

    def test_two_qubit_tensor_structure(self):
        povms = pauli_basis_povms(2)
        assert len(povms) == 9
        for stack in povms:
            assert stack.shape == (4, 4, 4)
            validate_povm(stack)
        # string order is lexicographic, so index 2 measures X on the first
        # qubit and Z on the second; outcome 1 has bits (0, 1)
        x_plus = np.array([1.0, 1.0]) / np.sqrt(2)
        v = np.kron(x_plus, np.array([0.0, 1.0]))
        assert np.allclose(povms[2][1], np.outer(v, v.conj()), atol=1e-15)

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValidationError):
            pauli_basis_povms(0)

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_bytes_equal_one_kron_chain_per_outcome(self, qubits):
        """Signed zeros included, so generated datasets keep their bytes."""
        assert [M.tobytes() for M in pauli_basis_povms(qubits)] == \
            [M.tobytes() for M in per_outcome_pauli_povms(qubits)]

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_one_c_contiguous_stack(self, qubits):
        povms = pauli_basis_povms(qubits)
        dim = 2 ** qubits
        assert povms.shape == (3 ** qubits, dim, dim, dim)
        assert povms.flags.c_contiguous


class TestStochasticQsb:

    def test_identity_dataset_stays_maximally_mixed(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (5, 2, 2)))
        result = stochastic_qsb(data, rounds=50, seeds=(0,))[0]
        assert np.allclose(result.rho_bar, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(result.objective_values, 0.0, atol=1e-12)

    def test_default_checkpoints_are_geometric(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2)))
        result = stochastic_qsb(data, rounds=10, seeds=(0,))[0]
        assert list(result.checkpoints) == [1, 2, 4, 8, 10]
        result = stochastic_qsb(data, rounds=8, seeds=(0,))[0]
        assert list(result.checkpoints) == [1, 2, 4, 8]

    def test_explicit_checkpoints_are_sorted_and_deduplicated(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2)))
        result = stochastic_qsb(data, rounds=10, seeds=(0,), checkpoints=(5, 2, 2, 9))[0]
        assert list(result.checkpoints) == [2, 5, 9]
        with pytest.raises(ValidationError):
            stochastic_qsb(data, rounds=10, seeds=(0,), checkpoints=(0, 3))
        with pytest.raises(ValidationError):
            stochastic_qsb(data, rounds=10, seeds=(0,), checkpoints=(3, 11))

    def test_no_checkpoints_defers_evaluation(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2)))
        result = stochastic_qsb(data, rounds=10, seeds=(0,), checkpoints=())[0]
        assert len(result.objective_values) == 0
        with pytest.raises(ValueError):
            result.final_objective

    def test_same_seed_reproduces_bitwise(self):
        rho = random_density(make_rng(10), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 60, make_rng(10))
        a = stochastic_qsb(data, rounds=40, seeds=(3,))[0]
        b = stochastic_qsb(data, rounds=40, seeds=(3,))[0]
        assert np.array_equal(a.rho_bar, b.rho_bar)
        assert np.array_equal(a.objective_values, b.objective_values)

    def test_couples_with_the_classical_learner_on_diagonal_data(self):
        """Same seed, one draw per round: the diagonal of rho_bar must replay
        the classical average portfolio on the matching return table."""
        rng = make_rng(42)
        returns = uniform_returns(rng, 6, 3)
        records = np.zeros((6, 3, 3), dtype=complex)
        for n in range(6):
            np.fill_diagonal(records[n], returns[n])
        data = Dataset(matrices=records)

        rounds, seed = 200, 17
        quantum = stochastic_qsb(data, rounds=rounds, seeds=(seed,), checkpoints=())[0]
        # the classical learner's average portfolio, one integers(N) draw per round
        eta, draws = learning_rate(3, rounds), make_rng(seed)
        w, w_sum = np.full(3, 1.0 / 3), np.zeros(3)
        for _ in range(rounds):
            w_sum += w
            w = soft_bayes_step(w, returns[int(draws.integers(len(returns)))], eta)
        classical = w_sum / rounds
        assert np.max(np.abs(np.diag(quantum.rho_bar).real - classical)) <= 1e-10
        off_diag = quantum.rho_bar - np.diag(np.diag(quantum.rho_bar))
        assert np.max(np.abs(off_diag)) <= 1e-12

    def test_equals_a_loop_of_qsb_step_over_the_drawn_records(self):
        """Element spectra from one stacked decomposition change no bit: the
        estimator must equal qsb_step applied to each drawn record, with the
        same draws."""
        rng = make_rng(12)
        data = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 600, rng)
        rounds, seed = 2000, 9
        result = stochastic_qsb(data, rounds=rounds, seeds=(seed,))[0]

        eta = learning_rate(4, rounds)
        draws = make_rng(seed)
        state = qsb_init(4)
        rho_sum = np.zeros((4, 4), dtype=complex)
        values = []
        for t in range(1, rounds + 1):
            rho_sum += state.rho
            if t in result.checkpoints:
                values.append(ml_objective(hermitianize(rho_sum / t), data))
            state = qsb_step(state, data.matrices[int(draws.integers(len(data)))], eta)
        assert np.array_equal(result.rho_bar, hermitianize(rho_sum / rounds))
        assert np.array_equal(result.objective_values, values)
        assert np.array_equal(result.final_state.rho, state.rho)
        assert result.final_state.true_trace == state.true_trace

    def test_equals_a_loop_of_qsb_step_on_records_of_mixed_rank(self, monkeypatch):
        """Each learner takes the rank-one or the general update by its own
        record, also in rounds where the lockstep seeds hold records of both
        kinds: every seed equals its own loop of qsb_step, bit for bit."""
        rng = make_rng(14)
        pauli = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 60, rng)
        full = np.stack([random_psd(rng, 4) for _ in range(20)])
        data = Dataset(matrices=np.concatenate([pauli.matrices, full]))
        rounds, seeds = 600, (9, 10, 11)
        steps = {"_rank_one_step": 0, "_log_g_step": 0}
        for name in steps:
            step = getattr(qsb, name)
            monkeypatch.setattr(qsb, name, lambda L, *args, _n=name, _s=step:
                                steps.__setitem__(_n, steps[_n] + len(L)) or _s(L, *args))
        results = stochastic_qsb(data, rounds, seeds)
        monkeypatch.undo()

        eta = learning_rate(4, rounds)
        drawn = [make_rng(seed).integers(len(data), size=rounds) for seed in seeds]
        ones = np.stack(drawn) < len(pauli)  # the Pauli records are rank one
        assert steps == {"_rank_one_step": ones.sum(), "_log_g_step": (~ones).sum()}
        assert (ones.any(axis=0) & ~ones.all(axis=0)).sum() > 100  # rounds of both kinds
        for result, records in zip(results, drawn):
            state = qsb_init(4)
            rho_sum = np.zeros((4, 4), dtype=complex)
            values = []
            for t, n in enumerate(records.tolist(), start=1):
                rho_sum += state.rho
                if t in result.checkpoints:
                    values.append(ml_objective(hermitianize(rho_sum / t), data))
                state = qsb_step(state, data.matrices[n], eta)
            assert np.array_equal(result.rho_bar, hermitianize(rho_sum / rounds))
            assert np.array_equal(result.objective_values, values)
            a, b = result.final_state, state
            assert np.array_equal(a.log_weights, b.log_weights)
            assert np.array_equal(a.rho, b.rho)
            assert (a.shift, a.true_trace, a.rho_min_eig) == (b.shift, b.true_trace, b.rho_min_eig)

    @pytest.mark.parametrize("count", [2, 20])
    def test_a_mixed_round_steps_each_kind_once(self, monkeypatch, count):
        """In a round whose lockstep seeds hold records of both kinds, the
        rank-one rows step in one `_rank_one_step` and the others in one
        `_log_g_step`; every seed still equals its own loop of qsb_step, bit
        for bit, and the run counts its rounds by the kind of their block."""
        rng = make_rng(14)
        pauli = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 600, rng)
        full = np.stack([random_psd(rng, 4) for _ in range(600)])
        data = Dataset(matrices=np.concatenate([pauli.matrices, full]))
        rounds, seeds = 400, tuple(range(30, 30 + count))
        calls = [[]]  # per round, each step's name and rows
        for name in ("_rank_one_step", "_log_g_step"):
            step = getattr(qsb, name)
            monkeypatch.setattr(qsb, name, lambda rows, *args, _n=name, _s=step:
                                calls[-1].append((_n, len(rows))) or _s(rows, *args))
        fold = qsb._fold
        monkeypatch.setattr(qsb, "_fold", lambda *args: calls.append([]) or fold(*args))
        results = stochastic_qsb(data, rounds, seeds)
        monkeypatch.undo()

        drawn = [make_rng(seed).integers(len(data), size=rounds) for seed in seeds]
        ones = (np.stack(drawn) < len(pauli)).sum(axis=0).tolist()  # rank-one rows per round
        assert calls[-1] == [] and len(calls) == rounds + 1
        assert calls[:-1] == [[("_rank_one_step", r)] * (r > 0)
                              + [("_log_g_step", count - r)] * (r < count) for r in ones]
        assert sum(0 < r < count for r in ones) > rounds / 3  # rounds of both kinds
        assert results[0].learner_rounds == {"rank_one": 0, "general": 0, "mixed": rounds}
        eta = learning_rate(4, rounds)
        for result, records in zip(results, drawn):
            state = qsb_init(4)
            rho_sum = np.zeros((4, 4), dtype=complex)
            for n in records.tolist():
                rho_sum += state.rho
                state = qsb_step(state, data.matrices[n], eta)
            assert np.array_equal(result.rho_bar, hermitianize(rho_sum / rounds))
            a, b = result.final_state, state
            assert np.array_equal(a.log_weights, b.log_weights)
            assert (a.shift, a.true_trace, a.rho_min_eig) == (b.shift, b.true_trace, b.rho_min_eig)

    def test_draws_past_a_block_of_draws_replay_one_call_per_round(self):
        """Draws are taken from each generator in the learner loop's blocks;
        across the block boundary they must still be the draws of one
        integers(N) per round."""
        rng = make_rng(13)
        data = generate_dataset(random_density(rng, 2), pauli_basis_povms(1), 50, rng)
        rounds = linalg._block_len(2, 2) + 300  # D = 2, two seeds
        eta = learning_rate(2, rounds)
        for seed, result in zip((3, 8), stochastic_qsb(data, rounds, (3, 8), checkpoints=())):
            draws = make_rng(seed)
            state = qsb_init(2)
            rho_sum = np.zeros((2, 2), dtype=complex)
            for _ in range(rounds):
                rho_sum += state.rho
                state = qsb_step(state, data.matrices[int(draws.integers(len(data)))], eta)
            assert np.array_equal(result.rho_bar, hermitianize(rho_sum / rounds))
            assert np.array_equal(result.final_state.rho, state.rho)

    @pytest.mark.parametrize("seeds", [(2,), (2, 5, 7)])
    def test_draws_no_more_than_one_block_at_a_time(self, monkeypatch, seeds):
        """The loop asks for `_block_len(D, S)` rounds at a time, so each
        gathered stack of all seeds' rounds holds at most `_CHECK_BLOCK`
        entries, and the blocks cover every round once, in order. A block of
        rank-one records gathers their eigenvectors and projectors, and
        neither the records nor the eigenvectors' conjugate transposes."""
        blocks = []
        play = tomography._play

        def recorded(dim, rounds, eta, draw, *args, **kwargs):
            def drawn(start, stop):
                block = draw(start, stop)
                blocks.append((start, stop, [x if x is None else x.shape for x in block]))
                return block
            return play(dim, rounds, eta, drawn, *args, **kwargs)

        monkeypatch.setattr(tomography, "_play", recorded)
        rng = make_rng(16)
        data = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 300, rng)
        rounds, S = 1300, len(seeds)
        stochastic_qsb(data, rounds, seeds, checkpoints=())
        n = linalg._block_len(4, S)
        assert [b[:2] for b in blocks] == [(t, min(t + n, rounds)) for t in range(0, rounds, n)]
        for start, stop, shapes in blocks:
            m = stop - start
            # no A, mu, U, no UH (every Pauli record is rank one), kinds, P
            assert shapes == [None, (m, S, 4), (m, S, 4, 4), None, (m, S), (m, S, 4, 4)]
            assert m * S * 4 * 4 <= linalg._CHECK_BLOCK
        assert linalg._block_len(4, 1) == 512 and linalg._block_len(4, 3) == 170

    def test_builds_rank_one_rounds_states_a_block_at_a_time(self, monkeypatch):
        """Rounds whose records are all rank one read no rho: the loop builds
        their announced states with one `_from_spectrum` per block or
        checkpoint, each state once. A block with some full-rank record, of a
        full-rank or a mixed stream, has its states built one round at a
        time."""
        built = []
        build = qsb._from_spectrum
        monkeypatch.setattr(qsb, "_from_spectrum",
                            lambda w, V: built.append(len(w)) or build(w, V))
        rng = make_rng(17)
        pauli = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 300, rng)
        full = Dataset(matrices=np.stack([random_psd(rng, 4) for _ in range(20)]))
        rounds, seeds = 1300, (2, 5)
        result = stochastic_qsb(pauli, rounds, seeds)[0]
        blocks = -(-rounds // linalg._block_len(4, len(seeds)))
        assert len(built) <= blocks + len(result.checkpoints) < rounds / 50
        assert sum(built) == rounds * len(seeds)
        assert result.learner_rounds == {"rank_one": rounds, "general": 0, "mixed": 0}
        for data, kind in ((full, "general"),
                           (Dataset(matrices=np.concatenate([pauli.matrices, full.matrices])),
                            "mixed")):
            built.clear()
            result = stochastic_qsb(data, rounds, seeds)[0]
            assert built == [len(seeds)] * rounds
            assert result.learner_rounds == {"rank_one": 0, "general": 0, "mixed": 0, kind: rounds}

    def test_decomposes_the_element_stack_once_per_call(self, monkeypatch):
        decomposed = []
        spectral = tomography.spectral

        def counted(E):
            decomposed.append(E.copy())
            return spectral(E)

        monkeypatch.setattr(tomography, "spectral", counted)
        rng = make_rng(14)
        data = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 900, rng)
        assert len(data.elements) == 36  # more than 12 rounds can draw
        for rounds in (12, 3000):
            for seeds in ((2,), (2, 5)):
                decomposed.clear()
                stochastic_qsb(data, rounds, seeds, checkpoints=())
                assert len(decomposed) == 1  # one call, whatever the rounds and seeds
                assert np.array_equal(decomposed[0], data.elements)  # on the whole stack

    @pytest.mark.parametrize("seeds", [(5,), (2, 3), (4, 4, 7)])
    def test_lockstep_seeds_equal_one_run_per_seed(self, seeds):
        rng = make_rng(15)
        data = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 600, rng)
        many = stochastic_qsb(data, 1500, seeds)
        assert [r.seed for r in many] == list(seeds)
        for lockstep, seed in zip(many, seeds):
            alone = stochastic_qsb(data, 1500, seeds=(seed,))[0]
            assert np.array_equal(lockstep.rho_bar, alone.rho_bar)
            assert np.array_equal(lockstep.checkpoints, alone.checkpoints)
            assert np.array_equal(lockstep.objective_values, alone.objective_values)
            a, b = lockstep.final_state, alone.final_state
            assert np.array_equal(a.log_weights, b.log_weights)
            assert np.array_equal(a.rho, b.rho)
            assert (a.shift, a.true_trace, a.rho_min_eig, a.round) == \
                (b.shift, b.true_trace, b.rho_min_eig, b.round)

    def test_lockstep_domain_error_names_the_seed_and_the_round(self):
        # record 3 passes validation (min eigenvalue -5e-11), but at eta near 1
        # its G = (1 - eta) I + (eta / c) A has a negative eigenvalue
        bad = np.diag([-5e-11, 1.0]).astype(complex)
        data = Dataset(matrices=np.array([np.eye(2)] * 3 + [bad], dtype=complex))
        seeds = (1, 7, 0)
        first_bad = []
        for seed in seeds:
            draws = make_rng(seed)
            first_bad.append(next(t for t in range(1, 100) if draws.integers(4) == 3))
        t = min(first_bad)
        seed = seeds[first_bad.index(t)]
        assert (seed, t) == (7, 3)  # seed 0 also fails at round 3, later in the stack
        with pytest.raises(DomainError, match=f"^round {t}: seed {seed}: .*domain of log"):
            stochastic_qsb(data, 20, seeds, eta=1.0 - 1e-12)

    def test_seeds_are_required(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(2), (2, 2, 2)))
        with pytest.raises(ValidationError, match="seed"):
            stochastic_qsb(data, 10, ())

    def test_final_objective_beats_the_mixed_state_plus_regret(self):
        rho = random_density(make_rng(11), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 90, make_rng(11))
        rounds = 300
        result = stochastic_qsb(data, rounds=rounds, seeds=(4,))[0]
        budget = ml_objective(np.eye(2) / 2, data) + qsb_regret_bound(2, rounds) / rounds
        assert result.final_objective <= budget


class TestStationarityOperator:

    def test_identity_dataset_gives_identity(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(3), (4, 3, 3)))
        rho = random_density(make_rng(14), 3)
        assert np.allclose(stationarity_operator(rho, data), np.eye(3), atol=1e-12)

    def test_trace_against_the_state_is_always_one(self):
        rho_true = random_density(make_rng(15), 2)
        data = generate_dataset(rho_true, pauli_basis_povms(1), 50, make_rng(15))
        rng = make_rng(16)
        for _ in range(20):
            rho = random_density(rng, 2)
            R = stationarity_operator(rho, data)
            assert hs_inner(R, rho) == pytest.approx(1.0, abs=1e-12)


class TestBatchMlSolve:

    def test_diagonal_counts_recover_the_empirical_distribution(self):
        data = diag_dataset({0: 3, 1: 7}, dim=2)
        rho, f = batch_ml_solve(data)
        assert f == pytest.approx(0.6108643020548935, abs=1e-10)
        assert np.allclose(rho, np.diag([0.3, 0.7]), atol=1e-6)

    def test_identity_dataset_is_already_stationary(self):
        data = Dataset(matrices=np.broadcast_to(np.eye(3), (4, 3, 3)))
        rho, f = batch_ml_solve(data)
        assert np.allclose(rho, np.eye(3) / 3, atol=1e-12)
        assert f == pytest.approx(0.0, abs=1e-15)

    def test_solution_is_certified_stationary(self):
        rho_true = random_density(make_rng(20), 2)
        data = generate_dataset(rho_true, pauli_basis_povms(1), 300, make_rng(20))
        rho_hat, f = batch_ml_solve(data, tol=1e-7)
        R = stationarity_operator(rho_hat, data)
        assert np.linalg.eigvalsh(R)[-1] <= 1.0 + 2e-7
        assert hs_inner(R, rho_hat) == pytest.approx(1.0, abs=1e-9)
        assert f == pytest.approx(ml_objective(rho_hat, data), abs=1e-12)

    @pytest.mark.parametrize("qubits, shots", [(1, 300), (2, 2000)])
    def test_oracle_keeps_the_certificate_of_the_returned_matrix(self, qubits, shots):
        """The gap the solver stopped on equals, bit for bit, the certificate a
        second pass takes on its answer, so no caller need take it again."""
        rng = make_rng(20 + qubits)
        data = generate_dataset(random_density(rng, 2 ** qubits), pauli_basis_povms(qubits),
                                shots, rng)
        rho, f, gap, iterations, _, _ = tomography._ml_oracle(data, tol=1e-7)
        assert gap == float(np.linalg.eigvalsh(stationarity_operator(rho, data))[-1]) - 1.0
        assert gap <= 1e-7 and iterations >= 1
        solved = batch_ml_solve(data, tol=1e-7)
        assert np.array_equal(solved[0], rho) and solved[1] == f

    def test_value_lower_bounds_random_states(self):
        rho_true = random_density(make_rng(21), 4)
        data = generate_dataset(rho_true, pauli_basis_povms(2), 200, make_rng(21))
        _, f_star = batch_ml_solve(data, tol=1e-7)
        rng = make_rng(22)
        for _ in range(200):
            assert f_star <= ml_objective(random_density(rng, 4), data) + 1e-12

    def test_iteration_cap_raises_with_the_best_gap(self):
        data = diag_dataset({0: 3, 1: 7}, dim=2)
        with pytest.raises(SolverError) as excinfo:
            batch_ml_solve(data, tol=1e-12, max_iters=1)
        assert excinfo.value.iterations == 1
        assert excinfo.value.gap == pytest.approx(0.4, abs=1e-12)

    def test_tolerance_far_below_the_default_is_reached(self):
        """The step tests compare overlaps, not values of f, so a gap far
        below the rounding of f itself is still certified."""
        rho_true = random_density(make_rng(40), 4)
        data = generate_dataset(rho_true, pauli_basis_povms(2), 6000, make_rng(40))
        rho, f = batch_ml_solve(data, tol=1e-12, max_iters=500)
        assert np.linalg.eigvalsh(stationarity_operator(rho, data))[-1] - 1.0 <= 1e-12

    @pytest.mark.parametrize("seed, rounds, dim", [(0, 200, 3), (1, 500, 4), (2, 1000, 8)])
    def test_diagonal_records_reduce_to_the_classical_comparator(self, seed, rounds, dim):
        """On the elements diag(a_t) the oracle is the best fixed portfolio:
        the two certificates bound their values' distance by T tol + tol."""
        returns = uniform_returns(make_rng(seed), rounds, dim)
        data = Dataset(matrices=np.stack([np.diag(a) for a in returns]).astype(complex))
        rho, f_star = batch_ml_solve(data, tol=1e-7)
        comparator = best_fixed_portfolio(returns, tol=1e-8)
        assert abs(rounds * f_star - comparator.loss) <= rounds * 1e-7 + 1e-8
        assert np.array_equal(rho, np.diag(np.diag(rho)))


class TestThreeQubitOracle:
    """The oracle on a 3-qubit Pauli set of 4000 shots (216 distinct elements)."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = make_rng(0)
        truth = random_density(rng, 8)
        return generate_dataset(truth, pauli_basis_povms(3), 4000, rng)

    @pytest.fixture(scope="class")
    def solved(self, data):
        return batch_ml_solve(data, tol=1e-7, max_iters=200)

    def test_certified_within_200_iterations_on_the_returned_matrix(self, data, solved):
        rho, _ = solved
        assert np.linalg.eigvalsh(stationarity_operator(rho, data))[-1] - 1.0 <= 1e-7

    def test_value_is_the_objective_of_the_returned_matrix(self, data, solved):
        rho, f = solved
        assert f == pytest.approx(ml_objective(rho, data), abs=1e-12)

    def test_contractions_match_per_element_traces(self, data):
        rho = random_density(make_rng(1), 8)
        p = tomography._overlaps(data.elements, rho)
        p_ref = np.array([np.trace(E @ rho).real for E in data.elements])
        assert np.abs(p - p_ref).max() <= 1e-14
        R_ref = sum(c / pk * E for c, pk, E in zip(data.counts, p_ref, data.elements)) / len(data)
        assert np.abs(tomography._stationarity(data, p) - hermitianize(R_ref)).max() <= 1e-14


class TestDensityProjection:

    @pytest.mark.parametrize("eigenvalues, expected", [
        ([2.0, 0.0, -1.0], [1.0, 0.0, 0.0]),
        ([0.7, 0.5, 0.4], [0.5, 0.3, 0.2]),
        ([0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]),
    ])
    def test_projects_the_spectrum_onto_the_simplex(self, eigenvalues, expected):
        U = np.linalg.qr(make_rng(3).standard_normal((len(expected),) * 2))[0]
        H = hermitianize((U * eigenvalues) @ U.T).astype(complex)
        rho = tomography._density_projection(H)
        assert np.allclose(rho, (U * expected) @ U.T, atol=1e-14)
        assert np.array_equal(rho, rho.conj().T)

    def test_is_nearest_among_random_density_matrices(self):
        rng = make_rng(4)
        H = hermitianize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rho = tomography._density_projection(H)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-15
        nearest = np.linalg.norm(H - rho)
        assert all(nearest <= np.linalg.norm(H - random_density(rng, 4)) for _ in range(200))
