import math

import numpy as np
import pytest

from qsoftbayes.ensembles import make_rng, random_density, random_hermitian, random_psd
from qsoftbayes.linalg import (
    DomainError,
    ValidationError,
    golden_thompson_gap,
    herm_exp,
    herm_log,
    hermitianize,
    hs_inner,
    spectral,
    validate_density,
    validate_observation,
)


class TestSpectral:

    def test_identity(self):
        w, V = spectral(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(V @ V.conj().T, np.eye(2))

    def test_diagonal_is_sorted_ascending(self):
        w, _ = spectral(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_offdiagonal_hand_case(self):
        w, _ = spectral(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_and_unitarity(self):
        """U diag(w) U^H must rebuild the input to relative tolerance."""
        rng = make_rng(11)
        for dim in (2, 4, 8, 16):
            H = random_hermitian(rng, dim)
            w, V = spectral(H)
            rebuilt = (V * w) @ V.conj().T
            scale = np.linalg.norm(H)
            assert np.linalg.norm(rebuilt - H) <= 1e-10 * scale
            assert np.linalg.norm(V @ V.conj().T - np.eye(dim)) <= 1e-10


class TestHermExpLog:

    def test_log_of_half_identity(self):
        out = herm_log(np.eye(2) / 2)
        assert np.allclose(out, -math.log(2) * np.eye(2))

    def test_exp_log_round_trip(self):
        rng = make_rng(3)
        for dim in (2, 5):
            H = random_psd(rng, dim) + 0.1 * np.eye(dim)
            back = herm_exp(herm_log(H))
            assert np.linalg.norm(back - H) <= 1e-10 * np.linalg.norm(H)

    def test_exp_is_positive_definite(self):
        rng = make_rng(4)
        for _ in range(5):
            H = random_hermitian(rng, 4)
            w = np.linalg.eigvalsh(herm_exp(H))
            assert w[0] > 0

    def test_log_rejects_singular_input(self):
        with pytest.raises(DomainError) as err:
            herm_log(np.diag([1.0, 0.0]))
        assert "eigenvalue" in str(err.value)

    def test_exp_rejects_an_overflowing_eigenvalue(self):
        with pytest.raises(DomainError, match=r"^eigenvalue 800\.0 is outside the domain of exp$"):
            herm_exp(np.diag([1.0, 800.0]))


class TestHsInner:

    def test_identity_with_density(self):
        rng = make_rng(5)
        rho = random_density(rng, 3)
        assert hs_inner(np.eye(3), rho) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_supports(self):
        assert hs_inner(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0

    def test_hand_arithmetic(self):
        assert hs_inner(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])) == 31.0

    def test_bitwise_symmetry(self):
        rng = make_rng(6)
        for _ in range(20):
            A = random_hermitian(rng, 5)
            B = random_hermitian(rng, 5)
            assert hs_inner(A, B) == hs_inner(B, A)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.eye(2), np.eye(3))


class TestValidators:

    def test_accepts_densities(self):
        rng = make_rng(10)
        validate_density(np.eye(4) / 4)
        validate_density(random_density(rng, 5))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError) as err:
            validate_density(np.diag([0.6, 0.6]))
        assert "trace" in str(err.value)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError) as err:
            validate_density(np.diag([1.5, -0.5]))
        assert "semidefinite" in str(err.value)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError) as err:
            validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
        assert "Hermitian" in str(err.value)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            validate_density(np.ones((2, 3)))

    def test_returns_exactly_hermitian_copy(self):
        rho = np.eye(2) / 2 + 1e-14 * np.array([[0, 1], [0, 0]])
        out = validate_density(rho)
        assert np.array_equal(out, out.conj().T)

    def test_observation_rejects_zero(self):
        with pytest.raises(ValidationError) as err:
            validate_observation(np.zeros((3, 3)))
        assert "zero" in str(err.value)

    def test_observation_accepts_any_positive_scale(self):
        rng = make_rng(12)
        validate_observation(1e6 * random_psd(rng, 3))
        validate_observation(1e-6 * random_psd(rng, 3))
        validate_observation(np.diag([2**32 - 1, 1]))  # its square wraps in int64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("validator", [validate_observation, validate_density])
    def test_rejects_non_finite_entries(self, validator, bad):
        M = np.eye(2, dtype=complex) / 2
        M[0, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            validator(M)


class TestGoldenThompson:

    def test_commuting_pair_has_zero_gap(self):
        gap = golden_thompson_gap(np.diag([1.0, -2.0]), np.diag([0.3, 0.7]))
        assert abs(gap) <= 1e-9

    def test_equal_arguments_have_zero_gap(self):
        rng = make_rng(13)
        H = random_hermitian(rng, 3)
        assert abs(golden_thompson_gap(H, H)) <= 1e-9

    def test_zero_matrices(self):
        assert golden_thompson_gap(np.zeros((2, 2)), np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_random_pairs(self):
        rng = make_rng(14)
        for _ in range(25):
            A = random_hermitian(rng, 4)
            B = random_hermitian(rng, 4)
            assert golden_thompson_gap(A, B) >= -1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            golden_thompson_gap(np.eye(2), np.eye(3))


def test_hermitianize_is_projection():
    rng = make_rng(15)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = hermitianize(M)
    assert np.array_equal(H, hermitianize(H))
    assert np.allclose(H, H.conj().T)
