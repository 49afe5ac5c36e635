import numpy as np
import pytest

from qsoftbayes.ensembles import make_rng, rank1_observation_stream


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 4, 8, 32])
def test_rank1_stream_equals_one_normalized_draw_per_round(seed, dim):
    """Each round: real then imaginary Gaussian parts, one norm, one outer
    product, bit for bit."""
    rng = make_rng(seed)
    reference = []
    for _ in range(20):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        reference.append(np.outer(v, v.conj()))
    assert np.array_equal(rank1_observation_stream(make_rng(seed), 20, dim), np.stack(reference))
