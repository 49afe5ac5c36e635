import tracemalloc

import numpy as np
import pytest

from qsoftbayes.ensembles import (
    _psd_block,
    make_rng,
    psd_observation_stream,
    random_psd,
    rank1_observation_stream,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim, rounds", [(2, 20), (4, 20), (8, 20), (32, 20), (64, 20),
                                         (4, 1025)])
def test_rank1_stream_equals_one_normalized_draw_per_round(seed, dim, rounds):
    """Each round: real then imaginary Gaussian parts, one norm, one outer
    product, bit for bit, also across blocks: D = 64 draws 2 rounds per
    block, and 1025 rounds at D = 4 are three blocks."""
    rng = make_rng(seed)
    reference = []
    for _ in range(rounds):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        reference.append(np.outer(v, v.conj()))
    stream = rank1_observation_stream(make_rng(seed), rounds, dim)
    assert stream.tobytes() == np.stack(reference).tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dim", [2, 16, 64])
def test_psd_stream_equals_one_random_psd_draw_per_round(seed, dim):
    """Bit for bit, also across blocks: D = 64 draws 2 rounds per block."""
    rng = make_rng(seed)
    reference = np.stack([random_psd(rng, dim) for _ in range(12)])
    stream = psd_observation_stream(make_rng(seed), 12, dim)
    assert stream.tobytes() == reference.tobytes()


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_psd_stream_rounds_have_unit_operator_norm(dim):
    stream = psd_observation_stream(make_rng(3), 9, dim)
    assert np.abs(np.linalg.eigvalsh(stream)[:, -1] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("dim, rank", [(2, None), (16, None), (64, None), (5, 1), (8, 3)])
def test_psd_block_spectrum_rebuilds_its_matrices(dim, rank):
    """The returned spectrum is that of the scaled stack: U diag(mu) U^dagger
    gives H back, the top eigenvalue is 1, and H is the stream's draw."""
    H, mu, U = _psd_block(make_rng(4), 3, dim, rank)
    rebuilt = (U * mu[:, None, :]) @ U.conj().swapaxes(-1, -2)
    assert np.abs(rebuilt - H).max() <= 1e-13
    assert np.array_equal(mu[:, -1], np.ones(3))
    assert np.array_equal(H, H.conj().swapaxes(-1, -2))
    if rank is None:
        assert H.tobytes() == psd_observation_stream(make_rng(4), 3, dim).tobytes()


@pytest.mark.parametrize("dim, rounds, first", [(4, 1025, 1), (4, 1025, 600), (32, 20, 3),
                                                (32, 20, 8), (64, 5, 1)])
def test_psd_stream_drawn_in_two_calls_equals_one_call(dim, rounds, first):
    """Consecutive calls on one generator continue its stream: the draws
    are consumed in round order, whatever the calls' block boundaries."""
    whole = psd_observation_stream(make_rng(5), rounds, dim)
    rng = make_rng(5)
    parts = [psd_observation_stream(rng, first, dim),
             psd_observation_stream(rng, rounds - first, dim)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_psd_stream_holds_one_copy_of_its_rounds():
    """The draws go into the returned stack as they are made: no list of
    the rounds beside it, which would double the peak."""
    tracemalloc.start()
    try:
        stream = psd_observation_stream(make_rng(0), 200, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stream.nbytes
