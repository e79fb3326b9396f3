"""Counter-based PRNG: determinism, composition independence, bounds."""

import numpy as np

from repro.kernels.prng import (
    counter_keys,
    grid_integers,
    grid_uniforms,
    grid_uniforms_block,
    mix64,
)


def test_same_key_same_stream():
    a = grid_uniforms([1, 2, 3], stream=2, step=7, lanes=5)
    b = grid_uniforms([1, 2, 3], stream=2, step=7, lanes=5)
    assert np.array_equal(a, b)


def test_batch_composition_independence():
    """A seed's draws never depend on which other seeds share the batch."""
    together = grid_uniforms([11, 22, 33], stream=0, step=4, lanes=8)
    for row, seed in enumerate((11, 22, 33)):
        alone = grid_uniforms([seed], stream=0, step=4, lanes=8)
        assert np.array_equal(together[row], alone[0])


def test_streams_and_steps_decorrelate():
    base = grid_uniforms([5], stream=0, step=1, lanes=16)
    assert not np.array_equal(base, grid_uniforms([5], 1, 1, 16))
    assert not np.array_equal(base, grid_uniforms([5], 0, 2, 16))
    assert not np.array_equal(base, grid_uniforms([6], 0, 1, 16))


def test_uniforms_in_unit_interval():
    u = grid_uniforms(list(range(64)), stream=3, step=9, lanes=32)
    assert u.shape == (64, 32)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_integers_cover_range_without_overflow():
    draws = grid_integers(list(range(200)), stream=1, step=0, lanes=4,
                          bound=7)
    assert draws.shape == (200, 4)
    assert int(draws.min()) >= 0
    assert int(draws.max()) <= 6
    # All residues show up across 800 draws of a 7-way die.
    assert set(np.unique(draws)) == set(range(7))


def test_negative_seeds_are_legal_keys():
    keys = counter_keys([-1, -2], stream=0, step=0)
    assert keys.dtype == np.uint64
    a = grid_uniforms([-1], stream=0, step=3, lanes=2)
    b = grid_uniforms([-1], stream=0, step=3, lanes=2)
    assert np.array_equal(a, b)


def test_block_slices_equal_single_step_draws():
    seeds = [-3, 0, 7, 2 ** 31 - 1]
    for k0, steps, lanes in ((0, 1, 1), (1, 9, 1), (5, 4, 6), (40, 3, 17)):
        block = grid_uniforms_block(seeds, 2, k0, steps, lanes)
        assert block.shape == (steps, len(seeds), lanes)
        for j in range(steps):
            assert np.array_equal(
                block[j], grid_uniforms(seeds, 2, k0 + j, lanes))


def test_uniforms_keep_the_per_step_hash():
    """The block path reproduces the original one-step hash composition."""
    seeds, stream, step, lanes = [4, -9, 123], 3, 11, 5
    key = mix64(mix64(np.array(seeds, dtype=np.int64).astype(np.uint64))
                ^ mix64(np.array([stream], dtype=np.uint64))[0])
    key = mix64(key ^ mix64(np.array([step], dtype=np.uint64))[0])
    mixed = mix64(key[:, None] ^ mix64(np.arange(lanes, dtype=np.uint64)))
    expected = (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    assert np.array_equal(grid_uniforms(seeds, stream, step, lanes),
                          expected)
