"""Counter-based randomness for batch-composition-independent simulation.

The vectorized sweep backend advances *groups* of cells in lockstep, but
resumability demands that each cell's trajectory be a pure function of its
own seed — never of which other cells happen to share its batch, or of
how a killed run partitioned the grid before dying.  Stateful generators
(``numpy.random.Generator``) cannot give that: every draw shifts the
stream for every later consumer.

Instead, every random number here is a *stateless hash* of its full
coordinate ``(seed, stream, step, lane)`` through the splitmix64
finalizer — the same construction as counter-based RNGs in large-scale
simulation (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3").
Re-running any cell at any step, alone or inside any batch, reproduces
the exact same draw — which is what makes the kill-and-resume test able
to demand bit-identical results.

All arithmetic is numpy ``uint64`` with C wraparound semantics; arrays
are used throughout (numpy integer *arrays* overflow silently, scalars
may warn).
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple, Union

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
#: 2**-53 — maps the top 53 bits of a mixed word onto [0, 1).
_INV53 = float(2.0 ** -53)

SeedVector = Union[Sequence[int], np.ndarray]


def _u64(values) -> np.ndarray:
    """Coerce python ints (possibly negative) to a uint64 array."""
    return np.asarray(values, dtype=np.int64).astype(np.uint64)


def mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a uint64 array."""
    z = z + _GOLDEN          # a fresh array: the rounds below run in place
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


@functools.lru_cache(maxsize=64)
def _lane_keys(lanes: int) -> np.ndarray:
    """The mixed lane indices ``0..lanes-1`` (read-only, cached)."""
    keys = mix64(np.arange(lanes, dtype=np.uint64))
    keys.flags.writeable = False
    return keys


@functools.lru_cache(maxsize=16)
def _stream_keys(seeds: Tuple[int, ...], stream: int) -> np.ndarray:
    """The step-independent part of :func:`counter_keys` (read-only, cached:
    a lockstep loop draws the same seeds and streams at every step)."""
    keys = mix64(mix64(_u64(seeds)) ^ mix64(_u64([stream]))[0])
    keys.flags.writeable = False
    return keys


def _block_keys(
    seeds: SeedVector, stream: int, k0: int, steps: int
) -> np.ndarray:
    """``(steps, len(seeds))`` mixed keys for steps ``k0 .. k0+steps-1``."""
    step_keys = mix64(_u64(np.arange(k0, k0 + steps, dtype=np.int64)))
    return mix64(_stream_keys(tuple(seeds), stream)[None, :]
                 ^ step_keys[:, None])


def counter_keys(seeds: SeedVector, stream: int, step: int) -> np.ndarray:
    """One mixed uint64 key per seed for coordinate ``(stream, step)``.

    Streams separate independent uses (state init vs daemon coins vs
    fallback picks); steps separate lockstep iterations.  Nesting the
    mixes keeps the composition asymmetric, so ``(stream=a, step=b)``
    and ``(stream=b, step=a)`` do not collide.
    """
    return _block_keys(seeds, stream, step, 1)[0]


def grid_uniforms_block(
    seeds: SeedVector, stream: int, k0: int, steps: int, lanes: int
) -> np.ndarray:
    """``(steps, len(seeds), lanes)`` float64 uniforms in [0, 1).

    Slice ``[j]`` is :func:`grid_uniforms` at step ``k0 + j``: entry
    ``[j, c, l]`` depends only on ``(seeds[c], stream, k0 + j, l)``.  One
    call hashes a run of consecutive step counters, which is how a
    lockstep loop amortizes the per-call overhead over many steps.
    """
    keys = _block_keys(seeds, stream, k0, steps)
    mixed = mix64(keys[:, :, None] ^ _lane_keys(lanes)[None, None, :])
    mixed >>= _S11           # 53 bits: exact as int64 and as float64
    out = mixed.view(np.int64).astype(np.float64)
    out *= _INV53
    return out


def grid_uniforms(
    seeds: SeedVector, stream: int, step: int, lanes: int
) -> np.ndarray:
    """``(len(seeds), lanes)`` float64 uniforms in [0, 1).

    Entry ``[c, l]`` depends only on ``(seeds[c], stream, step, l)``: the
    one-step slice of :func:`grid_uniforms_block`.
    """
    return grid_uniforms_block(seeds, stream, step, 1, lanes)[0]


def grid_integers(
    seeds: SeedVector, stream: int, step: int, lanes: int, bound: int
) -> np.ndarray:
    """``(len(seeds), lanes)`` int64 draws in ``[0, bound)``.

    Scaled from :func:`grid_uniforms` — the modulo-free mapping keeps
    the (negligible) bias deterministic and backend-independent.
    """
    u = grid_uniforms(seeds, stream, step, lanes)
    return np.minimum((u * bound).astype(np.int64), bound - 1)


__all__ = [
    "counter_keys",
    "grid_integers",
    "grid_uniforms",
    "grid_uniforms_block",
    "mix64",
]
