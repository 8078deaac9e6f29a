"""The axiom harness's generators, seeded a batch at a time.

Trial t of a cell draws from `numpy.random.default_rng([seed, t])`. Building
each generator that way runs `SeedSequence`'s hash mixing in Python, one
trial at a time. `generators` runs the same mixing once over a batch of
counters, as uint32 columns, and hands each `PCG64` its seed: every
generator starts in the state `default_rng` gives it, bit for bit.

numpy.random is imported with the first batch, not with the package: it
would add to every start-up.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """The 32-bit words of `value`, least significant first, as SeedSequence
    splits an int (0 is one word)."""
    if value < 0:
        raise ValueError(f"expected a non-negative seed, got {value}")
    words = [value & _WORD]
    while value := value >> 32:
        words.append(value & _WORD)
    return words


def _pcg64_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """Row t - start holds the 4 x uint64 seed that `SeedSequence([seed, t])`
    gives a PCG64 (its `generate_state(4, np.uint64)`), for each counter t in
    [start, stop), t < 2**64: SeedSequence's hash mixing, run once over the
    batch with one uint32 column per pool word."""
    counters = np.arange(start, stop, dtype=np.uint64)
    high = (counters >> np.uint64(32)).astype(np.uint32)
    head = _words(seed)
    entropy = np.zeros((len(counters), max(_POOL_SIZE, len(head) + 2)), np.uint32)
    entropy[:, : len(head)] = head
    entropy[:, len(head)] = counters.astype(np.uint32)
    entropy[:, len(head) + 1] = high
    # a counter of one word leaves a 0 in its last column: inside the pool
    # that is SeedSequence's own padding, beyond it the column is skipped
    lengths = len(head) + 1 + (high > 0)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        held = lengths > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(held, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hash_const = _INIT_B
    state = np.empty((len(counters), 8), np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _WORD
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _seeded_generator():
    """Generator(PCG64(...)) from a row of `_pcg64_seeds`. numpy.random is
    imported on the first call, not with the package: it would add to every
    start-up."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        """A seed sequence whose state is already generated."""

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words

    return lambda state: Generator(PCG64(Seeded(state)))


def generators(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """`np.random.default_rng([seed, t])` for each t in [start, stop), state
    for state, seeded in one array pass. Each is built as it is taken, so
    a batch's generators are not all alive at once."""
    return map(_seeded_generator(), _pcg64_seeds(seed, start, stop))
