"""Start states of many keyed PCG64 streams, computed in vectorised batches.

``pcg64_states(prefix, n)`` gives, for each index i < n, the state that
``np.random.default_rng((*prefix, i)).bit_generator.state`` holds, without
building a SeedSequence per stream: SeedSequence's entropy mixing runs on
uint32 arrays over a chunk of indices at once, and only PCG64's 128-bit
seeding step runs per stream.  NumPy keeps SeedSequence and PCG64 seeding
stable (NEP 19), so the states, and every draw made from them, equal
``default_rng``'s.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix while mixing the entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix while generating the state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 256  # streams whose start states are computed together


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence splits it: 32-bit little-endian words, [0] for 0."""
    if value < 0:
        raise ValueError(f"seed values must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix, with its running hash constant kept between calls."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def pcg64_states(prefix: tuple[int, ...], n: int) -> Iterator[dict]:
    """``default_rng((*prefix, i)).bit_generator.state`` for i in 0..n-1, yielded lazily."""
    if not 0 <= n <= 1 << 32:  # indices must fit the one uint32 word each gets
        raise ValueError(f"need 0 <= n <= 2**32 stream indices, got {n}")
    return _states([w for v in prefix for w in _words(v)], n)


def _states(prefix_words: list[int], n: int) -> Iterator[dict]:
    # A chunk of streams at a time, so memory stays flat whatever n is.
    for start in range(0, n, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, n), dtype=np.uint32)
        for h0, h1, h2, h3, h4, h5, h6, h7 in zip(*_seed_halves(prefix_words, index)):
            # The halves pair into uint64 words w0..w3, low half first.  PCG64
            # takes seed = w0 << 64 | w1 and stream = w2 << 64 | w3, then sets
            # inc = stream << 1 | 1 and state = (inc + seed) * mult + inc, all
            # mod 2**128.
            inc = ((h5 << 96 | h4 << 64 | h7 << 32 | h6) << 1 | 1) & _MASK128
            state = ((inc + (h1 << 96 | h0 << 64 | h3 << 32 | h2)) * _PCG_MULT + inc) & _MASK128
            yield {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }


def _seed_halves(prefix_words: list[int], index: np.ndarray) -> list[list[int]]:
    """The eight uint32 words SeedSequence(entropy).generate_state(8) gives
    for each entropy ``(*prefix_words, i)``, i in ``index``."""
    entropy = [np.full(len(index), w, np.uint32) for w in prefix_words] + [index]
    entropy += [np.zeros_like(index)] * (_POOL_SIZE - len(entropy))

    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(e))

    hashmix = _hashmix(_INIT_B, _MULT_B)
    return [hashmix(p).tolist() for p in pool * 2]  # the pool, cycled to 8 words
