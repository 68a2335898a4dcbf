"""Deterministic stream derivation.

Every source of randomness in the package is a numpy Generator obtained
from a root integer seed plus a structured key, so that independent
pieces of work (blocks, projections, repetitions, tie-breaks) own
non-overlapping streams regardless of the order they run in.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["child_seed", "make_rng", "derive_int"]


def _key_words(parts) -> tuple[int, ...]:
    """Flatten key parts into uint32 words for a SeedSequence spawn key.

    Integers contribute two words (low, high of their 64-bit value);
    strings contribute two words of a blake2b digest. Part boundaries
    are preserved by the fixed two-word width.
    """
    words: list[int] = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            v = int(part)
            if v < 0:
                raise ValueError("stream key integers must be nonnegative")
            words.append(v & 0xFFFFFFFF)
            words.append((v >> 32) & 0xFFFFFFFF)
        elif isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            words.append(int.from_bytes(digest[:4], "little"))
            words.append(int.from_bytes(digest[4:], "little"))
        else:
            raise TypeError(f"unsupported stream key part: {part!r}")
    return tuple(words)


def child_seed(entropy: int, *key) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by `key` under `entropy`."""
    return np.random.SeedSequence(entropy=entropy, spawn_key=_key_words(key))


def make_rng(entropy: int, *key) -> np.random.Generator:
    """Generator for the stream identified by `key` under `entropy`."""
    return np.random.Generator(np.random.PCG64(child_seed(entropy, *key)))


def derive_int(entropy: int, *key) -> int:
    """Stable 63-bit integer derived from a stream key.

    Used where an API wants a plain integer seed (e.g. stored tie seeds).
    """
    state = child_seed(entropy, *key).generate_state(2, dtype=np.uint32)
    return (int(state[0]) | (int(state[1]) << 32)) & 0x7FFFFFFFFFFFFFFF
