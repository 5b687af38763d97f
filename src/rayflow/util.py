"""Deterministic seed derivation.

All randomness in the CLI flows from one user seed through splitmix64:
the seed is mixed with an FNV-1a hash of a purpose label, so independent
consumers (start vectors, oracle restarts) get decorrelated but
reproducible streams.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, label: str) -> int:
    """Sub-seed for the given purpose label, derived via splitmix64."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    state = (int(seed) ^ h) & _MASK
    _, out = splitmix64(state)
    return out


def rng_from(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, label))
