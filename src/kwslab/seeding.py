"""Deterministic sub-seed derivation.

Every stochastic decision in a run draws from a generator keyed by the run
seed plus a purpose string, so adding or removing one consumer never shifts
the randomness seen by another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}|{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, purpose))
