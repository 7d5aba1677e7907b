"""Deterministic random-number helpers.

Every stochastic component of the library (workload generators, the training
substrate, noise injection in evaluation) accepts either a seed or a
:class:`numpy.random.Generator`.  Centralising the conversion here keeps the
experiments reproducible: the same seed always regenerates the same synthetic
"videos", the same training noise and therefore the same benchmark tables.
"""

from __future__ import annotations

import operator
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an integer, a
    :class:`numpy.random.SeedSequence` or an existing generator (returned
    unchanged, so state is shared with the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_seed(*parts: object, base: int = 0) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable parts.

    Unlike Python's built-in ``hash`` this does not depend on
    ``PYTHONHASHSEED``: the string representation of the parts is folded with
    a simple FNV-1a style mix, which is stable across processes.  ``base``
    may be any integer type, numpy's included.
    """
    acc = 0xCBF29CE484222325 ^ (operator.index(base) & 0xFFFFFFFFFFFFFFFF)
    for part in parts:
        for byte in repr(part).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF
