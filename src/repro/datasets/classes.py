"""Object-class taxonomy used by the synthetic video workloads.

The Cityscapes study in the paper (Figure 2a) tracks six object classes —
bicycle, bus, car, motorcycle, person and truck — whose relative frequencies
drift across retraining windows.  The synthetic generators use the same
taxonomy so the reproduced Figure 2a is directly comparable.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..exceptions import DatasetError

#: The canonical class names, in the order used for distribution vectors.
DEFAULT_CLASSES: List[str] = ["bicycle", "bus", "car", "motorcycle", "person", "truck"]


class ClassTaxonomy:
    """Ordered set of object classes with index lookups.

    A taxonomy maps class names to contiguous integer labels (the labels the
    edge model predicts) and validates class-distribution vectors.
    """

    def __init__(self, names: Sequence[str] = DEFAULT_CLASSES) -> None:
        names = list(names)
        if not names:
            raise DatasetError("a taxonomy needs at least one class")
        if len(set(names)) != len(names):
            raise DatasetError("class names must be unique")
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}

    # ------------------------------------------------------------ accessors
    @property
    def names(self) -> List[str]:
        return list(self._names)

    @property
    def num_classes(self) -> int:
        return len(self._names)

    def __len__(self) -> int:
        return self.num_classes

    def __iter__(self):
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassTaxonomy) and other._names == self._names

    def __hash__(self) -> int:
        return hash(tuple(self._names))

    def __repr__(self) -> str:
        return f"ClassTaxonomy({self._names!r})"

    # ----------------------------------------------------------- validation
    def validate_distribution(self, distribution: Sequence[float]) -> np.ndarray:
        """Check a class-frequency vector and return it as a numpy array."""
        arr = np.asarray(list(distribution), dtype=float)
        if arr.shape != (self.num_classes,):
            raise DatasetError(
                f"distribution has {arr.shape} entries; expected {self.num_classes}"
            )
        if np.any(arr < 0):
            raise DatasetError("class frequencies must be non-negative")
        total = float(arr.sum())
        if total <= 0:
            raise DatasetError("class frequencies must not all be zero")
        return arr / total
