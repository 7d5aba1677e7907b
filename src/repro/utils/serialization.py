"""JSON-friendly serialisation helpers.

Profiles, traces and experiment results are exchanged between the testbed
substrate (``repro.models``) and the trace-driven simulator
(``repro.simulation``) as plain dictionaries, mirroring how the paper logs
training-accuracy progressions from its testbed and replays them in its
simulator.  :func:`to_jsonable` keeps that round-trip loss-free for numpy
types.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into something ``json.dumps`` accepts.

    Handles numpy scalars/arrays, dataclasses, mappings, sets and sequences.
    Objects exposing an ``as_dict()`` method (configs, profiles, curves) are
    converted through it.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if hasattr(obj, "as_dict") and callable(obj.as_dict):
        return to_jsonable(obj.as_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in obj]
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")
