"""Unit tests for serialisation and RNG helpers."""

import numpy as np
import pytest

from repro.configs import RetrainingConfig
from repro.utils.rng import ensure_rng, stable_seed
from repro.utils.serialization import to_jsonable


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        assert ensure_rng(5).integers(0, 100, 10).tolist() == ensure_rng(5).integers(0, 100, 10).tolist()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(3)
        assert ensure_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestStableSeed:
    def test_deterministic_across_calls(self):
        assert stable_seed("stream", 3, base=7) == stable_seed("stream", 3, base=7)

    def test_different_parts_differ(self):
        assert stable_seed("a") != stable_seed("b")

    def test_base_changes_seed(self):
        assert stable_seed("a", base=1) != stable_seed("a", base=2)

    def test_numpy_integer_base_matches_python_int(self):
        assert stable_seed("x", base=np.int64(3)) == stable_seed("x", base=3)
        assert stable_seed("x", base=np.uint64(2**64 - 1)) == stable_seed("x", base=2**64 - 1)

    def test_result_is_non_negative_63_bit(self):
        seed = stable_seed("anything", 123, 4.5)
        assert 0 <= seed < 2**63


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        payload = to_jsonable({"a": np.float64(0.5), "b": np.arange(3)})
        assert payload == {"a": 0.5, "b": [0, 1, 2]}

    def test_objects_with_as_dict(self):
        config = RetrainingConfig(epochs=5, name="x")
        payload = to_jsonable(config)
        assert payload["epochs"] == 5
        assert payload["name"] == "x"

    def test_nested_containers(self):
        payload = to_jsonable({"values": [(1, 2), {3, 4}]})
        assert payload["values"][0] == [1, 2]
        assert sorted(payload["values"][1]) == [3, 4]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
