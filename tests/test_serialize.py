import math

import numpy as np
import pytest

from cpdist.maps import random_channel
from cpdist.serialize import (
    channel_from_dict,
    channel_to_dict,
    dumps,
    loads,
    read_json,
    write_json,
)


def test_dumps_is_deterministic_and_round_trips_doubles():
    doc = {"v": math.pi, "w": 1.0 / 3.0, "tiny": 2.0 ** -1074, "k": 7}
    a = dumps(doc)
    b = dumps(doc)
    assert a == b
    back = loads(a)
    assert back["v"] == math.pi
    assert back["w"] == 1.0 / 3.0
    assert back["tiny"] == 2.0 ** -1074
    assert back["k"] == 7


def test_dumps_layout():
    assert dumps([1.5, 2.5]) == "[1.5, 2.5]\n"
    assert dumps({}) == "{}\n"
    assert dumps([]) == "[]\n"
    assert dumps({"a": True, "b": None}) == '{\n  "a": true,\n  "b": null\n}\n'
    # short numeric leaf lists stay inline inside nested structures
    text = dumps({"m": [[1.0, 2.0], [3.0, 4.0]]})
    assert "[1, 2]" in text and "[3, 4]" in text


def test_dumps_preserves_key_order():
    text = dumps({"z": 1, "a": 2, "m": 3})
    assert text.index('"z"') < text.index('"a"') < text.index('"m"')


def test_dumps_rejects_bad_values():
    with pytest.raises(ValueError):
        dumps({"v": float("nan")})
    with pytest.raises(ValueError):
        dumps({"v": float("inf")})
    with pytest.raises(ValueError):
        dumps({1: "x"})
    with pytest.raises(ValueError):
        dumps({"v": object()})


def test_dumps_handles_numpy_scalars():
    back = loads(dumps({"a": np.float64(0.1), "b": np.int64(3)}))
    assert back["a"] == 0.1
    assert back["b"] == 3


def test_loads_rejects_malformed():
    with pytest.raises(ValueError):
        loads("{not json")


def test_file_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"name": "x", "values": [0.1, 0.2, 0.3]}
    write_json(path, doc)
    assert read_json(path) == doc
    # identical content on rewrite
    first = path.read_bytes()
    write_json(path, doc)
    assert path.read_bytes() == first


def test_channel_json_round_trip():
    t = random_channel(2, 3, 2, seed=141)
    text = dumps(channel_to_dict(t))
    back = channel_from_dict(loads(text))
    assert (back.d_in, back.d_out) == (2, 3)
    assert np.allclose(back.choi, t.choi, atol=0.0)
    # byte-identical re-serialization
    assert dumps(channel_to_dict(back)) == text


@pytest.mark.parametrize("field", ["d_in", "d_out"])
@pytest.mark.parametrize("value", [2.9, 2.0, "2", True, None])
def test_channel_dimensions_must_be_json_integers(field, value):
    doc = loads(dumps(channel_to_dict(random_channel(2, 2, 2, seed=141))))
    doc[field] = value
    with pytest.raises(ValueError, match=f"channel field '{field}' must be "
                                         "an integer"):
        channel_from_dict(doc)
