"""Wire-protocol unit tests: validation, error codes, float fidelity."""

from __future__ import annotations

import json

import pytest

from repro.hss.request import OpType
from repro.serve import protocol
from repro.serve.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    parse_query,
)


def parse(obj) -> protocol.Query:
    return parse_query(decode_frame(json.dumps(obj).encode()))


def test_place_frame_roundtrip():
    query = parse({"op": "place", "tenant": "t", "page": 42, "size": 3,
                   "t": 1.5, "rw": "W", "id": 7})
    assert query.op == "place" and query.tenant == "t" and query.id == 7
    request = query.fields["request"]
    assert (request.page, request.size, request.timestamp) == (42, 3, 1.5)
    assert request.op == OpType.WRITE


def test_place_defaults():
    request = parse({"op": "place", "tenant": "t", "page": 0}).fields["request"]
    assert (request.size, request.timestamp, request.op) == (1, 0.0, OpType.READ)


@pytest.mark.parametrize("bad", [
    {"op": "place", "page": 1},                          # no tenant
    {"op": "place", "tenant": "", "page": 1},            # empty tenant
    {"op": "place", "tenant": "t"},                      # no page
    {"op": "place", "tenant": "t", "page": -1},
    {"op": "place", "tenant": "t", "page": True},        # bool is not int
    {"op": "place", "tenant": "t", "page": 1, "size": 0},
    {"op": "place", "tenant": "t", "page": 1, "t": -2.0},
    {"op": "place", "tenant": "t", "page": 1, "t": float("inf")},
    {"op": "place", "tenant": "t", "page": 1, "rw": "Q"},
    {"op": "open", "tenant": "t", "seed": -1},
    {"op": "open", "tenant": "t", "head": "a2c"},
    {"op": "open", "tenant": "t", "capacity_pages": 0},
    {"op": "open", "tenant": "t", "capacity_pages": []},
    {"op": "open", "tenant": "t", "hyperparams": {"nope": 1}},
    {"op": "save", "tenant": "t"},                       # no checkpoint
    {"op": "reload", "tenant": "t", "checkpoint": ""},
])
def test_bad_requests_rejected(bad):
    with pytest.raises(ProtocolError) as excinfo:
        parse(bad)
    assert excinfo.value.code == protocol.ERR_BAD_REQUEST


@pytest.mark.parametrize("name,value", [
    ("batch_size", 1.5),
    ("batches_per_training", 2.0),        # integral, but not an integer
    ("train_interval", 2.5),
    ("buffer_capacity", "64"),
    ("initial_random_requests", True),    # bool is not int
    ("learning_rate", True),
    ("learning_rate", float("inf")),      # json decodes Infinity
    ("discount", float("nan")),
    ("exploration_rate", None),
])
def test_open_hyperparams_of_the_wrong_type_rejected(name, value):
    with pytest.raises(ProtocolError) as excinfo:
        parse({"op": "open", "tenant": "t", "hyperparams": {name: value}})
    assert excinfo.value.code == protocol.ERR_BAD_REQUEST
    assert repr(name) in excinfo.value.message


def test_open_hyperparams_of_the_right_type_pass():
    hp = {"batch_size": 8, "learning_rate": 1, "discount": 0.5}
    query = parse({"op": "open", "tenant": "t", "hyperparams": hp})
    assert query.fields["hyperparams"] == hp


def test_unknown_op_and_bad_json_codes():
    with pytest.raises(ProtocolError) as excinfo:
        parse({"op": "teleport"})
    assert excinfo.value.code == protocol.ERR_UNKNOWN_OP
    with pytest.raises(ProtocolError) as excinfo:
        decode_frame(b"{oops")
    assert excinfo.value.code == protocol.ERR_BAD_JSON
    with pytest.raises(ProtocolError) as excinfo:
        decode_frame(b'"a bare string"')
    assert excinfo.value.code == protocol.ERR_BAD_JSON
    with pytest.raises(ProtocolError) as excinfo:
        decode_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))
    assert excinfo.value.code == protocol.ERR_BAD_JSON


def test_open_capacity_scalar_normalises_to_list():
    query = parse({"op": "open", "tenant": "t", "capacity_pages": 256})
    assert query.fields["capacity_pages"] == [256]
    query = parse({"op": "open", "tenant": "t", "capacity_pages": [32, 64]})
    assert query.fields["capacity_pages"] == [32, 64]


def test_hyperparam_whitelist_matches_agent_fields():
    """Every whitelisted override is a real SibylHyperParams field."""
    from repro.core.hyperparams import SIBYL_DEFAULT

    for name in protocol.HYPERPARAM_FIELDS:
        assert hasattr(SIBYL_DEFAULT, name)


def test_floats_survive_the_wire_bit_exactly():
    """JSON round-trips doubles exactly — the equivalence tests'
    float-equality assertions rely on this."""
    import math

    values = [0.1 + 0.2, 1e-17, math.pi, 2 ** -1074, 1.7976931348623157e308]
    frame = encode_frame({"ok": True, "values": values})
    assert json.loads(frame)["values"] == values
