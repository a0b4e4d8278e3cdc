import copy
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from alarmpatrol.fileio import FileFormatError, instance_to_payload, parse_instance
from alarmpatrol.model import ModelError

# Two signals, fractional probabilities and a non-target vertex.
BASE = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
    "targets": [
        {"id": "a", "value": 0.5, "deadline": 2},
        {"id": "b", "value": 1.0, "deadline": 1},
        {"id": "d", "value": 0.25, "deadline": 3},
    ],
    "signals": [
        {"id": "s0", "probs": {"a": 0.5, "b": 1.0}},
        {"id": "s1", "probs": {"a": 0.5, "d": 1.0}},
    ],
}

IDS = st.sampled_from(["a", "b", "c", "d", "e", "s0", ""])
KEYS = st.sampled_from(["id", "value", "deadline", "probs", "manifest"]) | IDS
# Type-preserving replacements, which often still parse.
SIMILAR = {str: IDS, int: st.integers(-1, 4), float: st.floats(0.0, 1.0)}
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    IDS,
    st.text(max_size=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=4,
)


def _nodes(node, path=()):
    """Every (path, node) of a JSON tree, root first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(payload, data):
    """Replace, delete, add to or duplicate in one node of ``payload``."""
    # Seeded, so the picks are uniform: hypothesis's own choices favour the
    # first element, here the root, the vertex list and the first operation.
    pick = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    path, node = pick.choice(list(_nodes(payload)))
    op = pick.choice(["replace", "similar", "delete", "add", "duplicate"])
    if op == "duplicate" and isinstance(node, list) and node:
        node.append(copy.deepcopy(data.draw(st.sampled_from(node))))
    elif op == "add" and isinstance(node, dict):
        node[data.draw(KEYS)] = data.draw(VALUES)
    elif not path:
        return data.draw(VALUES)
    else:
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if op == "delete":
            del parent[path[-1]]
        else:
            kind = SIMILAR.get(type(node), VALUES) if op == "similar" else VALUES
            parent[path[-1]] = data.draw(kind)
    return payload


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_instance_accepts_or_names_the_fault(data):
    # Wrong types, nulls, NaN/Infinity, missing or extra keys and duplicate
    # ids either parse, and then round-trip, or raise the documented errors.
    payload = copy.deepcopy(BASE)
    for _ in range(data.draw(st.integers(1, 3))):
        payload = _mutate(payload, data)
    try:
        setting, alarm = parse_instance(payload)
    except (FileFormatError, ModelError):
        return
    assert parse_instance(instance_to_payload(setting, alarm)) == (setting, alarm)


def test_base_instance_parses():
    setting, alarm = parse_instance(copy.deepcopy(BASE))
    assert setting.n == 4 and len(setting.targets) == 3
    assert alarm.signals == ("s0", "s1")
