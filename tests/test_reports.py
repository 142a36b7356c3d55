"""Tests for report serialization.

``write_json_report`` writes its text in one walk of the payload; the
reference is the text it replaced, ``json.dumps(sanitize(payload),
sort_keys=True, indent=2, allow_nan=False)``, compared byte for byte on
random nested payloads from ``hypothesis``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab.reports import format_cell, sanitize, write_json_report


def reference_json_text(payload):
    return json.dumps(sanitize(payload), sort_keys=True, indent=2, allow_nan=False)


def written_bytes(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("report") / "out.json"
    write_json_report(path, payload)
    return path.read_bytes()


ODD_STRINGS = ["é", "\x00\x1f\x7f", " \ud800", "\U0001f600", '"\\/', "\t\n\r"]

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2 ** 70), 2 ** 70),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.floats().map(np.float64), st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.text(max_size=6), st.sampled_from(ODD_STRINGS))
# int keys and the strings they become, so that keys collide after str()
keys = st.one_of(st.integers(-3, 3), st.sampled_from(["-3", "0", "1", "3", "a", "é"]),
                 st.text(max_size=3))
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(keys, children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(payloads)
@example({1: "int", "1": "str", 0: [], "0": {}})
@example({"1": "str", 1: ("int", -0.0, np.float64("nan"), np.bool_(False))})
@example([{}, [], (), {"": [[]]}])
def test_the_writer_bytes_equal_the_json_module(tmp_path_factory, payload):
    assert written_bytes(tmp_path_factory, payload) == \
        (reference_json_text(payload) + "\n").encode("utf-8")


def test_colliding_keys_keep_the_last_value(tmp_path_factory):
    payload = {1: "int", "1": "str", "2": "str", 2: "int"}
    assert json.loads(written_bytes(tmp_path_factory, payload)) == {"1": "str", "2": "int"}


@pytest.mark.parametrize("leaf", [{1, 2}, frozenset(), b"bytes", 1j, object()])
def test_an_unsupported_leaf_raises_type_error(tmp_path_factory, leaf):
    with pytest.raises(TypeError):
        reference_json_text({"a": [leaf]})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        written_bytes(tmp_path_factory, {"a": [leaf]})


@pytest.mark.parametrize("value, text", [
    (np.float64(0.5), "0.5"), (np.bool_(True), "true"), (np.bool_(False), "false"),
    (np.int64(-3), "-3"), (np.float64("inf"), "inf"), (np.float64("nan"), "nan"),
    (0.1, "0.1"), (-0.0, "-0.0"), (-math.inf, "-inf"), (True, "true"), (7, "7"),
    (None, "None"), ("text", "text")])
def test_a_csv_cell_follows_the_json_leaf_rule(value, text):
    assert format_cell(value) == text
    # a number or bool is the JSON text; a non-finite float the string JSON holds
    if not isinstance(value, str) and value is not None:
        leaf = sanitize(value)
        assert text == (leaf if isinstance(leaf, str) else json.dumps(leaf))
