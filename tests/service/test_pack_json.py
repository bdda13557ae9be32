"""``pack_json`` splices base64 into a rendered envelope; the bytes must be
those of rendering the base64 text in place, for any body.

Base64's alphabet needs no JSON escaping, so joining each value's base64
in at a placeholder's mark is byte-for-byte ``json.dumps`` with the text
substituted.  A body whose own strings or keys render the mark takes the
plain ``json.dumps`` path.
"""

import base64
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import pack_json

PLACEHOLDER = protocol._SPLICE


def reference(body):
    def as_text(value):
        if isinstance(value, (bytes, bytearray, memoryview)):
            return base64.b64encode(value).decode("ascii")
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    return json.dumps(body, separators=(",", ":"), default=as_text).encode()


binaries = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(bytearray),
    st.binary(max_size=64).map(memoryview),
)
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from([PLACEHOLDER, "x" + PLACEHOLDER, PLACEHOLDER + '"',
                     "\\" + json.dumps(PLACEHOLDER)[2:-1], "é☃\U0001f600"]),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), texts, binaries)
bodies = st.dictionaries(
    texts,
    st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4)), max_leaves=12),
    max_size=6)


@settings(max_examples=400, deadline=None)
@given(body=bodies)
def test_any_body_renders_as_json_dumps_does(body):
    assert pack_json(body) == reference(body)


@pytest.mark.parametrize("body", [
    {"signature": b""},
    {"messages": [b"", b"\x00", bytearray(b"ab"), memoryview(b"abc")]},
    {"text": "café ☃", "signature": b"\xff" * 17},
    {PLACEHOLDER: b"key renders the mark"},
    {"value": PLACEHOLDER, "signature": b"value renders the mark"},
    {"nested": [{"a": [PLACEHOLDER]}], "signature": memoryview(b"x")},
])
def test_edge_bodies_render_as_json_dumps_does(body):
    assert pack_json(body) == reference(body)


def test_a_body_rendering_the_mark_takes_the_plain_path(monkeypatch):
    plain, marked = {"signature": b"abc"}, {"note": PLACEHOLDER,
                                            "signature": b"abc"}
    expected = reference(plain), reference(marked)
    dumps, defaults = json.dumps, []

    def counting(*args, **kwargs):
        defaults.append(kwargs.get("default"))
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    assert pack_json(plain) == expected[0] and len(defaults) == 1
    assert pack_json(marked) == expected[1] and len(defaults) == 3
    assert defaults[-1] is protocol.pack_bytes


def test_non_binary_objects_are_still_refused():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        pack_json({"bad": {1, 2}})
