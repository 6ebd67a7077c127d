"""The JSON boundary under fuzzing.

A valid params, message or word document at (3,3,3) gets one field or one
element, at any depth and the root included, replaced by an arbitrary JSON
value.  Loading it must either succeed or raise a HermrankError; any other
exception is an internal message leaking to the user.  Integers are drawn
from a small range, so a replaced q or n never starts a slow modulus scan.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from hermrank import params_to_json_obj
from hermrank.code import params_from_json_obj
from hermrank.codec import (
    message_from_json_obj,
    message_to_json_obj,
    random_message,
    word_from_json_obj,
    word_to_json_obj,
)
from hermrank.exceptions import HermrankError
from hermrank.rng import SplitMix64

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    """The path of obj itself and of every field and element inside it."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield from _paths(val, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_hermrank_errors(params_for, data):
    p = params_for(3, 3, 3)
    docs = {
        "params": (params_to_json_obj(p), params_from_json_obj),
        "message": (message_to_json_obj(p, random_message(p, SplitMix64(5))),
                    lambda obj: message_from_json_obj(p, obj)),
        "word": (word_to_json_obj(p, p.alpha), lambda obj: word_from_json_obj(p, obj)),
    }
    doc, load = docs[data.draw(st.sampled_from(sorted(docs)))]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    bad = _replaced(doc, path, data.draw(JSON_VALUES))
    try:
        load(bad)
    except HermrankError:
        pass
