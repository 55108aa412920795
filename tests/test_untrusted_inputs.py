"""Untrusted inputs give a result or an AfscreenError, never another
exception: any JSON document handed to load_model, any text handed to
parse_rr_csv."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from afscreen.errors import AfscreenError
from afscreen.forest import ForestModel, load_model, predict_proba_many, \
    save_model
from afscreen.record_io import parse_rr_csv

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)

# tree nodes that are mostly well formed, so generated models get past
# the header checks and into the node checks
NODES = st.recursive(
    st.fixed_dictionaries(
        {"leaf": st.lists(st.integers(0, 3), min_size=2, max_size=2)
         | JSON}),
    lambda inner: st.fixed_dictionaries(
        {"f": st.integers(-2, 10) | JSON, "thr": st.floats() | JSON,
         "l": inner, "r": inner}),
    max_leaves=4)

HEADER = json.loads(save_model(ForestModel(
    trees=[{"leaf": [1, 0]}], n_estimators=1, max_depth=1, seed=0)))


def loads_or_refuses(document: str) -> None:
    try:
        model = load_model(document)
    except AfscreenError:
        return
    # a model that loads must be one predict can evaluate
    proba = predict_proba_many(model, np.zeros((3, 9)))
    assert np.all((proba >= 0.0) & (proba <= 1.0))


@settings(max_examples=100, deadline=None)
@given(JSON)
def test_load_model_on_any_json(doc):
    loads_or_refuses(json.dumps(doc))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([*HEADER, "extra"]), JSON,
                       max_size=2),
       st.lists(NODES, min_size=1, max_size=2) | JSON)
def test_load_model_on_any_model_like_json(overrides, trees):
    loads_or_refuses(json.dumps({**HEADER, "trees": trees, **overrides}))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789.,-+eE \n\tAFNOTHRinfa#x")
       | st.text())
def test_parse_rr_csv_on_any_text(text):
    try:
        parse_rr_csv(text)
    except AfscreenError:
        pass
