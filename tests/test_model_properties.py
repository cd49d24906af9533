"""Property-based tests of model files and of the emitted program.

A model file mutated from a valid one either loads, saves and predicts, or
raises ModelFormatError (exit 3 in the CLI), never another error.
The emitted program run by the reference interpreter makes the model's
choice on every point on a hyperplane, with or without a scaler.
"""

import json

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import boundary_adjacent_inputs, random_tree
from radiosel.dataset import Scaler
from radiosel.errors import ModelFormatError
from radiosel.export import ProgramInterpreter, codegen
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree, from_json, to_json

# Derandomized, so a failing example repeats on every run; shrinking is off,
# as in test_csv_properties.py.
SETTINGS = settings(deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate),
                    suppress_health_check=[HealthCheck.too_slow])

EXTREME = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -0.0, 10 ** 30])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "kind", "w", "w0", "left", "right",
                                       "label", "mean", "std", "x"]), inner, max_size=3),
    max_leaves=6)


def valid_doc(seed: int, depth: int, scaled: bool) -> dict:
    rng = np.random.default_rng(seed)
    t = random_tree(rng, depth=depth)
    scaler = Scaler(rng.normal(0, 1, 4), rng.uniform(0.5, 2.0, 4)) if scaled else None
    return json.loads(to_json(ObliqueTree(t.nodes, t.root, scaler=scaler, lam=0.01)))


def fields(value, out):
    """(container, key) of every field inside a JSON value, nested ones too."""
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            out.append((value, key))
            fields(child, out)
    return out


@st.composite
def mutated_docs(draw):
    # a one-node model has the fewest cross-checks, so it comes up most often
    depth = draw(st.sampled_from([1, 1, 2, 3]))
    doc = valid_doc(draw(st.integers(0, 3)), depth, draw(st.booleans()))
    for _ in range(draw(st.integers(1, 3))):
        target, key = draw(st.sampled_from(fields(doc, [])))
        action = draw(st.sampled_from(["replace", "extreme", "delete", "nest"]))
        if action == "delete":
            del target[key]
        elif action == "nest":
            target[key] = [target[key], target[key]]   # e.g. 1-d weights to 2-d
        else:
            target[key] = draw(EXTREME if action == "extreme" else JSON_VALUES)
    return json.dumps(doc)


@settings(SETTINGS, max_examples=800)
@given(mutated_docs())
def test_mutated_model_loads_or_raises_format_error(text):
    try:
        t = from_json(text)
        saved = to_json(t)
        assert to_json(from_json(saved)) == saved
        width = t.dim if t.dim is not None else (t.scaler.mean.shape[0] if t.scaler else 4)
        X = np.random.default_rng(0).normal(0, 2, size=(20, width))
        assert t.predict_many(X).tolist() == [t.predict(x) for x in X]
    except ModelFormatError:
        pass


MAGNITUDES = st.floats(min_value=-6.0, max_value=6.0)


@st.composite
def raw_feature_trees(draw):
    """Complete trees without a scaler; weights are zero or +-10**k, k in [-6, 6]."""
    depth = draw(st.integers(1, 3))
    n_dec = 2 ** depth - 1

    def coefficient():
        if draw(st.integers(0, 3)) == 0:
            return 0.0
        return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(MAGNITUDES)

    nodes = {}
    for nid in range(n_dec):
        w = np.array([coefficient() for _ in range(4)])
        if not np.any(w):
            w[draw(st.integers(0, 3))] = 10.0 ** draw(MAGNITUDES)
        nodes[nid] = DecisionNode(w, coefficient(), 2 * nid + 1, 2 * nid + 2)
    for i in range(2 ** depth):
        nodes[n_dec + i] = LeafNode(draw(st.integers(0, 1)))
    return ObliqueTree(nodes, 0)


@settings(SETTINGS, max_examples=150)
@given(raw_feature_trees(), st.integers(0, 2 ** 32 - 1))
def test_program_matches_model_on_hyperplanes(t, seed):
    interp = ProgramInterpreter(codegen(t).text)
    X = boundary_adjacent_inputs(t, np.random.default_rng(seed), per_node=10, eps_rel=0.0)
    expected = [interp.predict(x) for x in X]
    assert t.predict_many(X).tolist() == expected
    assert [t.predict(x) for x in X] == expected


@st.composite
def scaled_trees(draw):
    """raw_feature_trees plus a scaler whose means and stds span 12 decades."""
    t = draw(raw_feature_trees())
    mean = [draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(MAGNITUDES) for _ in range(4)]
    std = [10.0 ** draw(MAGNITUDES) for _ in range(4)]
    return ObliqueTree(t.nodes, t.root, scaler=Scaler(np.array(mean), np.array(std)))


@settings(SETTINGS, max_examples=150)
@given(scaled_trees(), st.integers(0, 2 ** 32 - 1))
def test_scaled_program_matches_model_on_hyperplanes(t, seed):
    # on-plane in model space, fed to the program and the model as raw features
    Z = boundary_adjacent_inputs(t, np.random.default_rng(seed), per_node=10, eps_rel=0.0)
    X = t.scaler.inverse(Z)
    interp = ProgramInterpreter(codegen(t).text)
    expected = [interp.predict(x) for x in X]
    assert t.predict_many(X).tolist() == expected
    assert [t.predict(x) for x in X] == expected
