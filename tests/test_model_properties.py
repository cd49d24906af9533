"""Property-based tests of model and scenario files and of the emitted program.

A model file mutated from a valid one either loads, saves and predicts, or
raises ModelFormatError (exit 3 in the CLI), never another error. A model
or scenario file of arbitrary bytes, or a saved one with one byte edited,
loads or raises DataError.
The emitted program run by the reference interpreter makes the model's
choice on every point on a hyperplane, with or without a scaler.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import boundary_adjacent_inputs, random_tree
from radiosel.dataset import Scaler
from radiosel.errors import DataError, ModelFormatError
from radiosel.export import ProgramInterpreter, codegen
from radiosel.simulator import ScenarioConfig
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree, from_json, load, to_json

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


def valid_tree(seed: int, depth: int, scaled: bool) -> ObliqueTree:
    rng = np.random.default_rng(seed)
    t = random_tree(rng, depth=depth)
    scaler = Scaler(rng.normal(0, 1, 4), rng.uniform(0.5, 2.0, 4)) if scaled else None
    return ObliqueTree(t.nodes, t.root, scaler=scaler, lam=0.01)


def valid_doc(seed: int, depth: int, scaled: bool) -> dict:
    return json.loads(to_json(valid_tree(seed, depth, scaled)))


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


# The files that the one-edit mutations start from, and the readers of each
SAVED = {"model": to_json(valid_tree(0, 2, True)).encode(),
         "scenario": ScenarioConfig().to_json().encode()}
READERS = {"model": load, "scenario": ScenarioConfig.load}
# bytes that move a JSON text's syntax or numbers, and any byte at all
EDIT_BYTES = st.sampled_from(list(b'0123456789-+.eE[]{}",: ')) | st.integers(0, 255)


@st.composite
def json_file_bytes(draw, saved: bytes):
    """Arbitrary bytes, or saved with one byte deleted, inserted or replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    i, byte = draw(st.integers(0, len(saved) - 1)), bytes([draw(EDIT_BYTES)])
    edit = draw(st.sampled_from([b"", byte + saved[i:i + 1], byte]))
    return saved[:i] + edit + saved[i + 1:]


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_json_file_loads_or_raises_data_error(tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"fuzzed.{kind}.json"
    path.write_bytes(data.draw(json_file_bytes(SAVED[kind])))
    try:
        READERS[kind](path)
    except DataError:
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
