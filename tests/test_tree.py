import json

import numpy as np
import pytest

from conftest import boundary_adjacent_inputs, child, leaf_tree, random_tree, stump
from radiosel.dataset import Scaler
from radiosel.errors import DataError, ModelFormatError
from radiosel.tree import (DecisionNode, LeafNode, ObliqueTree, from_json,
                           load, prune, save, to_json)


class TestRoute:
    """Routing at one hyperplane, through predict on a one-decision tree
    (left leaf 0, right leaf 1)."""

    def test_sparse_node_from_field_tree(self):
        # hyperplane with only the hop-count weight active
        t = stump([1.415681867042, 0.0, 0.0, 0.0], 0.143560158843, 0, 1)
        x = np.array([1.0, -120.0, 0.3, 4.0])
        # 1.415681867042*1 + 0.143560158843 = 1.559242... > 0
        assert t.predict(x) == 1

    def test_zero_weights_negative_bias_always_left(self, rng):
        t = stump(np.zeros(4), -1.0, 0, 1)
        for _ in range(20):
            assert t.predict(rng.normal(0, 10, 4)) == 0

    def test_positive_scaling_preserves_side(self, rng):
        for _ in range(50):
            w = rng.normal(0, 1, 4)
            w0 = float(rng.normal(0, 1))
            x = rng.normal(0, 1, 4)
            if np.dot(w, x) + w0 == 0:
                continue
            a = stump(w, w0, 0, 1).predict(x)
            b = stump(2 * w, 2 * w0, 0, 1).predict(x)
            assert a == b

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            stump(np.ones(4), 0.0, 0, 1).predict(np.ones(3))

    def test_zero_routes_right(self):
        assert stump([1.0, 0, 0, 0], 0.0, 0, 1).predict(np.zeros(4)) == 1


class TestPredict:
    def test_single_leaf(self, rng):
        t = leaf_tree(1)
        for _ in range(5):
            assert t.predict(rng.normal(0, 5, 4)) == 1

    def test_depth_one_sign_rule(self):
        t = stump([1.0, 0, 0, 0], -2.0, left_label=0, right_label=1)
        assert t.predict([1.0, 0, 0, 0]) == 0
        assert t.predict([3.0, 0, 0, 0]) == 1

    def test_matches_manual_traversal(self, rng):
        t = random_tree(rng, depth=3)
        for _ in range(1000):
            x = rng.normal(0, 2, 4)
            nid = t.root
            while isinstance(t.nodes[nid], DecisionNode):
                nid = child(t.nodes[nid], x)
            assert t.predict(x) == t.nodes[nid].label

    def test_batch_agrees_with_scalar(self, rng):
        for _ in range(5):
            t = random_tree(rng, depth=3)
            # random rows, then rows on each hyperplane (score 0 up to rounding)
            X = np.vstack([rng.normal(0, 2, size=(500, 4)),
                           boundary_adjacent_inputs(t, rng, per_node=100, eps_rel=0.0)])
            batch = t.predict_model(X)
            assert [t.predict(x) for x in X] == batch.tolist()
            reach = t.reach_sets(X)
            held = np.concatenate([reach[nid] for nid in t.leaf_ids()])
            assert sorted(held.tolist()) == list(range(len(X)))
            for nid in t.leaf_ids():
                assert np.all(batch[reach[nid]] == t.nodes[nid].label)

    def test_scaler_applied_to_raw_input(self):
        scaler = Scaler(np.array([2.0, 0, 0, 0]), np.array([2.0, 1, 1, 1]))
        t = ObliqueTree({0: DecisionNode(np.array([1.0, 0, 0, 0]), 0.0, 1, 2),
                         1: LeafNode(0), 2: LeafNode(1)}, 0, scaler=scaler)
        # raw hn=1 -> scaled -0.5 -> left; raw hn=4 -> scaled 1.0 -> right
        assert t.predict([1.0, 0, 0, 0]) == 0
        assert t.predict([4.0, 0, 0, 0]) == 1


class TestValidate:
    def test_dangling_child(self):
        with pytest.raises(ModelFormatError, match="dangling"):
            ObliqueTree({0: DecisionNode(np.ones(4), 0.0, 1, 2), 1: LeafNode(0)}, 0)

    def test_shared_child(self):
        nodes = {0: DecisionNode(np.ones(4), 0.0, 1, 1), 1: LeafNode(0)}
        with pytest.raises(ModelFormatError):
            ObliqueTree(nodes, 0)

    def test_unreachable_node(self):
        nodes = {0: LeafNode(0), 5: LeafNode(1)}
        with pytest.raises(ModelFormatError, match="unreachable"):
            ObliqueTree(nodes, 0)

    def test_bad_root(self):
        with pytest.raises(ModelFormatError, match="root"):
            ObliqueTree({0: LeafNode(0)}, 3)


class TestPrune:
    def test_always_left_root_collapses(self):
        t = stump([0.0, 0, 0, 0], -1.0, left_label=0, right_label=1)
        p = prune(t)
        assert p.n_leaves() == 1
        assert p.nodes[p.root].label == 0

    def test_zero_bias_routes_right(self):
        t = stump([0.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        p = prune(t)
        assert p.nodes[p.root].label == 1

    def test_no_zero_nodes_unchanged(self, rng):
        t = random_tree(rng, depth=2)
        p = prune(t)
        assert to_json(p) == to_json(t)

    def test_predictions_preserved(self, rng):
        for trial in range(20):
            t = random_tree(rng, depth=3, zero_prob=0.4)
            p = prune(t)
            X = rng.normal(0, 2, size=(500, 4))
            assert np.array_equal(t.predict_model(X), p.predict_model(X))
            assert not any(not np.any(p.nodes[i].w != 0) for i in p.decision_ids())

    def test_nested_zero_nodes_fixpoint(self):
        # root zero -> right child zero -> right grandchild leaf
        nodes = {
            0: DecisionNode(np.zeros(4), 1.0, 1, 2),
            1: LeafNode(0),
            2: DecisionNode(np.zeros(4), 5.0, 3, 4),
            3: LeafNode(0),
            4: LeafNode(1),
        }
        p = prune(ObliqueTree(nodes, 0))
        assert p.n_leaves() == 1
        assert p.nodes[p.root].label == 1

    def test_zero_chain_from_root_keeps_ids_and_arena_order(self):
        # root 0 -> 1 (w0 < 0 goes left) -> 4 (w0 = 0 goes right) -> 6, a
        # real hyperplane whose right child 8 is zero again and resolves to 9
        zero = np.zeros(4)
        nodes = {0: DecisionNode(zero, -1.0, 1, 2), 2: LeafNode(1),
                 1: DecisionNode(zero, 0.0, 3, 4), 3: LeafNode(0),
                 4: DecisionNode(zero, 2.0, 5, 6), 5: LeafNode(1),
                 6: DecisionNode(np.array([1.0, 0, 0, 0]), 0.5, 7, 8),
                 9: LeafNode(1), 8: DecisionNode(zero, -3.0, 9, 10),
                 7: LeafNode(0), 10: LeafNode(0)}
        t = ObliqueTree(nodes, 0)
        p = prune(t)
        assert p.root == 6 and list(p.nodes) == [6, 9, 7]
        expected = ObliqueTree({6: DecisionNode(np.array([1.0, 0, 0, 0]), 0.5, 7, 9),
                                7: LeafNode(0), 9: LeafNode(1)}, 6)
        assert to_json(p) == to_json(expected)
        X = np.random.default_rng(0).normal(0, 2, size=(200, 4))
        assert np.array_equal(t.predict_model(X), p.predict_model(X))


class TestPersistence:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        t = random_tree(rng, depth=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save(t, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_predicts_identically(self, tmp_path, rng):
        t = random_tree(rng, depth=3)
        path = tmp_path / "m.json"
        save(t, path)
        t2 = load(path)
        X = rng.normal(0, 3, size=(10_000, 4))
        assert np.array_equal(t.predict_model(X), t2.predict_model(X))

    def test_truncated_file(self, tmp_path, rng):
        t = random_tree(rng, depth=2)
        path = tmp_path / "m.json"
        save(t, path)
        path.write_text(path.read_text()[:50])
        with pytest.raises(ModelFormatError):
            load(path)

    def test_version_mismatch(self, rng):
        t = random_tree(rng, depth=1)
        text = to_json(t).replace('"version": 1', '"version": 99')
        with pytest.raises(ModelFormatError, match="version"):
            from_json(text)

    def test_scaler_and_lambda_persisted(self, tmp_path, rng):
        scaler = Scaler(np.array([1.0, 2, 3, 4]), np.array([1.0, 1, 2, 2]))
        t = random_tree(rng, depth=2)
        t2 = ObliqueTree(t.nodes, t.root, scaler=scaler, lam=0.01)
        path = tmp_path / "m.json"
        save(t2, path)
        back = load(path)
        assert back.lam == 0.01
        assert np.array_equal(back.scaler.mean, scaler.mean)
        assert np.array_equal(back.scaler.std, scaler.std)

    def test_hand_written_integer_weights_and_null_lambda(self):
        """JSON integers are numbers: they load as the floats they equal."""
        t = from_json(json.dumps({"version": 1, "root": 0, "lambda": None, "nodes": [
            {"id": 0, "kind": "decision", "w": [1, 0, -2, 0], "w0": 3, "left": 1, "right": 2},
            {"id": 1, "kind": "leaf", "label": 0}, {"id": 2, "kind": "leaf", "label": 1}]}))
        assert t.lam is None and t.scaler is None
        assert to_json(t) == to_json(ObliqueTree({0: DecisionNode(np.array([1.0, 0.0, -2.0, 0.0]),
                                                                  3.0, 1, 2),
                                                  1: LeafNode(0), 2: LeafNode(1)}, 0))

    @pytest.mark.parametrize("label", [2, -1])
    def test_leaf_label_out_of_range_is_a_format_error(self, label):
        """A leaf label that is an integer but not 0 or 1 is a malformed
        model file, named by its node, like every other bad field."""
        text = json.dumps({"version": 1, "root": 0, "nodes": [
            {"id": 0, "kind": "decision", "w": [1, 0, 0, 0], "w0": 0, "left": 1, "right": 3},
            {"id": 1, "kind": "leaf", "label": 0}, {"id": 3, "kind": "leaf", "label": label}]})
        with pytest.raises(ModelFormatError,
                           match=f"^node 3: label must be 0 or 1, got {label}$"):
            from_json(text)

    def test_ids_stable(self, tmp_path, rng):
        t = random_tree(rng, depth=2)
        path = tmp_path / "m.json"
        save(t, path)
        assert sorted(load(path).nodes) == sorted(t.nodes)


class TestSignature:
    def test_single_leaf(self):
        assert leaf_tree(0).structural_signature() == "Z"
        assert leaf_tree(1).structural_signature() == "L"

    def test_weight_independent(self, rng):
        t = random_tree(rng, depth=3)
        t2 = t.copy()
        for nid in t2.decision_ids():
            t2.nodes[nid].w = t2.nodes[nid].w + rng.normal(0, 0.1, 4)
            t2.nodes[nid].w0 += 0.5
        assert t.structural_signature() == t2.structural_signature()

    def test_shape_encoded(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=1, right_label=0)
        assert t.structural_signature() == "(LZ)"
