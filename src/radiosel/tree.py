"""Oblique decision tree model: topology, routing, pruning, persistence.

Nodes live in an arena keyed by integer id; ids survive save/load so trees
can be diffed across retrainings. Trees are immutable after training by
convention: only the trainer mutates node parameters, single-writer. A
tree's shape is fixed once built (prune rewires a copy, then builds a new
tree), so one structure walk, `validate`, checks it and records every
node's depth, and node_depths and depth read that record.

One kernel, `scores`, and one walk route every row: predict, predict_many,
training (reach_sets, subtree_predict, predict_model) and the accept test
(solver.weighted_01_loss) agree on every input, hyperplane points included,
and so does the emitted program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RadioClass, Scaler, read_text, typed_like
from .errors import DataError, ModelFormatError

MODEL_FORMAT_VERSION = 1
# The random init is a complete tree of 2**depth - 1 decision nodes, and
# codegen and prune recurse once per level
MAX_DEPTH = 12


@dataclass
class DecisionNode:
    """Hyperplane test w.x + w0; negative routes left, else right."""

    w: np.ndarray
    w0: float
    left: int
    right: int

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.w0 = float(self.w0)


@dataclass
class LeafNode:
    label: int  # 0 = Zigbee, 1 = Lora

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"leaf label must be 0 or 1, got {self.label}")


def scores(w: np.ndarray, w0: float, X: np.ndarray) -> np.ndarray:
    """Hyperplane scores w.x + w0 of the rows of X: the canonical kernel.

    Accumulates the nonzero-weight terms left to right from 0, constant
    last, one elementwise IEEE operation per step: each row gets exactly the
    arithmetic of the emitted IF/ELSE program, whatever the row subset or
    memory layout of X (a BLAS matrix-vector product guarantees neither).
    Overflow to ±inf and inf - inf = nan are silent: the walk routes them
    as IEEE comparisons say.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s, term = np.zeros(X.shape[0]), np.empty(X.shape[0])
        for j in np.flatnonzero(w):
            s += np.multiply(w[j], X[:, j], out=term)
        s += w0
        return s


class ObliqueTree:
    """Fixed-topology binary tree of hyperplane nodes and constant leaves."""

    def __init__(self, nodes: dict, root: int, scaler: Scaler | None = None,
                 lam: float | None = None):
        self.nodes = nodes
        self.root = root
        self.scaler = scaler
        self.lam = lam
        self.validate()

    # ---------- structure ----------

    def validate(self) -> None:
        """Proper binary tree: two children per decision node, no cycle or
        shared child, every arena node reachable. The tree's one structure
        walk, O(#nodes): it records each node's depth as the node is pushed,
        and that record, kept for node_depths and depth, is also the
        seen-set and the reachability check."""
        if self.root not in self.nodes:
            raise ModelFormatError(f"root id {self.root} not in arena")
        dim, depths, stack = None, {self.root: 0}, [self.root]
        while stack:
            nid = stack.pop()
            node = self.nodes.get(nid)
            if node is None:
                raise ModelFormatError(f"dangling child id {nid}")
            if isinstance(node, DecisionNode):
                if node.w.ndim != 1:
                    raise ModelFormatError(f"node {nid}: weights must be a flat list")
                if not np.all(np.isfinite(node.w)) or not np.isfinite(node.w0):
                    raise ModelFormatError(f"node {nid}: non-finite parameters")
                if dim is None:
                    dim = node.w.shape[0]
                elif node.w.shape[0] != dim:
                    raise ModelFormatError(f"node {nid}: weight length {node.w.shape[0]} != {dim}")
                for child in (node.left, node.right):
                    if child in depths:
                        raise ModelFormatError(f"node {child} reached twice: "
                                               "cycle or shared child")
                    depths[child] = depths[nid] + 1
                    stack.append(child)
        if unreachable := sorted(self.nodes.keys() - depths.keys()):
            raise ModelFormatError(f"unreachable nodes in arena: {unreachable}")
        if self.scaler is not None and dim is not None and self.scaler.mean.shape[0] != dim:
            raise ModelFormatError(f"scaler has {self.scaler.mean.shape[0]} features, "
                                   f"hyperplanes have {dim}")
        self._dim, self._depths = dim, depths

    @property
    def dim(self) -> int | None:
        return self._dim

    def decision_ids(self) -> list[int]:
        return sorted(i for i, n in self.nodes.items() if isinstance(n, DecisionNode))

    def leaf_ids(self) -> list[int]:
        return sorted(i for i, n in self.nodes.items() if isinstance(n, LeafNode))

    def n_leaves(self) -> int:
        return len(self.leaf_ids())

    def node_depths(self) -> dict[int, int]:
        """Each node's depth, root 0, in the order validate reached them."""
        return dict(self._depths)

    @property
    def depth(self) -> int:
        return max(self._depths.values())

    def copy(self) -> "ObliqueTree":
        nodes = {}
        for i, n in self.nodes.items():
            if isinstance(n, DecisionNode):
                nodes[i] = DecisionNode(n.w.copy(), n.w0, n.left, n.right)
            else:
                nodes[i] = LeafNode(n.label)
        return ObliqueTree(nodes, self.root, scaler=self.scaler, lam=self.lam)

    def l1_penalty(self) -> float:
        """Sum of |w| over decision nodes, accumulated in id order."""
        return float(sum(np.sum(np.abs(self.nodes[i].w)) for i in self.decision_ids()))

    # ---------- prediction ----------

    def predict(self, x) -> int:
        """Label for one raw feature vector (scaled internally if a scaler
        is attached): the walk of predict_many on a one-row matrix."""
        x = np.asarray(x, dtype=float)
        if self._dim is not None and x.shape != (self._dim,):
            raise DataError(f"feature vector has shape {x.shape}, tree expects ({self._dim},)")
        return int(self._labels(self.root, self._scale(x.reshape(1, -1)))[0])

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """Vectorized predictions for raw feature rows."""
        return self.predict_model(self._scale(np.asarray(X, dtype=float)))

    def _scale(self, X: np.ndarray) -> np.ndarray:
        """Raw rows to model space. A leaf-only model has no hyperplane to
        fix the feature count, so the scaler's width is checked here."""
        if self.scaler is None:
            return X
        width = self.scaler.mean.shape[0]
        if X.shape[-1] != width:
            raise DataError(f"input has {X.shape[-1]} features, model scaler has {width}")
        return self.scaler.transform(X)

    def predict_model(self, X: np.ndarray) -> np.ndarray:
        """Vectorized predictions for model-space rows (no scaler applied)."""
        X = np.asarray(X, dtype=float)
        if self._dim is not None and X.shape[1] != self._dim:
            raise DataError(f"feature matrix has {X.shape[1]} columns, tree expects {self._dim}")
        return self._labels(self.root, X)

    def reach_sets(self, X: np.ndarray) -> dict[int, np.ndarray]:
        """Per-node index arrays of the model-space rows that reach each node."""
        reach = dict(self._walk(self.root, np.asarray(X, dtype=float)))
        return {nid: reach.get(nid, np.arange(0)) for nid in self.nodes}

    def subtree_predict(self, nid: int, X: np.ndarray) -> np.ndarray:
        """Predictions of the subtree rooted at nid for model-space rows."""
        return self._labels(nid, np.asarray(X, dtype=float))

    def _walk(self, nid: int, X: np.ndarray):
        """(node id, indices of the rows of X reaching it) for each node of the
        subtree at nid, parents first, routed by `scores` (score < 0 goes left).
        An empty set is not routed on; only the sets still to visit are kept."""
        stack = [(nid, np.arange(X.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            yield nid, idx
            node = self.nodes[nid]
            if isinstance(node, DecisionNode) and idx.size:
                # a set of all n rows is arange(n) (sets keep row order), so
                # it is scored on X itself, without a gathered copy
                rows = X if idx.size == X.shape[0] else X[idx]
                left = scores(node.w, node.w0, rows) < 0
                stack += [(node.right, idx[~left]), (node.left, idx[left])]

    def _labels(self, nid: int, X: np.ndarray) -> np.ndarray:
        """Labels of the rows of X, written at each leaf as the walk reaches it."""
        out = np.empty(X.shape[0], dtype=int)
        for i, idx in self._walk(nid, X):
            if isinstance(self.nodes[i], LeafNode):
                out[idx] = self.nodes[i].label
        return out

    # ---------- transforms ----------

    def structural_signature(self) -> str:
        """Weight-independent skeleton: leaf letters, children parenthesized."""
        return self._sig(self.root)

    def _sig(self, nid: int) -> str:
        node = self.nodes[nid]
        if isinstance(node, LeafNode):
            return RadioClass(node.label).name[0]
        return "(" + self._sig(node.left) + self._sig(node.right) + ")"


def prune(tree: ObliqueTree) -> ObliqueTree:
    """Collapse all-zero hyperplanes into the child selected by sign(w0).

    One pass from the root: an all-zero node resolves to what its selected
    child resolves to. Predictions are unchanged on every input; surviving
    nodes keep their ids and arena order.
    """
    nodes, kept = tree.copy().nodes, set()

    def resolve(nid: int) -> int:
        node = nodes[nid]
        if isinstance(node, DecisionNode):
            if not np.any(node.w != 0.0):
                return resolve(node.left if node.w0 < 0 else node.right)
            node.left, node.right = resolve(node.left), resolve(node.right)
        kept.add(nid)
        return nid

    root = resolve(tree.root)
    return ObliqueTree({i: n for i, n in nodes.items() if i in kept}, root,
                       scaler=tree.scaler, lam=tree.lam)


def _tree_to_dict(tree: ObliqueTree) -> dict:
    nodes = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if isinstance(node, DecisionNode):
            nodes.append({"id": nid, "kind": "decision", "w": [float(v) for v in node.w],
                          "w0": float(node.w0), "left": node.left, "right": node.right})
        else:
            nodes.append({"id": nid, "kind": "leaf", "label": int(node.label)})
    return {
        "version": MODEL_FORMAT_VERSION,
        "depth": tree.depth,
        "lambda": tree.lam,
        "scaler": tree.scaler.to_dict() if tree.scaler is not None else None,
        "root": tree.root,
        "nodes": nodes,
    }


def to_json(tree: ObliqueTree) -> str:
    """Canonical JSON text: save -> load -> save is byte-identical."""
    return json.dumps(_tree_to_dict(tree), indent=2, sort_keys=True) + "\n"


def save(tree: ObliqueTree, path) -> None:
    Path(path).write_text(to_json(tree), encoding="utf-8", newline="\n")


def from_json(text: str) -> ObliqueTree:
    """A model file's tree, its fields typed by dataset.typed_like."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:   # a JSONDecodeError is a ValueError
        raise ModelFormatError(f"model file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")

    def typed(entry: dict, key: str, default, field: str | None = None):
        return typed_like(field or f"malformed model field {key!r}", entry.get(key), default,
                          ModelFormatError)

    version = typed(doc, "version", MODEL_FORMAT_VERSION)
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}, "
                               f"expected {MODEL_FORMAT_VERSION}")
    if not isinstance(doc.get("nodes"), list) or not doc["nodes"]:
        raise ModelFormatError("model file 'nodes' must be a nonempty list")
    nodes: dict[int, DecisionNode | LeafNode] = {}
    for k, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"node entry {k} must be an object, got {entry!r}")
        nid = typed(entry, "id", 0, f"node entry {k}: id")
        if nid in nodes:
            raise ModelFormatError(f"duplicate node id {nid}")
        kind = entry.get("kind")
        if kind == "decision":
            nodes[nid] = DecisionNode(np.array(typed(entry, "w", (0.0,), f"node {nid}: weights")),
                                      typed(entry, "w0", 0.0, f"node {nid}: w0"),
                                      typed(entry, "left", 0, f"node {nid}: left"),
                                      typed(entry, "right", 0, f"node {nid}: right"))
        elif kind == "leaf":
            label = typed(entry, "label", 0, f"node {nid}: label")
            if label not in (0, 1):
                raise ModelFormatError(f"node {nid}: label must be 0 or 1, got {label}")
            nodes[nid] = LeafNode(label)
        else:
            raise ModelFormatError(f"node {nid}: unknown kind {kind!r}")
    lam, scaler = doc.get("lambda"), doc.get("scaler")
    tree = ObliqueTree(nodes, typed(doc, "root", 0),
                       lam=lam if lam is None else typed(doc, "lambda", 0.0),
                       scaler=scaler if scaler is None else Scaler.from_dict(scaler))
    if (depth := tree.depth) > MAX_DEPTH:
        raise ModelFormatError(f"model depth must be <= {MAX_DEPTH}, got {depth}")
    return tree


def load(path) -> ObliqueTree:
    return from_json(read_text(path, "model", ModelFormatError))
