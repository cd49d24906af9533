"""Deployment artifacts: IF/ELSE decision programs and weight reports.

The emitted program consumes RAW sensor features. For a model with a
scaler it opens with one line `z_hn = (hn - mean) / std;` per feature and
its conditions use the node's own weights over the `z_` names, so each row
takes the model's IEEE operations (Scaler.transform, then tree.scores).
Numerals are shortest round-trip decimals, so re-parsing recovers the exact
values.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .dataset import FEATURE_NAMES, RadioClass, feature_names
from .errors import DataError
from .tree import LeafNode, ObliqueTree, to_json

PROGRAM_VERSION = 2
_INDENT = "    "


def feature_names_for(tree: ObliqueTree) -> tuple:
    """Raw feature names, dataset.feature_names of the model's width; a
    leaf-only model takes its width from its scaler, or reads FEATURE_NAMES
    without one."""
    dim = tree.dim if tree.dim is not None or tree.scaler is None else len(tree.scaler.mean)
    return FEATURE_NAMES if dim is None else feature_names(dim)


def _condition_text(a: np.ndarray, a0: float, names) -> str:
    """`c1*hn + c2*rssi ... + c0 < 0` with zero terms omitted; numerals are
    shortest exact decimals."""
    parts = []
    for coeff, name in zip(a, names):
        if coeff == 0.0:
            continue
        parts.append((coeff, f"{repr(abs(float(coeff)))}*{name}"))
    if a0 != 0.0 or not parts:
        parts.append((a0, repr(abs(float(a0)))))
    text = "".join((" - " if value < 0 else " + ") + term for value, term in parts)
    return ("-" if text[1] == "-" else "") + text[3:] + " < 0"


@dataclass
class DecisionProgram:
    text: str
    model_hash: str


def codegen(tree: ObliqueTree) -> DecisionProgram:
    """Emit the nested IF/ELSE program: left branch under the `if`
    (negative score), right branch under the `else`."""
    names = feature_names_for(tree)
    for nid in tree.decision_ids():
        if not np.any(tree.nodes[nid].w != 0.0):
            raise DataError(f"node {nid} has an all-zero hyperplane: prune before codegen")
    model_hash = hashlib.sha256(to_json(tree).encode()).hexdigest()

    lines = [
        f"// radiosel decision program v{PROGRAM_VERSION}",
        f"// model sha256: {model_hash}",
        "// consumes raw features; score 0 takes the else branch",
    ]
    if tree.scaler is not None:
        for name, mean, std in zip(names, tree.scaler.mean, tree.scaler.std):
            op = "+" if np.signbit(mean) else "-"
            lines.append(f"z_{name} = ({name} {op} {abs(float(mean))!r}) / {float(std)!r};")
        names = tuple(f"z_{name}" for name in names)

    def emit(nid: int, depth: int) -> None:
        pad = _INDENT * depth
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            lines.append(f"{pad}return {RadioClass(node.label).name};")
            return
        lines.append(f"{pad}if ({_condition_text(node.w, node.w0, names)}) {{")
        emit(node.left, depth + 1)
        lines.append(f"{pad}}} else {{")
        emit(node.right, depth + 1)
        lines.append(f"{pad}}}")

    emit(tree.root, 0)
    return DecisionProgram("\n".join(lines) + "\n", model_hash)


# ---------- reference interpreter ----------

# numerals as repr() writes them, so float() accepts every match
_NUM = r"\d+(?:\.\d*)?(?:e[+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM_RE = re.compile(rf"^(?P<num>-?{_NUM})(?:\*(?P<name>{_NAME}))?$")
_PROLOGUE_RE = re.compile(rf"^(?P<z>{_NAME}) = \((?P<x>{_NAME}) (?P<op>[+-]) (?P<mean>{_NUM})\) "
                          rf"/ (?P<std>{_NUM});$")


class _Parser:
    def __init__(self, lines: list, feature_index: dict):
        self.lines = lines
        self.pos = 0
        self.feature_index = feature_index

    def take(self) -> str:
        if self.pos == len(self.lines):
            raise DataError("program ends early")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def slot(self, name: str) -> int:
        if name not in self.feature_index:
            raise DataError(f"unknown feature {name!r} in program")
        return self.feature_index[name]

    def parse_prologue(self, n_features: int) -> list:
        """`z = (x - mean) / std;` lines as (slot of x, mean, std); each z
        takes the next slot after the n_features raw ones and the earlier z."""
        prologue = []
        while self.pos < len(self.lines) and (m := _PROLOGUE_RE.match(self.lines[self.pos])):
            self.pos += 1
            mean = float(m["mean"]) if m["op"] == "-" else -float(m["mean"])
            prologue.append((self.slot(m["x"]), mean, float(m["std"])))
            self.feature_index[m["z"]] = n_features + len(prologue) - 1
        return prologue

    def parse_block(self):
        line = self.take()
        if line.startswith("return "):
            label = line[len("return "):].rstrip(";")
            if label not in RadioClass.__members__:
                raise DataError(f"unknown return label {label!r}")
            return ("leaf", int(RadioClass[label]))
        m = re.match(r"^if \((?P<expr>.+) < 0\) \{$", line)
        if not m:
            raise DataError(f"cannot parse program line: {line!r}")
        terms = self._parse_expr(m.group("expr"))
        then_branch = self.parse_block()
        if self.take() != "} else {":
            raise DataError("malformed program: expected '} else {'")
        else_branch = self.parse_block()
        if self.take() != "}":
            raise DataError("malformed program: expected '}'")
        return ("if", terms, then_branch, else_branch)

    def _parse_expr(self, expr: str):
        # split  "a*hn + b*rssi - c"  into signed terms, left to right
        chunks = re.split(r" ([+-]) ", " + " + expr)
        terms = []
        for sign, chunk in zip(chunks[1::2], chunks[2::2]):
            m = _TERM_RE.match(chunk)
            if not m:
                raise DataError(f"cannot parse term {chunk!r}")
            coeff = float(m.group("num")) if sign == "+" else -float(m.group("num"))
            name = m.group("name")
            terms.append((coeff, None if name is None else self.slot(name)))
        return terms


class ProgramInterpreter:
    """Evaluates an emitted program on raw feature vectors.

    Computes the prologue's standardized values, then accumulates each
    condition left to right exactly as written, so it is an independent
    execution of the program text rather than of the tree.
    """

    def __init__(self, text: str, feature_names=FEATURE_NAMES):
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("//")]
        self.n_features = len(feature_names)
        parser = _Parser(lines, {name: j for j, name in enumerate(feature_names)})
        self.prologue = parser.parse_prologue(self.n_features)
        self.tree = parser.parse_block()
        if parser.pos != len(lines):
            raise DataError("trailing content after program body")

    def predict(self, x) -> int:
        v = [float(x[j]) for j in range(self.n_features)]
        for j, mean, std in self.prologue:
            v.append((v[j] - mean) / std)
        node = self.tree
        while node[0] == "if":
            s = 0.0
            for coeff, j in node[1]:
                s += coeff if j is None else coeff * v[j]
            node = node[2] if s < 0 else node[3]
        return node[1]


# ---------- interpretation report ----------

DOMINANCE_RATIO = 0.5  # |w_j| >= ratio * max|w| counts as dominant


@dataclass
class ReportRow:
    node_id: int
    depth: int
    weights: np.ndarray
    bias: float
    l0: int
    dominant: tuple  # feature names ordered by |weight| descending


def report(tree: ObliqueTree) -> list:
    """Per-decision-node weight table on the standardized (model) scale."""
    names = feature_names_for(tree)
    depths = tree.node_depths()
    rows = []
    for nid in tree.decision_ids():
        node = tree.nodes[nid]
        absw = np.abs(node.w)
        top = float(np.max(absw, initial=0.0))
        dominant = tuple(names[j] for j in np.argsort(-absw, kind="stable")
                         if absw[j] > 0.0 and absw[j] >= DOMINANCE_RATIO * top)
        rows.append(ReportRow(
            node_id=nid, depth=depths[nid], weights=node.w.copy(),
            bias=node.w0, l0=int(np.sum(node.w != 0.0)), dominant=dominant))
    return rows
