"""Deployment artifacts: IF/ELSE decision programs and weight reports.

The emitted program consumes RAW sensor features: any standardization is
folded into the coefficients (a_j = w_j / sigma_j, constant absorbs
-sum w_j mu_j / sigma_j). Numerals are shortest round-trip decimals, so
re-parsing recovers the exact coefficient values.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .dataset import FEATURE_NAMES
from .errors import DataError
from .tree import DecisionNode, LeafNode, ObliqueTree, to_json

PROGRAM_VERSION = 1
_INDENT = "    "

_LABEL_TEXT = {0: "ZIGBEE", 1: "LORA"}
_LABEL_CODE = {"ZIGBEE": 0, "LORA": 1}


def feature_names_for(tree: ObliqueTree) -> tuple:
    if tree.dim is None or tree.dim == len(FEATURE_NAMES):
        return FEATURE_NAMES
    return tuple(f"x{j}" for j in range(tree.dim))


def _folded_params(node: DecisionNode, scaler):
    if scaler is None:
        return node.w.copy(), node.w0
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the caller
        a = node.w / scaler.std
        a0 = node.w0 - float(np.sum(node.w * scaler.mean / scaler.std))
    return a, a0


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
    pieces = []
    for i, (value, text) in enumerate(parts):
        if i == 0:
            pieces.append(("-" if value < 0 else "") + text)
        else:
            pieces.append((" - " if value < 0 else " + ") + text)
    return "".join(pieces) + " < 0"


@dataclass
class DecisionProgram:
    text: str
    model_hash: str
    version: int = PROGRAM_VERSION


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

    def emit(nid: int, depth: int) -> None:
        pad = _INDENT * depth
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            lines.append(f"{pad}return {_LABEL_TEXT[node.label]};")
            return
        a, a0 = _folded_params(node, tree.scaler)
        if not (np.all(np.isfinite(a)) and np.isfinite(a0)):
            raise DataError(f"node {nid}: folding the scaler into the weights gives "
                            "non-finite coefficients")
        lines.append(f"{pad}if ({_condition_text(a, a0, names)}) {{")
        emit(node.left, depth + 1)
        lines.append(f"{pad}}} else {{")
        emit(node.right, depth + 1)
        lines.append(f"{pad}}}")

    emit(tree.root, 0)
    return DecisionProgram("\n".join(lines) + "\n", model_hash)


# ---------- reference interpreter ----------

_TERM_RE = re.compile(r"^(?P<num>[0-9.eE+-]+)(?:\*(?P<name>[A-Za-z_][A-Za-z0-9_]*))?$")


class _Parser:
    def __init__(self, lines: list, feature_index: dict):
        self.lines = lines
        self.pos = 0
        self.feature_index = feature_index

    def peek(self) -> str:
        return self.lines[self.pos]

    def take(self) -> str:
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def parse_block(self):
        line = self.take()
        if line.startswith("return "):
            label = line[len("return "):].rstrip(";")
            if label not in _LABEL_CODE:
                raise DataError(f"unknown return label {label!r}")
            return ("leaf", _LABEL_CODE[label])
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
        chunks = re.split(r" ([+-]) ", expr)
        signed = [("+", chunks[0])]
        for i in range(1, len(chunks), 2):
            signed.append((chunks[i], chunks[i + 1]))
        terms = []
        for sign, chunk in signed:
            m = _TERM_RE.match(chunk)
            if not m:
                raise DataError(f"cannot parse term {chunk!r}")
            try:
                coeff = float(m.group("num"))
            except ValueError:
                raise DataError(f"cannot parse coefficient in term {chunk!r}")
            if sign == "-":
                coeff = -coeff
            name = m.group("name")
            if name is None:
                terms.append((coeff, None))
            else:
                if name not in self.feature_index:
                    raise DataError(f"unknown feature {name!r} in program")
                terms.append((coeff, self.feature_index[name]))
        return terms


class ProgramInterpreter:
    """Evaluates an emitted program on raw feature vectors.

    Accumulates each condition left to right exactly as written, so it is
    an independent execution of the program text rather than of the tree.
    """

    def __init__(self, text: str, feature_names=FEATURE_NAMES):
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("//")]
        index = {name: j for j, name in enumerate(feature_names)}
        parser = _Parser(lines, index)
        self.tree = parser.parse_block()
        if parser.pos != len(lines):
            raise DataError("trailing content after program body")

    def predict(self, x) -> int:
        node = self.tree
        while node[0] == "if":
            s = 0.0
            for coeff, j in node[1]:
                s += coeff if j is None else coeff * float(x[j])
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
        top = float(np.max(absw)) if absw.size else 0.0
        if top > 0.0:
            order = np.argsort(-absw, kind="stable")
            dominant = tuple(names[j] for j in order if absw[j] >= DOMINANCE_RATIO * top)
        else:
            dominant = ()
        rows.append(ReportRow(
            node_id=nid, depth=depths[nid], weights=node.w.copy(),
            bias=node.w0, l0=int(np.sum(node.w != 0.0)), dominant=dominant))
    return rows
