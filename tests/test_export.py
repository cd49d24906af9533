import numpy as np
import pytest

from conftest import boundary_adjacent_inputs, leaf_tree, random_tree, stump
from radiosel.dataset import Scaler
from radiosel.errors import DataError
from radiosel.export import (DOMINANCE_RATIO, ProgramInterpreter, codegen,
                             report)
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree, prune


class TestCodegen:
    def test_single_leaf_program(self):
        program = codegen(leaf_tree(1))
        body = [ln for ln in program.text.splitlines() if not ln.startswith("//")]
        assert body == ["return LORA;"]

    def test_sparse_node_emission_matches_field_table(self):
        t = stump([1.415681867042, 0.0, 0.0, 0.0], 0.143560158843,
                  left_label=1, right_label=0)
        program = codegen(t)
        assert "if (1.415681867042*hn + 0.143560158843 < 0) {" in program.text
        for name in ("rssi", "prr", "rnp"):
            assert name not in program.text

    def test_negative_coefficients_render_with_minus(self):
        t = stump([0.0, -1.298779855192, 0.0, -0.211013927858], -1.448720963148,
                  left_label=1, right_label=0)
        program = codegen(t)
        assert "if (-1.298779855192*rssi - 0.211013927858*rnp - 1.448720963148 < 0) {" \
            in program.text

    def test_zero_hyperplane_rejected(self):
        t = stump([0.0, 0, 0, 0], -1.0, left_label=0, right_label=1)
        with pytest.raises(DataError, match="prune"):
            codegen(t)

    def test_header_carries_model_hash(self, rng):
        t = random_tree(rng, depth=2)
        program = codegen(t)
        assert f"// model sha256: {program.model_hash}" in program.text

    def test_interpreter_equivalence_random_models(self, rng):
        for _ in range(20):
            t = prune(random_tree(rng, depth=int(rng.integers(1, 4)), zero_prob=0.2))
            program = codegen(t)
            interp = ProgramInterpreter(program.text)
            X = rng.normal(0.0, 3.0, size=(500, 4))
            for x in X:
                assert interp.predict(x) == t.predict(x)

    def test_interpreter_equivalence_on_boundaries(self, rng):
        for _ in range(10):
            t = prune(random_tree(rng, depth=2))
            program = codegen(t)
            interp = ProgramInterpreter(program.text)
            X = np.vstack([boundary_adjacent_inputs(t, rng, per_node=20),
                           boundary_adjacent_inputs(t, rng, per_node=100, eps_rel=0.0)])
            expected = [interp.predict(x) for x in X]
            assert [t.predict(x) for x in X] == expected
            assert t.predict_many(X).tolist() == expected

    def test_scaler_prologue_for_raw_inputs(self, rng):
        scaler = Scaler(np.array([2.0, -95.0, 0.5, 2.0]),
                        np.array([1.5, 12.0, 0.25, 1.2]))
        nodes = {0: DecisionNode(rng.normal(0, 1, 4), 0.3, 1, 2),
                 1: LeafNode(0), 2: LeafNode(1)}
        t = ObliqueTree(nodes, 0, scaler=scaler)
        program = codegen(t)
        assert "z_hn = (hn - 2.0) / 1.5;\nz_rssi = (rssi + 95.0) / 12.0;\n" in program.text
        interp = ProgramInterpreter(program.text)
        # raw, physically-scaled inputs
        X = np.column_stack([rng.uniform(1, 6, 300), rng.uniform(-130, -60, 300),
                             rng.uniform(0, 1, 300), rng.uniform(1, 8, 300)])
        for x in X:
            assert interp.predict(x) == t.predict(x)
        # points on the hyperplane in model space, fed to both as raw features
        Xb = scaler.inverse(boundary_adjacent_inputs(t, rng, per_node=500, eps_rel=0.0))
        expected = [interp.predict(x) for x in Xb]
        assert [t.predict(x) for x in Xb] == expected
        assert t.predict_many(Xb).tolist() == expected

    def test_emitted_numerals_round_trip(self, rng):
        t = prune(random_tree(rng, depth=2))
        program = codegen(t)
        interp = ProgramInterpreter(program.text)

        def collect(node, out):
            if node[0] == "leaf":
                return
            out.append(node[1])
            collect(node[2], out)
            collect(node[3], out)

        conds = []
        collect(interp.tree, conds)
        emitted = sorted(abs(c) for terms in conds for c, _ in terms)
        original = sorted(np.concatenate(
            [[abs(v) for v in t.nodes[n].w if v != 0.0] + [abs(t.nodes[n].w0)]
             for n in t.decision_ids()]))
        assert emitted == pytest.approx(original, rel=0, abs=0)


class TestInterpreter:
    def test_rejects_garbage(self):
        with pytest.raises(DataError):
            ProgramInterpreter("while (1) {}")

    def test_rejects_unknown_feature(self):
        text = "if (1.0*volts < 0) {\nreturn LORA;\n} else {\nreturn ZIGBEE;\n}\n"
        with pytest.raises(DataError, match="volts"):
            ProgramInterpreter(text)

    def test_zero_score_takes_else_branch(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        interp = ProgramInterpreter(codegen(t).text)
        assert interp.predict(np.zeros(4)) == 1

    @pytest.mark.parametrize("cut", [0, 2, 3, 4],
                             ids=["empty", "after_then", "after_else", "no_closing_brace"])
    def test_truncated_program_ends_early(self, cut):
        text = "if (1.0*hn < 0) {\nreturn LORA;\n} else {\nreturn ZIGBEE;\n}\n"
        with pytest.raises(DataError, match="program ends early"):
            ProgramInterpreter("\n".join(text.splitlines()[:cut]))

    def test_rejects_unknown_feature_in_prologue(self):
        text = "z_hn = (volts - 1.0) / 2.0;\nif (1.0*z_hn < 0) {\nreturn LORA;\n" \
               "} else {\nreturn ZIGBEE;\n}\n"
        with pytest.raises(DataError, match="volts"):
            ProgramInterpreter(text)

    def test_prologue_standardizes_before_the_conditions(self):
        text = "z_rssi = (rssi + 95.0) / 5.0;\nif (1.0*z_rssi - 1.0 < 0) {\n" \
               "return LORA;\n} else {\nreturn ZIGBEE;\n}\n"
        interp = ProgramInterpreter(text)
        assert [interp.predict([0.0, r, 0.0, 0.0]) for r in (-91.0, -90.0)] == [1, 0]

    def test_version_1_program_still_parses(self):
        text = ("// radiosel decision program v1\n// model sha256: 0\n"
                "if (2.0*hn - 1.0 < 0) {\n    return LORA;\n} else {\n    return ZIGBEE;\n}\n")
        interp = ProgramInterpreter(text)
        assert [interp.predict([x, 0.0, 0.0, 0.0]) for x in (0.0, 0.5)] == [1, 0]


class TestReport:
    def test_dominant_features_by_weight(self):
        t = stump([0.958733267484, 1.025309937395, -0.074761701442, 0.077471341337],
                  -0.122153674469, left_label=1, right_label=0)
        rows = report(t)
        assert rows[0].dominant == ("rssi", "hn")
        assert rows[0].l0 == 4

    def test_one_hot_single_dominant(self):
        t = stump([0.0, 0, 1.0, 0], -0.5, left_label=0, right_label=1)
        rows = report(t)
        assert rows[0].dominant == ("prr",)
        assert rows[0].l0 == 1

    def test_row_per_decision_node(self, rng):
        for _ in range(5):
            t = random_tree(rng, depth=3)
            assert len(report(t)) == len(t.decision_ids())

    def test_dominance_threshold_applied(self):
        w = [1.0, 0.5, 0.49, 0.0]
        t = stump(w, 0.0, 0, 1)
        rows = report(t)
        kept = rows[0].dominant
        assert "hn" in kept and "rssi" in kept and "prr" not in kept
        assert DOMINANCE_RATIO == 0.5
