"""Tests of the benchmark itself (not of flopk).

    python3 perfbench/selftest.py

Covers seeded input generation, the output checks (each must reject a
corrupted output), the span self-time summary, a tiny end-to-end pass of
the flop-ladder and taut-session workloads through real workers, and the
refusal to run where there are no flopk sources.
"""

import json
import shutil
import subprocess
import sys
import unittest

import checks
import inputs
import run
from spans import Tracer, self_times


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(inputs.pass_inputs(w, 7, 0), inputs.pass_inputs(w, 7, 0), w)

    def test_other_seed_or_pass_other_inputs(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(inputs.pass_inputs(w, 7, 0), inputs.pass_inputs(w, 8, 0), w)
            self.assertNotEqual(inputs.pass_inputs(w, 7, 0), inputs.pass_inputs(w, 7, 1), w)

    def test_ladder_is_every_box(self):
        boxes = inputs.pass_inputs("flop-ladder", 3, 0)
        self.assertEqual(sorted(boxes), sorted(inputs.LADDER))
        self.assertEqual(len(boxes), 12)

    def test_taut_sizes(self):
        plan = inputs.pass_inputs("taut-session", 3, 0)
        self.assertEqual(len(plan["expansions"]), inputs.EXPANSIONS_PER_PASS)
        self.assertEqual(len(plan["weights"]), inputs.WEIGHTS_PER_PASS)
        for (t, h), a, b in plan["expansions"]:
            self.assertIn(a, inputs.atom_pool(t, h))
            self.assertIn(b, inputs.atom_pool(t, h))


def flop_payload(matrix, det="1", snf=None):
    n = len(matrix)
    return json.dumps({
        "matrix": [[str(x) for x in row] for row in matrix],
        "det": det,
        "snf": snf if snf is not None else ["1"] * n,
    })


class Checks(unittest.TestCase):
    # the flop matrix of G(1,2): a 2 x 2 involution of det -1
    GOOD = [[1, 1], [0, -1]]

    def test_flop_check_accepts_good_output(self):
        out = flop_payload(self.GOOD, det="-1")
        self.assertEqual(checks.check_flop_output(out, 0, 1, 2, checks.digest(out)), [])

    def test_flop_check_rejects_corruption(self):
        good = flop_payload(self.GOOD, det="-1")
        expected = checks.digest(good)
        not_involution = flop_payload([[1, 1], [0, 1]], det="1")
        singular = flop_payload([[1, 1], [1, 1]], det="0", snf=["1", "0"])
        for out, rc in ((good, 1), (good + " ", 0), (not_involution, 0), (singular, 0),
                        (flop_payload(self.GOOD, det="1"), 0), ("{", 0)):
            self.assertTrue(checks.check_flop_output(out, rc, 1, 2, expected), out)

    def test_linear_algebra(self):
        self.assertEqual(checks.det([[2, 1], [7, 4]]), 1)
        self.assertEqual(checks.det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), -1)
        self.assertEqual(checks.snf_3x3([[1, 0, -3], [0, 1, 6], [0, 0, -2]]), (1, 1, 2))
        self.assertEqual(checks.snf_3x3([[2, 0, 0], [0, 4, 0], [0, 0, 6]]), (2, 2, 12))

    def test_ranks(self):
        self.assertEqual(checks.schur_rank((2, 1), 3), 8)
        self.assertEqual(checks.schur_rank((1, 1), 2), 1)
        self.assertEqual(checks.schur_rank((), 5), 1)
        self.assertEqual(checks.box_basis(2, 2), [(), (1,), (2,), (1, 1), (2, 1), (2, 2)])
        self.assertEqual(checks.gaussian_coefficients(2, 4), [1, 1, 2, 1, 1])

    def test_expansion_check(self):
        # [S] on G(2,4) is the basis vector of (1); S (x) S has rank 4
        coords = [0, 1, 0, 0, 0, 0]
        self.assertEqual(checks.check_expansion({"coords": coords}, (["sub", [1]],), 2, 4), [])
        self.assertTrue(checks.check_expansion({"coords": coords}, (["sub", [1]], ["sub", [1]]), 2, 4))
        self.assertTrue(checks.check_expansion({"error": "NonIntegralExpansion: x"}, (["line", 0],), 2, 4))

    def test_session_checks_reject_corruption(self):
        good = {"basis": "line", "matrix": [[1, 0, -3], [0, 1, 6], [0, 0, -2]], "index": 2}
        self.assertEqual(checks.check_counterexample(good), [])
        self.assertTrue(checks.check_counterexample(dict(good, index=1)))
        self.assertTrue(checks.check_counterexample(dict(good, matrix=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        table = [[int(p == q) * d for q in range(5)] for p, d in enumerate([1, 1, 2, 1, 1])]
        self.assertEqual(checks.check_hodge({"table": table}, 2, 4), [])
        table[2][2] = 1
        self.assertTrue(checks.check_hodge({"table": table}, 2, 4))
        self.assertEqual(checks.check_koszul({"coords": [1, 0, 0]}, 3), [])
        self.assertTrue(checks.check_koszul({"coords": [2, 0, 0]}, 3))

    def test_weight_check(self):
        weight = [[0, 0], [0, 0]]  # O on G(2,4): H^0 = 1; dual O(-4): H^4 = 1
        dual = [[-4, -4], [0, 0]]
        good = {"coh": [0, 1], "dual": dual, "dual_coh": [4, 1]}
        self.assertEqual(checks.check_weight(weight, good), [])
        self.assertTrue(checks.check_weight(weight, dict(good, dual_coh=[3, 1])))
        self.assertTrue(checks.check_weight(weight, dict(good, dual_coh=None)))
        self.assertTrue(checks.check_weight(weight, dict(good, dual=[[-3, -3], [0, 0]])))

    def test_criteria_check(self):
        crit = [{"number": n, "pass": True, "detail": "3112 LR values" if n == 9 else ""}
                for n in range(1, 11)]
        self.assertEqual(checks.check_criteria(crit), [])
        self.assertTrue(checks.check_criteria(crit[:9]))
        self.assertTrue(checks.check_criteria([dict(c, **{"pass": c["number"] != 4}) for c in crit]))
        crit[8]["detail"] = "3000 LR values"
        self.assertTrue(checks.check_criteria(crit))


class Spans(unittest.TestCase):
    def test_self_time(self):
        spans = [
            {"id": 0, "name": "op", "parent": None, "op": 1, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "a", "parent": 0, "op": 1, "start": 1.0, "end": 4.0},
            {"id": 2, "name": "b", "parent": 0, "op": 1, "start": 3.0, "end": 6.0},
            {"id": 3, "name": "a", "parent": 2, "op": 1, "start": 3.5, "end": 4.5},
        ]
        got = self_times(spans)
        self.assertAlmostEqual(got["op"], 5.0)
        self.assertAlmostEqual(got["a"], 4.0)
        self.assertAlmostEqual(got["b"], 2.0)

    def test_tracer_records_parent_and_op(self):
        tracer = Tracer(True)
        with tracer.span("op", "x"):
            with tracer.span("inner", "x"):
                pass
        self.assertEqual([s["parent"] for s in tracer.spans], [None, 0])
        self.assertTrue(all(s["end"] >= s["start"] for s in tracer.spans))
        off = Tracer(False)
        with off.span("op", "x"):
            pass
        self.assertEqual(off.spans, [])


SMOKE_PLAN = {
    "expansions": [[[2, 6], ["sub", [1]], ["quot", [1, 1]]],
                   [[2, 6], ["tangent_wedge", 1], ["line", -2]],
                   [[3, 6], ["sub*", [2]], ["line", 3]]],
    "koszul": [3],
    "counterexample": ["line", "canonical"],
    "hodge": [[2, 4]],
    "weights": [[[1, 0], [0, -2]], [[3, 3], [0, 0]]],
}


class Smoke(unittest.TestCase):
    def test_tiny_passes_end_to_end(self):
        runner = run.Runner()
        expected = run.load_expected()
        boxes = [(1, 2), (2, 4)]
        for traced in (False, True):
            res = run.run_pass(runner, "flop-ladder", boxes, expected, traced=traced)
            self.assertEqual((res.attempted, res.failed), (2, 0), res.problems)
            res = run.run_pass(runner, "taut-session", SMOKE_PLAN, expected, traced=traced)
            self.assertEqual((res.attempted, res.failed), (9, 0), res.problems)
            self.assertEqual(bool(res.spans), traced)
        self.assertGreater(res.wall, 0)
        names = set(self_times(res.spans[0]))
        self.assertTrue({"chow.atom_ch", "kgroup.expand", "bott.weights"} <= names)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-all",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
