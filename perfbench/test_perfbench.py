#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # checker tests (seconds)
    python3 perfbench/test_perfbench.py --smoke    # + every workload end to end

Run from the root of a checkout. The checker tests feed each checker a
correct output and then corrupted copies of it, and expect every
corruption to be rejected. The smoke mode runs each workload, and the
traced suite, once on a short run and checks the shape of the result.
"""
import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import check, gen, layers, workloads  # noqa: E402


class ClosureChecker(unittest.TestCase):
    def setUp(self):
        self.edges = gen.digraph(random.Random(3), 30, 60)
        pairs = sorted(check.closure(self.edges))
        self.facts = ([("edge", {"from": str(a), "to": str(b)}) for a, b in self.edges] +
                      [("path", {"from": str(a), "to": str(b)}) for a, b in pairs])

    def test_accepts_the_closure(self):
        self.assertIsNone(check.check_closure(self.edges, self.facts))

    def test_rejects_a_missing_pair(self):
        facts = [f for f in self.facts if f[0] == "edge"] + \
            [f for f in self.facts if f[0] == "path"][1:]
        self.assertIn("1 missing", check.check_closure(self.edges, facts))

    def test_rejects_an_extra_pair(self):
        nodes = {a for a, _ in self.edges} | {b for _, b in self.edges}
        outside = max(nodes) + 1
        facts = self.facts + [("path", {"from": str(outside), "to": "0"})]
        self.assertIn("1 extra", check.check_closure(self.edges, facts))

    def test_bfs_matches_a_hand_example(self):
        self.assertEqual(check.closure([(1, 2), (2, 3), (3, 1)]),
                         {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)})


class LabelingChecker(unittest.TestCase):
    def setUp(self):
        self.ids = [7, 11]
        self.facts = [("domain", {"cube": str(c), "var": "e%d" % e, "value": v})
                      for c in self.ids for e, vals in check.ac3().items()
                      for v in sorted(vals)]

    def test_accepts_the_ac3_fixpoint(self):
        self.assertIsNone(check.check_labeling(self.ids, self.facts))

    def test_rejects_an_unsupported_label(self):
        dead = next((e, v) for e, vals in check.ac3().items()
                    for v in gen.VALUES if v not in vals)
        facts = self.facts + [("domain", {"cube": "11", "var": "e%d" % dead[0],
                                          "value": dead[1]})]
        self.assertIn("cube 11", check.check_labeling(self.ids, facts))

    def test_rejects_a_cube_that_lost_a_label(self):
        facts = [f for f in self.facts
                 if not (f[1]["cube"] == "7" and f[1]["var"] == "e6")]
        self.assertIn("cube 7", check.check_labeling(self.ids, facts))

    def test_fixpoint_prunes_something(self):
        alive, retracts = check.labeling_expectation(1)
        self.assertLess(alive, 9 * len(gen.VALUES))
        self.assertGreater(retracts, 0)


class OrderbookChecker(unittest.TestCase):
    orders = {1: ("sell", "acme", 45, 3), 2: ("buy", "acme", 55, 3),
              3: ("sell", "acme", 41, 2), 4: ("buy", "acme", 52, 2),
              5: ("sell", "hooli", 48, 1)}

    def trades(self):
        return [("b", 2, 3, "acme", 41, 3), ("b", 4, 1, "acme", 45, 2)]

    def test_accepts_a_valid_book(self):
        self.assertIsNone(check.check_orderbook(
            self.orders, self.trades(), [("b", "sell", 5, "hooli", 48)]))

    def test_rejects_an_order_filled_twice(self):
        trades = self.trades() + [("b", 2, 5, "acme", 48, 1)]
        self.assertIn("filled twice", check.check_orderbook(self.orders, trades, []))

    def test_rejects_a_symbol_mismatch(self):
        trades = [("b", 2, 5, "acme", 48, 1)]
        self.assertIn("crosses symbols", check.check_orderbook(self.orders, trades, []))

    def test_rejects_a_price_other_than_the_ask(self):
        trades = [("b", 2, 3, "acme", 55, 3)]
        self.assertIn("not the ask", check.check_orderbook(self.orders, trades, []))

    def test_rejects_a_crossed_resting_book(self):
        resting = [("b", "buy", 2, "acme", 55), ("b", "sell", 1, "acme", 45)]
        self.assertIn("crosses", check.check_orderbook(self.orders, [], resting))

    def test_parses_the_load_log(self):
        text = ("trade b fact 9 (trade (bid 2) (ask 3) (sym acme) (px 41) (qty 3))\n"
                "resting b fact 4 (sell (id 5) (sym hooli) (px 48) (qty 1))\n"
                "fingerprint b 0x00ff\n")
        trades, resting, fps = check.parse_load_output(text)
        self.assertEqual(trades, [("b", 2, 3, "acme", 41, 3)])
        self.assertEqual(resting, [("b", "sell", 5, "hooli", 48)])
        self.assertEqual(fps, {"b": "0x00ff"})


class FingerprintChecker(unittest.TestCase):
    def test_accepts_equal(self):
        self.assertIsNone(check.check_fingerprints({"a": "0x1"}, {"a": "0x1"}))

    def test_rejects_a_mismatch(self):
        self.assertIn("expected 0x1", check.check_fingerprints({"a": "0x1"}, {"a": "0x2"}))

    def test_rejects_a_missing_name(self):
        self.assertIsNotNone(check.check_fingerprints({"a": "0x1"}, {}))


class TraceTolerance(unittest.TestCase):
    def totals(self, attributed):
        tot = layers.Totals()
        tot.add(1.0, 0.95, attributed)
        return tot

    def test_accepts_layers_within_the_tolerance(self):
        res = workloads.Result()
        layers.report_totals(res, "traced closure", self.totals(0.9), "trace.closure.")
        self.assertTrue(res.correct)
        self.assertAlmostEqual(res.metrics["trace.closure.unattributed_pct"]["value"], 10.0)

    def test_rejects_an_unattributed_share_over_the_tolerance(self):
        res = workloads.Result()
        layers.report_totals(res, "traced closure", self.totals(0.8), "trace.closure.")
        self.assertFalse(res.correct)
        self.assertIn("20.0% of the traced time is in no layer", res.causes[0])


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = gen.waltz_program(random.Random("1/x"), 3)
        b = gen.waltz_program(random.Random("1/x"), 3)
        self.assertEqual(a, b)
        self.assertNotEqual(a, gen.waltz_program(random.Random("2/x"), 3))

    def test_order_windows_fill_within_the_window(self):
        orders, _ = gen.order_window(random.Random(1), 1, 4)
        buys = [o for o in orders if o[0] == "buy"]
        sells = [o for o in orders if o[0] == "sell"]
        self.assertEqual(len(buys), len(sells))
        self.assertGreater(min(o[3] for o in buys), max(o[3] for o in sells))


def smoke():
    """Every workload run.py knows, gated or not, end to end on a short
    run, plus the traced suite."""
    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    runs = [(w, 0) for w in sorted(workloads.WORKLOADS)] + [("closure", 1)]
    ok = True
    for workload, trace in runs:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "2", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        want = layer if trace else e2e
        good = (out.returncode == 0 and doc["correct"] and doc["attempted"] > 0
                and set(doc["metrics"]) == want
                and set(doc) == {"correct", "attempted", "failed", "metrics"})
        print("smoke %-10s trace=%d %s attempted=%d failed=%d" % (
            workload, trace, "ok" if good else "FAILED", doc["attempted"], doc["failed"]))
        ok = ok and good
    return ok


if __name__ == "__main__":
    want_smoke = "--smoke" in sys.argv
    argv = [a for a in sys.argv if a != "--smoke"]
    result = unittest.main(argv=argv, exit=False).result
    passed = result.wasSuccessful()
    if want_smoke:
        passed = smoke() and passed
    sys.exit(0 if passed else 1)
