"""Self-test of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from kacwalk import solver, systems, walk  # noqa: E402
from tracer import Tracer, aggregate_totals, self_time_by_layer  # noqa: E402
from workloads import Record, check_solves, check_walks  # noqa: E402


def failed_ops(rec):
    return [op for op, why in rec.ops if why]


def short_walk(steps=200, seed=0):
    system = systems.gaussian_system(12, 12, seed)
    return system, walk.run_walk(system, walk.WalkConfig(seed=seed, steps=steps))


class CheckTests(unittest.TestCase):

    def test_walked_system_with_perturbed_b_counts_as_failed(self):
        _, (walked, log, snaps) = short_walk()
        rec = Record()
        rec.walks.append((walked, log, snaps))
        check_walks(None, rec)
        self.assertEqual(failed_ops(rec), [])

        walked.b[3] += 1e-6
        rec = Record()
        rec.walks.append((walked, log, snaps))
        check_walks(None, rec)
        self.assertEqual(failed_ops(rec), ["walk"])
        self.assertIn("residual", rec.ops[0][1][0])

    def test_walked_solve_that_misses_its_target_counts_as_failed(self):
        system, (walked, log, snaps) = short_walk()
        x0 = np.zeros(system.n)
        for max_iters, expect in ((50000, []), (5, ["solve"])):
            cfg = solver.SolveConfig(seed=0, max_iters=max_iters,
                                     target_residual=1e-6, record_every=10)
            _, pre = solver.kaczmarz_solve(walked, x0, cfg)
            _, raw = solver.kaczmarz_solve(system, x0, cfg)
            rec = Record()
            rec.walks.append((walked, log, snaps))
            rec.solves.append((pre, raw))
            check_solves(None, rec)
            self.assertEqual(failed_ops(rec), expect)


class TracerTests(unittest.TestCase):

    def test_self_time_is_span_minus_children_on_a_nested_span(self):
        # Clock reads: outer opens 0, inner opens 2, the per-step call
        # runs 3..4, inner closes 5, outer closes 10.
        ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))

        def per_step():
            return None
        per_step.__name__ = "walk_step"
        counted = tracer.wrap_aggregate(per_step, "walk")

        with tracer.span("pass", "bench") as outer:
            with tracer.span("walk.run_walk", "walk") as inner:
                counted()
        self.assertEqual(inner.duration, 3.0)
        self.assertEqual(inner.self_s, 2.0)
        self.assertEqual(outer.self_s, 7.0)
        self.assertEqual(inner.aggs, {"walk.walk_step": [1, 1.0]})
        self.assertEqual(self_time_by_layer(outer), {"bench": 7.0, "walk": 3.0})

    def test_per_step_aggregates_count_exactly_the_steps(self):
        original = walk.run_walk
        system = systems.gaussian_system(10, 10, 1)
        tracer = Tracer()
        with tracer.instrument(), tracer.span("pass", "bench") as root:
            walk.run_walk(system, walk.WalkConfig(seed=1, steps=137))
        self.assertIs(walk.run_walk, original)
        totals = aggregate_totals(root)
        self.assertEqual(totals["walk.sample_pair"][0], 137)
        self.assertEqual(totals["walk.walk_step"][0], 137)
        self.assertAlmostEqual(sum(self_time_by_layer(root).values()),
                               root.duration, places=9)


class ContractTests(unittest.TestCase):

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
