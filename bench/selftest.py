"""Self-tests of the benchmark harness: seeded inputs, percentiles, oracles.

    python3 bench/selftest.py

Run from the root of a checkout; scratch files go under .bench_out/.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import statistics
import sys
import unittest

import run

sys.path.insert(0, run.SRC)

import cli_jobs  # noqa: E402
import tracer  # noqa: E402
import transform_stream  # noqa: E402
import verify_mix  # noqa: E402

WORKLOADS = (verify_mix, transform_stream, cli_jobs)


class Scratch(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup_workload(self, wl, seed, sub="a"):
        return wl.setup(run.load_package(), seed, os.path.join(self.dir, sub))

    def first_op(self, wl, state, want):
        for desc in wl.round_plan(state, 5, 0):
            if want(desc):
                return desc
        raise AssertionError("no such op in round 0")


class PercentileTest(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(run.percentile([1, 2, 3, 4], 90), 3.7)
        self.assertEqual(run.percentile([7], 90), 7)
        self.assertEqual(run.percentile([3, 9, 5], 0), 3)
        self.assertEqual(run.percentile([3, 9, 5], 100), 9)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_matches_statistics(self):
        rng = random.Random(1)
        for n in (2, 3, 10, 101, 250):
            xs = [rng.expovariate(1.0) for _ in range(n)]
            cuts = statistics.quantiles(xs, n=100, method="inclusive")
            for q in (10, 50, 90, 99):
                self.assertAlmostEqual(run.percentile(xs, q), cuts[q - 1])
            self.assertAlmostEqual(run.percentile(xs, 50), statistics.median(xs))


class SeedTest(Scratch):
    def test_same_seed_same_inputs(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl.NAME):
                a = self.setup_workload(wl, 7, "a")
                b = self.setup_workload(wl, 7, "b")
                c = self.setup_workload(wl, 8, "c")
                plan = lambda state, seed: [wl.round_plan(state, seed, r) for r in range(3)]
                self.assertEqual(plan(a, 7), plan(b, 7))
                self.assertNotEqual(plan(a, 7), plan(c, 8))

    def test_same_seed_same_files(self):
        read = lambda sub: {
            f.name: f.read_bytes() for f in sorted(pathlib.Path(self.dir, sub).iterdir())
        }
        self.setup_workload(cli_jobs, 7, "a")
        self.setup_workload(cli_jobs, 7, "b")
        self.setup_workload(cli_jobs, 8, "c")
        self.assertEqual(read("a"), read("b"))
        self.assertNotEqual(read("a"), read("c"))


class MixTest(Scratch):
    def test_a_run_has_ten_ops_beyond_p90(self):
        for wl in WORKLOADS:
            state = self.setup_workload(wl, 7)
            ops = sum(len(wl.round_plan(state, 7, r)) for r in range(wl.ROUNDS))
            self.assertGreaterEqual(ops, 100, wl.NAME)


class OracleTest(Scratch):
    def test_verify_oracle_rejects_non_gbh_reported_as_gbh(self):
        state = self.setup_workload(verify_mix, 5)
        desc = self.first_op(verify_mix, state, lambda d: d[0] != "gbh")
        call, check = verify_mix.prepare(state, desc)
        rep = call()
        self.assertIsNone(check(rep))
        rep.is_gbh = True
        self.assertIsNotNone(check(rep))

    def test_verify_oracle_rejects_wrong_entry_group_order(self):
        state = self.setup_workload(verify_mix, 5)
        desc = self.first_op(verify_mix, state, lambda d: d[:2] == ("gbh", "cbt3"))
        call, check = verify_mix.prepare(state, desc)
        rep = call()
        self.assertIsNone(check(rep))
        rep.w = 2
        self.assertIsNotNone(check(rep))

    def test_negative_differs_in_one_entry(self):
        state = self.setup_workload(verify_mix, 5)
        g = state["g"]
        Perm = g.matrix.Permutation
        for name in ("walsh6", "cbt3"):
            src = state["sources"][name]
            v = src.matrix.order
            rng = random.Random(name)
            rowp, colp = tuple(rng.sample(range(v), v)), tuple(rng.sample(range(v), v))
            P = g.matrix.permute(src.matrix, Perm(rowp), Perm(colp))
            N = verify_mix._negative(g, src, P, rowp, colp, (1, 2), keep_tree=True)
            diff = [(i, j) for i in range(v) for j in range(v) if N.entry(i, j) != P.entry(i, j)]
            self.assertEqual(diff, [(1, 2)])
            self.assertIs(N.tree, P.tree)

    def test_transform_oracle_rejects_sign_flipped_round_trip(self):
        state = self.setup_workload(transform_stream, 5)
        for lane in ("naive", "fast"):
            desc = self.first_op(transform_stream, state, lambda d: d[0].startswith(lane))
            call, check = transform_stream.prepare(state, desc)
            back, count = call()
            self.assertIsNone(check((back, count)))
            flipped = type(back)(back.ring, tuple(-e for e in back.elements))
            self.assertIsNotNone(check((flipped, count)))
        # fast lane: a wrong multiplication count is rejected too
        self.assertIsNotNone(check((back, type(count)(count.mul + 1, count.add))))

    def test_cli_oracle_rejects_wrong_exit_code(self):
        state = self.setup_workload(cli_jobs, 5)
        desc = self.first_op(cli_jobs, state, lambda d: d == ("roundtrip", 4))
        call, check = cli_jobs.prepare(state, desc)
        res = call()
        self.assertIsNone(check(res))
        res[2] = (1, res[2][1])
        self.assertIsNotNone(check(res))
        self.assertIsNotNone(cli_jobs.check_exit([(0, "width: 4\n")], [0], "width: 1"))
        self.assertIsNotNone(cli_jobs.check_exit([(0, "")], [2]))

    def test_known_defects_fail_and_are_counted(self):
        state = self.setup_workload(cli_jobs, 5)
        r = run.Run(cli_jobs.KNOWN_DEFECTS, run.SpeedClock())
        for kind in ("malformed-order", "malformed-tree", "width"):
            r.op(cli_jobs, state, (kind, "k4" if kind == "width" else None))
        self.assertEqual(r.attempted, 3)
        self.assertEqual(r.unexpected, 0)
        self.assertLessEqual(r.failed, 2)


class TracerTest(Scratch):
    def test_counts_repeat_and_originals_return(self):
        counts = []
        for sub in ("a", "b"):
            g = run.load_package()
            tr = tracer.Tracer()
            tr.install(g)
            try:
                state = tr.run(lambda: verify_mix.setup(g, 5, os.path.join(self.dir, sub)))
                r = run.Run({}, run.SpeedClock())
                for desc in verify_mix.round_plan(state, 5, 0):
                    if state["sources"][desc[1]].matrix.order <= 16:
                        r.op(verify_mix, state, desc, tr)
            finally:
                tr.uninstall()
            self.assertEqual(r.failed, 0)
            m = tr.metrics()
            counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
            self.assertGreater(m["gbh.verify_gbh.calls"], 0)
            self.assertGreater(m["ring.cyclotomic.dot_terms"], 0)
            for restored in (g.gbh.verify_gbh, g.pkg.verify_gbh, g.ring.RingElement.__add__):
                self.assertFalse(hasattr(restored, "__wrapped__"))
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
