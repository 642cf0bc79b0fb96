#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_run.py

Runs every workload at reduced size, untraced and traced, with every check,
and shows that each correctness check rejects a corrupted answer. Builds the
programs like run.py does (into $CARGO_TARGET_DIR, default .bench_build).
"""
import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "5", "--seconds", "1", "--trace", str(trace), "--reduced"],
                         capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout, out.stderr


class ReducedRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        code, stdout, stderr = bench(workload, trace)
        self.assertEqual(code, 0, stderr)
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        names = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], names[name])
            self.assertIsInstance(m["value"], (int, float))
        if not trace:
            for name in ("setup_s", "request_s", "points_per_s", "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        else:
            self.assertGreater(result["metrics"]["trace.coverage"]["value"], 0)
        return result

    def test_cold_paper(self):
        for trace in (0, 1):
            r = self.check_run("cold_paper", trace)
            self.assertEqual(r["failed"], 0)

    def test_fullpop(self):
        for trace in (0, 1):
            r = self.check_run("fullpop", trace)
            self.assertEqual(r["failed"], 0)

    def test_warm_whatif(self):
        self.check_run("warm_whatif", 0)
        r = self.check_run("warm_whatif", 1)
        self.assertGreater(r["metrics"]["serve.hits"]["value"], 0)


def good_record():
    phase = {"solve_seconds": 10.0, "total_seconds": 12.0,
             "computation": {"peers": 4}, "flownet": {"flows_starved": 0}}
    return {"scenario": "t", "spec": "scenario t\n", "predicted": dict(phase),
            "analytic": dict(phase, solve_seconds=10.5)}


class Checks(unittest.TestCase):
    def test_good_answer_passes(self):
        self.assertEqual(run.check_answer(good_record(), "scenario t\n", 9.0, 4), [])

    def test_wrong_spec_echo(self):
        self.assertTrue(run.check_answer(good_record(), "scenario other\n", 9.0, 4))

    def test_solve_below_compute_bound(self):
        self.assertTrue(run.check_answer(good_record(), "scenario t\n", 10.2, 4))

    def test_error_answer(self):
        self.assertTrue(run.check_answer({"error": "boom"}, "scenario t\n", 0, 4))

    def test_wrong_peer_count_and_starved_flows(self):
        rec = good_record()
        rec["predicted"] = copy.deepcopy(rec["predicted"])
        rec["predicted"]["computation"]["peers"] = 3
        self.assertTrue(run.check_answer(rec, "scenario t\n", 0, 4))
        rec = good_record()
        rec["analytic"] = copy.deepcopy(rec["analytic"])
        rec["analytic"]["flownet"]["flows_starved"] = 1
        self.assertTrue(run.check_answer(rec, "scenario t\n", 0, 4))

    def test_analytic_off_the_replay(self):
        rec = good_record()
        rec["analytic"]["solve_seconds"] = 11.5
        self.assertTrue(run.check_answer(rec, "scenario t\n", 0, 4))

    def test_hit_body_differs(self):
        self.assertEqual(run.check_repeat("hit", "{}", "{}"), [])
        self.assertTrue(run.check_repeat("hit", "{ }", "{}"))
        self.assertTrue(run.check_repeat("miss", "{}", "{}"))

    def test_lower_bound_uses_fastest_host(self):
        facts = {"max_compute_ns": 2_000_000_000, "host_hz": 3e9}
        self.assertAlmostEqual(run.lower_bound_s(facts, 6e9), 1.0)

    def test_unmatched_sends(self):
        """The probe counts a send without its receive in a saved trace set."""
        exe = run.build(os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR")
                                     or ".bench_build"))
        work = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                            "perfbench", "test")
        os.makedirs(work, exist_ok=True)
        sender = "dperf-trace v1\nproc 0 of 2 hz 3e+09\ncompute 5\nsend 1 800 tag 7\nend\n"
        for name, receiver, unmatched in (
                ("matched", "dperf-trace v1\nproc 1 of 2 hz 3e+09\nrecv 0 tag 7\nend\n", 0),
                ("unmatched", "dperf-trace v1\nproc 1 of 2 hz 3e+09\ncompute 5\nend\n", 1),
                ("wrong-tag", "dperf-trace v1\nproc 1 of 2 hz 3e+09\nrecv 0 tag 8\nend\n", 2)):
            files = []
            for rank, text in enumerate((sender, receiver)):
                files.append(os.path.join(work, f"{name}.{rank}.trace"))
                run.write(files[-1], text)
            out = os.path.join(work, f"{name}.json")
            run.run_child([exe["probe"], "trace-facts", out, *files], work)
            facts = json.loads(run.read(out))["facts"]
            self.assertEqual(facts["unmatched"], unmatched, name)
            self.assertEqual(bool(run.check_facts(name, facts)), unmatched > 0, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
