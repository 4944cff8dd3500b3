#!/usr/bin/env python3
"""Tests of the host-clock benchmark itself: strict flag parsing, the
provenance guard, and a smoke run of every workload with every check on.

    python3 perfbench/test_perfbench.py

The smoke runs build perfbench first if needed (about a minute cold).
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def parse(*args):
    return run.parse_args(list(args))


class FlagTest(unittest.TestCase):
    def test_defaults(self):
        opts = parse("--workload", "factorial")
        self.assertEqual(opts["seed"], run.DEFAULT_SEED)
        self.assertEqual(opts["seconds"], run.DEFAULT_SECONDS)
        self.assertEqual(opts["trace"], 0)
        self.assertFalse(opts["smoke"])

    def test_both_spellings(self):
        opts = parse("--workload=des_fabric", "--seed", "7", "--trace=1")
        self.assertEqual((opts["workload"], opts["seed"], opts["trace"]),
                         ("des_fabric", 7, 1))

    def test_misspelt_workload_suggests(self):
        with self.assertRaisesRegex(run.UsageError,
                                    "did you mean 'factorial'"):
            parse("--workload", "factorail")
        with self.assertRaisesRegex(run.UsageError,
                                    "did you mean 'spatial128'"):
            parse("--workload", "spatial12")

    def test_seed_is_full_width_unsigned(self):
        top = str(2**64 - 1)
        self.assertEqual(parse("--workload", "all", "--seed", top)["seed"],
                         2**64 - 1)
        for bad in (str(2**64), "-1", "+5", " 5", "5 ", "12x", "0x10", "",
                    "1_000", "１２"):
            with self.assertRaises(run.UsageError, msg=repr(bad)):
                parse("--workload", "all", "--seed", bad)

    def test_rejects_garbage(self):
        for args in (("--seconds", "10s"), ("--seconds", "0"),
                     ("--trace", "2"), ("--trace", "yes"),
                     ("--smoke=1",), ("--seeds", "1"), ("--work", "all"),
                     ("-w", "all"), ("extra",), ("--seed",),
                     ("--seed", "1", "--seed", "2")):
            with self.assertRaises(run.UsageError, msg=repr(args)):
                parse("--workload", "all", *args)
        with self.assertRaisesRegex(run.UsageError, "required"):
            parse("--seed", "1")

    def test_refuses_repro_overrides(self):
        run.refuse_overrides({"PATH": "/bin"})
        for name in ("REPRO_KERNEL", "REPRO_ENGINE", "REPRO_NBL_CACHE",
                     "REPRO_JOBS", "REPRO_FIBER_STACK_KB"):
            with self.assertRaisesRegex(run.UsageError, name):
                run.refuse_overrides({name: "1"})


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def bench(self, *args, env=None):
        return subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                               *args], capture_output=True, text=True,
                              cwd=run.ROOT, env=env, timeout=600)

    def test_every_workload_correct_with_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = self.bench("--workload", workload, "--smoke",
                                     "--seed", "5", "--trace", str(trace))
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.strip().splitlines()
                    self.assertIn("fail_ratio", out.stdout)
                    res = json.loads(lines[-1])
                    self.assertEqual(sorted(res),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()},
                        want)

    def test_same_seed_same_counts(self):
        def counts():
            out = self.bench("--workload", "des_fabric", "--smoke",
                             "--seed", "9", "--trace", "1")
            self.assertEqual(out.returncode, 0, out.stderr)
            m = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            return [m[k]["value"] for k in ("sim.events",
                                            "sim.context_switches",
                                            "net.messages", "net.bytes")]
        self.assertEqual(counts(), counts())

    def test_cli_refusals_print_no_result(self):
        out = self.bench("--workload", "des_fabirc")
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")
        self.assertIn("did you mean 'des_fabric'", out.stderr)
        env = dict(os.environ, REPRO_KERNEL="simd")
        out = self.bench("--workload", "des_fabric", "--smoke", env=env)
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")

    def test_worker_is_strict_too(self):
        for args in (["run", "--workload", "des_fabric", "--seed", "12x"],
                     ["run", "--workload", "des_fabric", "--seed", "-1"],
                     ["run", "--workload", "desfabric", "--seed", "1"],
                     ["run", "--workload", "factorial", "--seed", "1"],
                     ["run", "--seed", "1"], ["bogus"]):
            out = subprocess.run([str(run.BINARY), *args],
                                 capture_output=True, text=True)
            self.assertEqual(out.returncode, 2, args)
            self.assertEqual(out.stdout, "", args)
        env = dict(os.environ, REPRO_ENGINE="thread")
        out = subprocess.run([str(run.BINARY), "run", "--workload",
                              "des_fabric", "--seed", "1", "--smoke"],
                             capture_output=True, text=True, env=env)
        self.assertEqual(out.returncode, 2)
        self.assertIn("REPRO_ENGINE", out.stderr)


if __name__ == "__main__":
    unittest.main()
