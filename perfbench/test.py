#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test.py

1. The reference digests still match a fresh computation on the direct
   path (no trace replay, no capture or observation caching).
2. Every workload's traced run passes its checks (reference digests,
   traced-sweep mirror, per-round count repeat), and the exact counts
   repeat across two runs with the same seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ["optft-cold", "optslice-cold", "service-warm"]
EXACT_COUNTS = [
    "profile.steps",
    "profile.runs",
    "exec.record.steps",
    "exec.record.trace_bytes",
    "exec.replay.events",
    "analysis.andersen.work_units",
    "analysis.race.racy_accesses",
    "analysis.slicer.slice_instrs",
    "dyn.checker.aborts",
    "core.rollbacks",
    "core.repredications",
]


def run(args):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{proc.returncode}")
    return proc.stdout


class ReferenceTest(unittest.TestCase):
    def test_digests_do_not_drift(self):
        regenerated = HERE.parent / ".bench_build" / "perfbench" / \
            "reference.regenerated.txt"
        run(["--write-reference", str(regenerated)])
        committed = (HERE / "reference.txt").read_text().splitlines()
        fresh = regenerated.read_text().splitlines()
        self.assertEqual(committed, fresh,
                         "reference digests drifted; if the change is "
                         "intended, regenerate perfbench/reference.txt")


class TracedRunTest(unittest.TestCase):
    def traced(self, workload, seed):
        result = json.loads(run(["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", "1"])
                            .splitlines()[-1])
        self.assertTrue(result["correct"], f"{workload}: {result}")
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_exact_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.traced(workload, 5)
                second = self.traced(workload, 5)
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name], second[name], name)
                self.assertGreater(first["profile.steps"], 0)
                self.assertGreater(first["exec.replay.events"], 0)


if __name__ == "__main__":
    unittest.main()
