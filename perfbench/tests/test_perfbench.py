"""Self-tests of the wall-clock serving benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Builds serve_wall through run.py, then checks that inputs are a pure
function of the seed, that every workload and metric name matches
BENCHMARK.json, and that short runs of every workload report the result
object, verify their outputs and keep the per-layer ledger within the
end-to-end wall time.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run as bench  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        cls.spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

    def serve_wall(self, *args):
        out = subprocess.run([str(self.binary), *args], capture_output=True, text=True,
                             env=bench.run_env(), cwd=bench.ROOT, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout.strip().split("\n")

    def test_same_seed_gives_same_inputs(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                first = self.serve_wall("--describe", "--workload", w, "--seed", "7")
                again = self.serve_wall("--describe", "--workload", w, "--seed", "7")
                other = self.serve_wall("--describe", "--workload", w, "--seed", "8")
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)
                described = json.loads(first[-1])
                self.assertGreater(len(described["requests"]), 0)

    def test_names_match_benchmark_json(self):
        listed = json.loads(self.serve_wall("--list-metrics")[-1])
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(listed["workloads"], names)
        self.assertEqual(bench.WORKLOADS, names)
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in listed[kind]],
                             [(m["name"], m["unit"]) for m in self.spec[kind]])

    def test_short_runs_verify_and_ledger_fits_e2e(self):
        for w in bench.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    lines = self.serve_wall("--workload", w, "--seed", "3", "--seconds", "1",
                                            "--trace", str(trace))
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    kind = "per_layer" if trace else "end_to_end"
                    self.assertEqual(list(res["metrics"]), [m["name"] for m in self.spec[kind]])
                    if trace:
                        # Replayed layer self times never exceed the
                        # requests' end-to-end wall time.
                        m = res["metrics"]
                        self.assertLessEqual(m["ledger.replayed_share"]["value"], 1.0)
                        self.assertGreaterEqual(m["serve.residual_ms_per_req"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
