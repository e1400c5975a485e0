"""Tests of the benchmark itself: its checks catch wrong outputs, its
tracer sees every layer it names, and its result line follows
BENCHMARK.json.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The traced runs take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

import passes
import run
import speed
import tracer as tracer_mod
from tracer import TIMED, Spans, Tracer, layer_metrics, target_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hiddensums import cipher, gf2, hidden_sum, vbf  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BatteryCheck(unittest.TestCase):
    def test_golden_passes_and_a_corrupted_line_fails(self):
        golden = passes.golden_lines()
        self.assertEqual(len(golden), 14)
        self.assertTrue(golden[3].startswith("FAIL [ 4]"))
        self.assertEqual(passes.check_battery(list(golden), golden), (14, []))
        corrupted = list(golden)
        corrupted[7] = corrupted[7].replace("9167", "9166")
        attempted, failures = passes.check_battery(corrupted, golden)
        self.assertEqual((attempted, len(failures)), (14, 1))
        attempted, failures = passes.check_battery(golden[:-1], golden)
        self.assertEqual((attempted, len(failures)), (14, 1))


class SearchCheck(unittest.TestCase):
    seed = 11

    @classmethod
    def setUpClass(cls):
        cls.found = passes.search_pass(Spans(), cls.seed)
        cls.identity = hidden_sum.find_hidden_sums([list(range(16))], [passes.SEARCH_WIDTH])
        cls.trapdoor = cipher.toy_state_sum()

    def failures(self, **changes):
        found = {**self.found, **changes.pop("found", {})}
        identity = changes.pop("identity", self.identity)
        return passes.check_search(found, identity, self.seed, self.trapdoor)[1]

    def test_true_results_pass(self):
        self.assertEqual(self.failures(), [])

    def test_wrong_search_results_fail(self):
        self.assertEqual(len(self.failures(found={"bundled_d6": []})), 1)
        self.assertEqual(len(self.failures(found={"inversion_d6": [self.trapdoor]})), 1)
        table = passes.seeded_permutation(self.seed)
        outsider = next(s for s in self.identity if not passes.is_affine_for(table, s))
        extra = list(self.found["width4_cold"]) + [outsider]
        self.assertEqual(len(self.failures(found={"width4_cold": extra})), 1)
        self.assertEqual(len(self.failures(identity=self.identity[1:])), 1)

    def test_affinity_test_is_exhaustive(self):
        state = self.trapdoor
        self.assertTrue(passes.is_affine_for(cipher.builtin_toy_spec().core_table(), state))
        self.assertFalse(passes.is_affine_for(cipher.inverse_brick_spec().core_table(), state))


class AttackCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs = passes.AttackInputs(seed=5, rounds=1)
        cls.records = passes.attack_pass(Spans(), cls.inputs)

    def test_true_results_pass(self):
        attempted, failures = passes.check_attack(self.records, self.inputs)
        self.assertEqual(attempted, 5 * 128)
        self.assertEqual(failures, [])

    def test_transcript_with_other_than_seven_queries_fails(self):
        rec = dict(self.records[0])
        repr_, transcript = rec["cp"]
        rec["cp"] = (repr_, dataclasses.replace(transcript, encryption_count=8))
        failures = passes.check_attack([rec], self.inputs)[1]
        self.assertEqual(len(failures), 1)
        self.assertIn("cp query count", failures[0])

    def test_extra_oracle_query_fails(self):
        rec = self.records[1]
        oracle = rec["cpcc_oracles"][1]
        oracle.query(0)
        try:
            failures = passes.check_attack([rec], self.inputs)[1]
        finally:
            oracle.query_count -= 1
            oracle.log.pop()
        self.assertEqual(len(failures), 1)
        self.assertIn("cpcc query count", failures[0])

    def test_wrong_keyless_output_fails(self):
        rec = dict(self.records[2])
        forward, back = rec["keyless"]
        rec["keyless"] = (forward, back[::-1])
        self.assertEqual(len(passes.check_attack([rec], self.inputs)[1]), 1)


class TracerTest(unittest.TestCase):
    def test_rebinds_every_namespace_and_restores(self):
        orig = gf2.dot
        self.assertIs(vbf.dot, orig)
        t = Tracer()
        t.install()
        try:
            self.assertIsNot(gf2.dot, orig)
            self.assertIs(vbf.dot, gf2.dot)
            gf2.Subspace([1, 2], 3).orthogonal_complement()
            from_gf2 = t.calls("gf2.dot")
            vbf.component_space(cipher.toy_brick(), 1)
        finally:
            t.uninstall()
        self.assertIs(gf2.dot, orig)
        self.assertIs(vbf.dot, orig)
        self.assertGreater(from_gf2, 0)
        self.assertGreater(t.calls("gf2.dot"), from_gf2)
        self.assertEqual(t.calls("gf2.Subspace.orthogonal_complement"), 1)
        self.assertEqual(t.calls("vbf.component_space"), 1)
        self.assertGreater(t.stats["vbf.component_space"].self_s, 0.0)

    def test_missing_target_is_absent_not_an_error(self):
        targets = tracer_mod.TARGETS + (("gf2", None, "no_such_function", TIMED, "battery"),
                                         ("gf2", "NoSuchClass", "apply", TIMED, "battery"))
        with mock.patch.object(tracer_mod, "TARGETS", targets):
            t = Tracer()
            t.install()
            t.uninstall()
            metrics = layer_metrics(t.snapshot(), 1)
        self.assertEqual(t.absent, ["gf2.no_such_function", "gf2.NoSuchClass.apply"])
        self.assertEqual(metrics["gf2.no_such_function.calls"], (0.0, "count"))


class SpeedTest(unittest.TestCase):
    def test_reference_seconds_undo_a_slower_machine(self):
        ref = speed.REFERENCE_S
        # runs of the loop at full speed, then at half speed
        samples = [[0.0, ref], [1.0, 1.0 + ref], [2.0, 2.0 + 2 * ref], [3.0, 3.0 + 2 * ref]]
        fast = speed.ref_seconds(samples, ref, 1.0)
        slow = speed.ref_seconds(samples, 2.0 + 2 * ref, 3.0)
        self.assertAlmostEqual(fast, 1.0 - ref)
        self.assertAlmostEqual(slow, (1.0 - 2 * ref) / 2)
        # an interval spanning the loop's runs leaves them out
        whole = speed.ref_seconds(samples, 0.0, 3.0 + 2 * ref)
        middle = speed.ref_seconds(samples, 1.0 + ref, 2.0)
        self.assertAlmostEqual(whole, fast + middle + slow)
        self.assertEqual(speed.ref_seconds(samples, 5.0, 6.0), 0.0)

    def test_speedometer_samples_during_a_block(self):
        with speed.Speedometer() as meter:
            end = time.process_time() + 5 * speed.PERIOD_S
            while time.process_time() < end:
                pass
        self.assertGreaterEqual(len(meter.samples), 4)
        starts = [start for start, _ in meter.samples]
        self.assertEqual(starts, sorted(starts))
        self.assertIs(signal.getsignal(signal.SIGPROF), signal.SIG_DFL)


class BenchmarkContract(unittest.TestCase):
    def test_untraced_result_has_every_end_to_end_metric(self):
        result = result_of(run_bench("attack_r1", 0))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(result["failed"], 0)
        names = [m["name"] for m in SPEC["end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0.0, name)

    def test_every_layer_metric_is_nonzero_on_its_workload(self):
        names = sorted(m["name"] for m in SPEC["per_layer"])
        arrows = {}
        for layer, owner, attr, kind, workload in tracer_mod.TARGETS:
            base = target_name(layer, owner, attr)
            arrows[f"{base}.calls"] = workload
            if kind == TIMED:
                arrows[f"{base}.self_s"] = workload
            for counter in tracer_mod.EXTRA.get(base, ((),))[0]:
                arrows[f"{base}.{counter}"] = workload
        arrows["hidden_sum.find_hidden_sums.found_ratio"] = "search"
        arrows.update({f"reproduce.c{i:02d}_s": "battery" for i in range(1, 15)})
        arrows.update({name: "attack_r1" for name in run.ORACLE_COUNTS})
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload, 1))
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]), names)
                self.assertIn("trace_overhead_s", result["metrics"])
                for name, named in arrows.items():
                    if named == workload:
                        self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_a_child_that_overruns_is_killed(self):
        with mock.patch.object(run, "CHILD_TIMEOUT_S", 1):
            with self.assertRaises(RuntimeError):
                run.run_child([sys.executable, "-c", "import time; time.sleep(30)"])

    def test_fails_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("battery", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
