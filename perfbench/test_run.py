"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The end-to-end cases build `perfbench` (release) and run every workload
at its tiny size (8 nodes, 60 simulated seconds).
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((run.BENCH / "workloads.json").read_text())


def record(**overrides):
    rec = {"digest": "00000000000000aa", "offered": 10, "placed": 8, "abandoned": 2,
           "completed": 5, "evicted": 1, "live_at_end": 2}
    rec.update(overrides)
    return rec


class SpecTest(unittest.TestCase):
    def test_benchmark_json_has_exactly_the_contract_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_every_name_is_well_formed_and_unique(self):
        names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in SPEC[s]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)

    def test_notes_cover_exactly_the_declared_workloads(self):
        declared = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(NOTES["workloads"]), declared)
        self.assertEqual(set(NOTES["reference_digests"]), declared)
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for name, notes in NOTES["workloads"].items():
            self.assertLessEqual(set(notes["moves"]), per_layer, name)
            self.assertTrue(notes["loads"] and notes["bypasses"], name)


class JudgeTest(unittest.TestCase):
    def test_a_passing_run_sets_its_racks_expected_digest(self):
        tally = run.Tally()
        self.assertTrue(tally.check("run", 1, record()))
        self.assertEqual((tally.attempted, tally.failed), (1, 0))
        self.assertEqual(tally.expected, {1: "00000000000000aa"})

    def test_a_tampered_reference_digest_counts_as_a_failed_run(self):
        tally = run.Tally({1: "ffffffffffffffff"})
        self.assertFalse(tally.check("run", 1, record()))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_broken_identities_count_as_failed_runs(self):
        tally = run.Tally()
        self.assertFalse(tally.check("run", 1, record(live_at_end=3)))
        self.assertFalse(tally.check("run", 1, record(abandoned=1)))
        self.assertFalse(tally.check("run", 1, None))
        self.assertEqual((tally.attempted, tally.failed), (3, 3))

    def test_a_digest_that_changes_between_runs_of_one_rack_fails(self):
        tally = run.Tally()
        self.assertTrue(tally.check("run", 1, record()))
        self.assertTrue(tally.check("run", 2, record(digest="00000000000000bb")))
        self.assertFalse(tally.check("run", 1, record(digest="00000000000000bb")))
        self.assertEqual(tally.failed, 1)

    def test_the_pinned_references_match_the_panel_seeds(self):
        for name, pins in NOTES["reference_digests"].items():
            panel = run.panel_seeds(NOTES["default_seed"], NOTES["workloads"][name]["panel"])
            self.assertEqual(set(pins), {str(s) for s in panel}, name)

    def test_panel_seeds_are_distinct_and_start_with_the_seed(self):
        seeds = run.panel_seeds(2018, 40)
        self.assertEqual(seeds[0], 2018)
        self.assertEqual(len(set(seeds)), 40)
        self.assertEqual(seeds, run.panel_seeds(2018, 40))
        self.assertTrue(all(0 <= s < 2**64 for s in seeds))


class EndToEndTest(unittest.TestCase):
    def invoke(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "2018",
             "--seconds", "0", "--trace", str(trace), "--tiny"],
            cwd=run.ROOT, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_printed_metrics_equal_the_declared_set_on_every_workload(self):
        for w in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.invoke(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.MIN_RUNS)
                    declared = {m["name"]: m["unit"] for m in SPEC[section]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_unknown_workloads_exit_non_zero_without_a_result(self):
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
