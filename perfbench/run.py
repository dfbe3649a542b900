#!/usr/bin/env python3
"""Repository benchmark: timed and traced orchestrator runs over rack workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the `perfbench` package (release, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs the workload.

A workload's cost depends on the rack its seed draws, so `--seed` picks
a panel of racks: rack 0 is the seed itself, racks 1.. are seeds derived
from it (`panel_seeds`); the panel size is the workload's `panel` in
`perfbench/workloads.json`. Each run is one simulator run in a fresh
process. `--trace 0` runs the panel round-robin until `--seconds` have
passed (every rack at least once) and reports, for each end-to-end
metric, the median over the racks of each rack's median.

Every run is checked: the accounting identities hold, and its summary
digest equals that rack's earlier runs and, for the default seed, the
reference pinned in `perfbench/workloads.json`. Once per invocation,
rack 0 also runs at the other worker count (one thread for a pooled
workload, one per core for a single-threaded one); its summary must not
change.

`--trace 1` times rack 0 alone for `--seconds`, then makes one traced
run of it (see `perfbench/src/traced.rs`) and reports the per-layer
metrics; the traced summary must equal the timed one. Spans, per-span
totals, the event trace and a per-metric source report land in
`.bench_out/<workload>-seed<N>/`; the timed records of either mode land
there as `runs.json`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Progress and failure reasons go to
stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
MASK64 = (1 << 64) - 1


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Builds the benchmark binary from the checkout's sources."""
    if not (ROOT / "crates" / "orchestrator" / "Cargo.toml").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'crates'}")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return target_dir() / "release" / "perfbench"


def child(binary, args):
    """Runs one perfbench process. Returns its JSON record, or None when
    it failed, timed out or printed nothing."""
    try:
        p = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def panel_seeds(seed, size):
    """The panel's rack seeds: the seed itself, then SplitMix64 draws
    keyed by (seed, rack index)."""
    seeds = [seed]
    for j in range(1, size):
        z = (seed ^ (j * 0x9E3779B97F4A7C15)) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        seeds.append(z ^ (z >> 31))
    return seeds


def failure_reasons(rec, expected_digest):
    """Why a run failed; empty when it passed."""
    if rec is None:
        return ["the run crashed, timed out or printed no result"]
    reasons = []
    if rec["placed"] != rec["completed"] + rec["evicted"] + rec["live_at_end"]:
        reasons.append("placed != completed + evicted + live_at_end")
    if rec["offered"] != rec["placed"] + rec["abandoned"]:
        reasons.append("offered != placed + abandoned")
    if expected_digest is not None and rec["digest"] != expected_digest:
        reasons.append(f"summary digest {rec['digest']} != expected {expected_digest}")
    return reasons


class Tally:
    """Counts attempted and failed runs. Each rack's runs are held to one
    digest: the pinned reference, else the rack's first passing run."""

    def __init__(self, references=None):
        self.expected = dict(references or {})
        self.attempted = 0
        self.failed = 0

    def check(self, what, rack, rec):
        self.attempted += 1
        reasons = failure_reasons(rec, self.expected.get(rack))
        if reasons:
            self.failed += 1
            print(f"perfbench: {what} (rack seed {rack}) failed: {'; '.join(reasons)}",
                  file=sys.stderr)
            return False
        self.expected.setdefault(rack, rec["digest"])
        return True


def timed_runs(binary, racks, extra, seconds, tally):
    """Round-robin timed runs over `racks` until `seconds` passed, every
    rack run at least once and at least MIN_RUNS runs made. Returns the
    passing records per rack."""
    passed = {rack: [] for rack in racks}
    deadline = time.monotonic() + seconds
    i = 0
    while i < max(len(racks), MIN_RUNS) or time.monotonic() < deadline:
        rack = racks[i % len(racks)]
        rec = child(binary, ["run", "--seed", str(rack), *extra])
        if tally.check(f"timed run {i + 1}", rack, rec):
            passed[rack].append(rec)
        i += 1
    return passed


def panel_median(passed, key):
    """Median over the racks of each rack's median of `key`."""
    per_rack = [statistics.median(key(r) for r in recs) for recs in passed.values() if recs]
    if not per_rack:
        raise BenchError("no timed run passed")
    return statistics.median(per_rack)


def end_to_end(passed):
    return {
        "setup_s": panel_median(passed, lambda r: r["setup_cpu_s"]),
        "cpu_s": panel_median(passed, lambda r: r["cpu_s"]),
        "node_ticks_per_cpu_s": panel_median(
            passed, lambda r: r["node_tick_slots"] / (r["cpu_s"] - r["setup_cpu_s"])),
        "peak_rss_mb": panel_median(passed, lambda r: r["peak_rss_mb"]),
    }


def declared(spec, section, values):
    """`values` in `BENCHMARK.json` order with the declared units; the
    names must match the declared set exactly."""
    names = [m["name"] for m in spec[section]]
    if set(names) != set(values):
        missing, extra = set(names) - set(values), set(values) - set(names)
        raise BenchError(f"{section} mismatch: missing {sorted(missing)}, undeclared {sorted(extra)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def run(args, spec, notes, binary):
    workload = notes["workloads"][args.workload]
    # Any integer seed maps onto the simulator's u64 seed space.
    racks = panel_seeds(args.seed & MASK64, 1 if args.trace else workload["panel"])
    pinned = {} if args.tiny else notes["reference_digests"][args.workload]
    tally = Tally({r: pinned[str(r)] for r in racks if str(r) in pinned})
    extra = ["--workload", args.workload] + (["--tiny"] if args.tiny else [])
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)

    passed = timed_runs(binary, racks, extra, args.seconds, tally)
    (out_dir / "runs.json").write_text(json.dumps(passed, indent=1) + "\n")
    rack0 = passed[racks[0]]

    # Once per invocation: rack 0 at the other worker count (one thread
    # for a pooled workload, one per core for a single-threaded one) must
    # reproduce the summary byte for byte.
    pooled = any(r["workers"] > 1 for recs in passed.values() for r in recs)
    other = "1" if pooled else "0"
    rec = child(binary, ["run", "--seed", str(racks[0]), *extra, "--threads", other])
    tally.check(f"run at --threads {other}", racks[0], rec)

    if not args.trace:
        return tally, declared(spec, "end_to_end", end_to_end(passed))

    if not rack0:
        raise BenchError("no timed run of rack 0 passed")
    rec = child(binary, ["trace", "--seed", str(racks[0]), *extra, "--out", str(out_dir)])
    if not tally.check("traced run", racks[0], rec):
        raise BenchError("the traced run failed")
    if rec["replica_matches"] is False:
        print("perfbench: warning: the serving-loop replica diverged from the summary",
              file=sys.stderr)
    layers = rec["metrics"]
    timed_cpu = statistics.median(r["cpu_s"] for r in rack0)
    layers["telemetry.overhead_frac"] = {
        "value": rec["cpu_s"] / timed_cpu - 1.0, "unit": "ratio",
        "source": "traced run_with_telemetry cpu_s / timed median cpu_s - 1",
    }
    report = {name: {**m, "moves": workload["moves"].get(name)} for name, m in layers.items()}
    report["_replica_matches_summary"] = rec["replica_matches"]
    (out_dir / "layers.json").write_text(json.dumps(report, indent=1) + "\n")
    return tally, declared(spec, "per_layer", {k: v["value"] for k, v in layers.items()})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="8 nodes, 60 s horizon: for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        notes = load_json(BENCH / "workloads.json")
        if args.workload not in notes["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        binary = build()
        tally, metrics = run(args, spec, notes, binary)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
