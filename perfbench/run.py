"""Benchmark of the hiddensums workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from src/ and
nothing is installed.  Each workload is a closed loop with one client: a
pass starts when the previous one has finished and been checked, until S
seconds have passed (and at least MIN_PASSES passes have run).  Battery
and search passes each run in a fresh interpreter, one at a time; attack
passes run in this process.  No threads are used.

With --trace 0 the result holds the end-to-end metrics: setup_s and
pass_s, both in reference seconds (speed.py): wall time corrected for the
processor speed measured alongside it.  With --trace 1 untraced and traced
passes alternate; the result holds the per-layer metrics of the traced
passes (per-pass means) and the tracing overhead, and the spans are
written to .perfbench/.  Detail lines
come first; the last line of standard output is the JSON result.  See
perfbench/README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import passes
import speed
from speed import Speedometer, ref_seconds
from tracer import Spans, Tracer, layer_metrics, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("battery", "search", "attack_r1", "attack_r1000")
SETUP_SAMPLES = 21
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
CRITERIA = 14
ORACLE_COUNTS = ("attack.oracle.queries", "attack.oracle.verification_queries")

# What a user of the workbench pays before any check: a fresh interpreter,
# the import, the bundled cipher, its hidden sum and the coordinate map.
# The reference loop runs in the same interpreter just before and just
# after, so that it sees the processor the set-up ran on; its times are
# printed and left out of the set-up time.
SETUP_CODE = """\
import speed
before = speed.loop_times()
from hiddensums import cipher, hidden_sum
cipher.builtin_toy_spec()
hidden_sum.CoordinateMap(cipher.toy_state_sum(), cipher.toy_coordinate_basis())
print(*before, *speed.loop_times())
"""


@dataclass
class Pass:
    traced: bool
    spans: Spans
    attempted: int
    failures: list
    layers: dict | None = None
    absent: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


def child_env() -> dict:
    """The package and the benchmark on the path, and bytecode caching on
    whatever the caller's environment says, as a user of the command line
    has it (the caches go to __pycache__ beside the sources)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python(*args: str) -> list[str]:
    """A fresh interpreter without the site module: the package needs only
    the standard library, and skipping site-packages keeps the installed
    environment out of the timings."""
    return [sys.executable, "-S", *args]


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion, capturing its output.

    The wait blocks until the child exits: a wait with a timeout polls at
    up to 50 ms intervals, which would quantize the set-up time.  SIGALRM
    bounds the wait instead; on expiry the child is killed and reaped.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with subprocess.Popen(
            args, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                out, err = proc.communicate()
            except ChildTimeout:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"child ran longer than {CHILD_TIMEOUT_S} s: {args}") from None
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {args}\n{err}")
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def measure_setup() -> tuple[float, float]:
    """One fresh interpreter running SETUP_CODE: (reference seconds, wall
    seconds), both without the reference loop's runs."""
    start = perf_counter()
    proc = run_child(python("-c", SETUP_CODE))
    loops = [float(t) for t in proc.stdout.split()]
    wall = perf_counter() - start - sum(loops)
    half = len(loops) // 2
    loop_s = (statistics.median(loops[:half]) + statistics.median(loops[half:])) / 2
    return wall * speed.REFERENCE_S / loop_s, wall


def child_passes(workload: str, seed: int):
    def one(traced: bool) -> Pass:
        proc = run_child(python(str(HERE / "child.py"), workload, str(seed), str(int(traced))))
        report = json.loads(proc.stdout)
        spans = Spans()
        spans.adopt(report["spans"], None)
        return Pass(
            traced,
            spans,
            report["attempted"],
            report["failures"],
            report["layers"],
            report["absent"],
            samples=report["samples"],
        )

    return one


def attack_passes(seed: int, rounds: int):
    inputs = passes.AttackInputs(seed, rounds)

    def one(traced: bool) -> Pass:
        spans = Spans()
        tracer = Tracer() if traced else None
        speedometer = Speedometer()
        with speedometer:
            records = passes.attack_pass(spans, inputs, tracer)
        attempted, failures = passes.check_attack(records, inputs)
        return Pass(
            traced,
            spans,
            attempted,
            failures,
            tracer.snapshot() if tracer else None,
            tracer.absent if tracer else [],
            passes.oracle_counts(records),
            speedometer.samples,
        )

    return one


def closed_loop(one_pass, seconds: float, trace: bool) -> tuple[list[Pass], list[tuple]]:
    """Passes back to back until `seconds` have passed.  A traced run
    traces every second pass and measures no set-up; an untraced run
    spreads SETUP_SAMPLES set-up measurements evenly over the run, between
    passes, so that their median sees the same machine as the passes."""
    setups = 0 if trace else SETUP_SAMPLES
    done: list[Pass] = []
    setup: list[tuple[float, float]] = []
    if setups:
        measure_setup()  # fills the bytecode cache; not counted
    start = perf_counter()
    while len(done) < MIN_PASSES or perf_counter() - start < seconds:
        due = min(setups, math.ceil(setups * (perf_counter() - start) / seconds))
        while len(setup) < due:
            setup.append(measure_setup())
        began = perf_counter()
        p = one_pass(trace and len(done) % 2 == 1)
        p.start, p.end = began, perf_counter()
        done.append(p)
    while len(setup) < setups:
        setup.append(measure_setup())
    return done, setup


def ref_durations(p: Pass, name: str) -> list[float]:
    """Reference seconds of each of the pass's spans called `name`."""
    return [ref_seconds(p.samples, start, end) for _, _, n, start, end in p.spans.rows if n == name]


def pass_seconds(p: Pass) -> float:
    """Reference seconds the pass spent in entry points: its top-level spans."""
    return sum(
        ref_seconds(p.samples, start, end) for _, parent, _, start, end in p.spans.rows if parent is None
    )


def pass_wall_seconds(p: Pass) -> float:
    """The same in wall seconds, the reference loop's runs included."""
    return sum(end - start for _, parent, _, start, end in p.spans.rows if parent is None)


def p90(values: list[float]) -> float:
    """Upper decile, interpolated between samples (defined from 2 samples)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def detail_metrics(workload: str, plain: list[Pass]) -> list[tuple[str, float, str, int]]:
    """The workload's own breakdown in reference seconds, from untraced
    passes: (name, value, unit, samples)."""

    def pooled(name):
        return [d for p in plain for d in ref_durations(p, name)]

    if workload == "battery":
        rows = [("battery_s", statistics.median(pooled("reproduce.run")), "s", len(plain))]
        for i in range(1, CRITERIA + 1):
            samples = pooled(f"c{i:02d}")
            if samples:
                rows.append((f"c{i:02d}_s", statistics.median(samples), "s", len(samples)))
        return rows
    if workload == "search":
        d6 = [
            sum(ref_durations(p, "find_hidden_sums.bundled_d6"))
            + sum(ref_durations(p, "find_hidden_sums.inversion_d6"))
            for p in plain
        ]
        w4 = pooled("find_hidden_sums.width4_cold")
        return [
            ("search6_s", statistics.median(d6), "s", len(d6)),
            ("enum4_s", statistics.median(w4), "s", len(w4)),
        ]
    rounds = workload.removeprefix("attack_")
    cp = [d * 1e3 for d in pooled("reconstruct_cp")]
    cpcc = [d * 1e3 for d in pooled("reconstruct_cpcc")]
    keyless = pooled("keyless")
    return [
        (f"recover_{rounds}_p50_ms", statistics.median(cp), "ms", len(cp)),
        (f"recover_{rounds}_p90_ms", p90(cp), "ms", len(cp)),
        (f"recover_cpcc_{rounds}_p50_ms", statistics.median(cpcc), "ms", len(cpcc)),
        (f"recover_cpcc_{rounds}_p90_ms", p90(cpcc), "ms", len(cpcc)),
        (
            "keyless_blocks_per_s",
            2 * len(passes.BLOCKS) * len(keyless) / sum(keyless),
            "blocks/s",
            len(keyless),
        ),
    ]


def trace_metrics(done: list[Pass]) -> dict:
    traced = [p for p in done if p.traced]
    plain = [p for p in done if not p.traced]
    totals: dict = {}
    for p in traced:
        merge(totals, p.layers)
    metrics = layer_metrics(totals, len(traced))
    for i in range(1, CRITERIA + 1):
        samples = [d for p in plain for d in ref_durations(p, f"c{i:02d}")]
        metrics[f"reproduce.c{i:02d}_s"] = (statistics.median(samples) if samples else 0.0, "s")
    for name in ORACLE_COUNTS:
        metrics[name] = (statistics.fmean(p.counts.get(name, 0) for p in done), "count")
    metrics["trace_overhead_s"] = (
        statistics.median(pass_seconds(p) for p in traced)
        - statistics.median(pass_seconds(p) for p in plain),
        "s",
    )
    return metrics


def write_spans(workload: str, seed: int, done: list[Pass]) -> Path:
    spans = Spans()
    for p in done:
        spans.adopt(p.spans.rows, spans.add("pass.traced" if p.traced else "pass", p.start, p.end))
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"columns": ["id", "parent", "name", "start", "end"], "rows": spans.rows}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hiddensums" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload in ("battery", "search"):
        one_pass = child_passes(args.workload, args.seed)
    else:
        one_pass = attack_passes(args.seed, int(args.workload.removeprefix("attack_r")))
    done, setup = closed_loop(one_pass, args.seconds, bool(args.trace))

    attempted = sum(p.attempted for p in done)
    failures = [f for p in done for f in p.failures]
    print(f"workload {args.workload}, seed {args.seed}, {len(done)} passes, trace {args.trace}")
    if args.trace:
        metrics = trace_metrics(done)
        for name in sorted({n for p in done for n in p.absent}):
            print(f"absent: {name} (reported as 0)")
        print(f"spans written to {write_spans(args.workload, args.seed, done).relative_to(ROOT)}")
    else:
        pass_s = [pass_seconds(p) for p in done]
        metrics = {
            "setup_s": (statistics.median(ref for ref, _ in setup), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
        }
        details = [
            ("pass_p90_s", p90(pass_s), "s", len(pass_s)),
            ("pass_wall_s", statistics.median(pass_wall_seconds(p) for p in done), "s", len(done)),
            ("setup_wall_s", statistics.median(wall for _, wall in setup), "s", len(setup)),
        ]
        for name, value, unit, n in details + detail_metrics(args.workload, done):
            print(f"  {name:28s} {value:12.6g} {unit:9s} n={n}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:12.6g} {unit}")
    print(f"failed {len(failures)} of {attempted} checks ({len(failures) / attempted:.4f})")
    for message in failures[:10]:
        print(f"  FAILED {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
