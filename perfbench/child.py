"""Run one battery or search pass in a fresh interpreter; print a JSON report.

    PYTHONPATH=src python3 perfbench/child.py battery|search SEED TRACE

The report holds the pass's spans, the speedometer's samples taken while
it ran, its checks attempted and failure messages, and (when TRACE is 1)
the tracer's totals and absent targets.
"""

from __future__ import annotations

import json
import sys

import passes
from speed import Speedometer
from tracer import Spans, Tracer


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans = Spans()
    tracer = Tracer() if trace else None
    speedometer = Speedometer()
    if workload == "battery":
        with speedometer:
            lines = passes.battery_pass(spans, tracer)
        attempted, failures = passes.check_battery(lines, passes.golden_lines())
    elif workload == "search":
        from hiddensums import cipher, hidden_sum

        with speedometer:
            found = passes.search_pass(spans, seed, tracer)
        identity = hidden_sum.find_hidden_sums([list(range(16))], [passes.SEARCH_WIDTH])
        attempted, failures = passes.check_search(found, identity, seed, cipher.toy_state_sum())
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    report = {
        "spans": spans.rows,
        "samples": speedometer.samples,
        "attempted": attempted,
        "failures": failures,
        "layers": tracer.snapshot() if tracer else None,
        "absent": tracer.absent if tracer else [],
    }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
