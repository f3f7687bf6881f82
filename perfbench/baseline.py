#!/usr/bin/env python3
"""Re-measure the layer table of ROADMAP.md ("Baseline to beat").

    python3 perfbench/baseline.py

Each row is the median of ``REPEATS`` timed calls in this process, with
``time.perf_counter``.  Prints a Markdown table.  Takes about two minutes,
most of it in the adder10 sweep and the adder8 analog case.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from implylogic.analog import CircuitParams, calibrate_write_time, execute_analog  # noqa: E402
from implylogic.cli import gate_program  # noqa: E402
from implylogic.core import run_program  # noqa: E402
from implylogic.synthesis import gen_adder_serial  # noqa: E402
from implylogic.verify import exhaustive_check, make_adder_oracle, run_vectorized  # noqa: E402

import numpy as np  # noqa: E402

REPEATS = 3


def timed(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    adder8, plan8 = gen_adder_serial(8)
    adder10, plan10 = gen_adder_serial(10)
    lanes = np.arange(1 << 17, dtype=np.uint32)
    cols = {r: ((lanes >> (16 - i)) & 1).astype(np.uint8) for i, r in enumerate(adder8.inputs)}
    params = CircuitParams().resolved()
    nand = gate_program("nand")
    case8 = {r: 1 for r in adder8.inputs}

    rows = [
        ("`run_vectorized` adder8 (2^17 lanes)", lambda: run_vectorized(adder8, cols)),
        ("`exhaustive_check` adder8", lambda: exhaustive_check(adder8, make_adder_oracle(plan8))),
        ("`exhaustive_check` adder10", lambda: exhaustive_check(adder10, make_adder_oracle(plan10))),
        ("`gen_adder_serial(8)` (clobber derivation included)", lambda: gen_adder_serial(8)),
        ("`run_program` adder8, 1 case (scalar)", lambda: run_program(adder8, case8)),
        ("`calibrate_write_time` (defaults)", lambda: calibrate_write_time(CircuitParams())),
        ("`execute_analog` NAND, 1 case", lambda: execute_analog(nand, params, {"P": 1, "Q": 1})),
    ]
    print(f"| layer / workload | median of {REPEATS} |")
    print("|---|---|")
    for label, fn in rows:
        seconds, _ = timed(fn, REPEATS)
        print(f"| {label} | {seconds * 1e3:.1f} ms |")
    seconds, result = timed(lambda: execute_analog(adder8, params, case8), 1)
    print(f"| `execute_analog` adder8, 1 case ({len(result.trace.times)} trace rows) "
          f"| {seconds * 1e3:.0f} ms (1 run) |")
    seconds, _ = timed(lambda: result.trace.to_csv(params), 1)
    print(f"| `AnalogTrace.to_csv` for that trace | {seconds * 1e3:.0f} ms (1 run) |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
