#!/usr/bin/env python3
"""Reproduce the headline result end to end.

Generates the 8-bit serial adder, reports its step/register metrics and
improvement over both baselines, verifies it exhaustively against the
arithmetic oracle over all 2^17 input cases, and runs the device-level
simulation of the NAND primitive at default circuit parameters.
"""

import argparse
import itertools
import time

from implylogic.analog import CircuitParams, execute_analog
from implylogic.core import run_program
from implylogic.ir import format_program
from implylogic.synthesis import gen_adder_serial
from implylogic.verify import MAX_INPUT_BITS, exhaustive_check, make_adder_oracle, metrics
from implylogic.cli import gate_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=8, help="adder width in bits")
    parser.add_argument("--emit", metavar="FILE", help="also write the program text")
    parser.add_argument("--skip-analog", action="store_true",
                        help="skip the device-level NAND simulation")
    args = parser.parse_args()
    max_width = (MAX_INPUT_BITS - 1) // 2
    if not 1 <= args.width <= max_width:
        parser.error(f"--width must be between 1 and {max_width}, got {args.width}")

    prog, plan = gen_adder_serial(args.width)
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(format_program(prog))
        print(f"wrote {args.emit}")

    rep = metrics(prog)
    print(f"{args.width}-bit serial adder: {rep.steps} steps "
          f"({rep.false_count} FALSE + {rep.imply_count} IMPLY), "
          f"{rep.registers} registers, {plan.steps_per_bit} steps/bit")
    for base in rep.baselines:
        print(f"  vs {base.name} ({base.steps} steps, {base.registers} registers): "
              f"{base.improvement:.1%} fewer steps")

    cases = 1 << (2 * args.width + 1)
    print(f"exhaustive check over {cases} input cases...")
    t0 = time.perf_counter()
    verdict = exhaustive_check(prog, make_adder_oracle(plan))
    elapsed = time.perf_counter() - t0
    if verdict.passed:
        print(f"  PASS: {verdict.cases} cases in {elapsed:.2f}s")
    else:
        ce = verdict.counterexample
        print(f"  FAIL: counterexample {ce.assignment} -> {ce.actual}, "
              f"expected {ce.expected}")
        return 1

    if not args.skip_analog:
        params = CircuitParams().resolved()
        print(f"device model: calibrated write pulse {params.pulse_width:.4f}s")
        nand = gate_program("nand")
        print("analog NAND readouts vs ideal:")
        for p, q in itertools.product((0, 1), repeat=2):
            assign = {"P": p, "Q": q}
            ideal = run_program(nand, assign).final["S"]
            result = execute_analog(nand, params, assign)
            got = result.readouts["S"]
            mark = "ok" if got == ideal else f"MISMATCH (drift {result.drift.max_drift:.3f})"
            print(f"  P={p} Q={q}: analog S={got}, ideal S={ideal}  {mark}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
