"""Command-line front end: compile, run, verify, simulate.

Reports serialize to JSON with a fixed key order so repeated runs are
byte-identical; analog traces export as CSV per the trace format.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .analog import AnalogError, CircuitParams, PulseTable, execute_analog
from .core import ExecutionError, Program, check_inputs, count_steps, run_program
from .ir import ParseError, format_program, parse_program
from .synthesis import (GATES, AdderPlan, GateKind, SynthesisError, adder_plan,
                        gen_adder_serial, synth_gate)
from .verify import (MetricsReport, Verdict, VerificationError, exhaustive_check,
                     make_adder_oracle, metrics)

#: ``simulate`` circuit-parameter flag -> :class:`CircuitParams` field
PARAM_FLAGS = {"ron": "r_on", "roff": "r_off", "rg": "r_g", "vset": "v_set", "vcond": "v_cond",
               "vclear": "v_clear", "d": "d", "muv": "mu_v", "pulse-width": "pulse_width",
               "dt": "dt", "read-threshold": "read_threshold"}

#: most assignments ``simulate`` runs when no ``--set`` picks one
MAX_SIMULATE_CASES = 16


@dataclass
class ReportDocument:
    """Machine-readable verification report."""

    version: str
    program: str
    metrics: MetricsReport
    verdict: Verdict

    def to_dict(self) -> dict:
        doc = {
            "version": self.version,
            "program": self.program,
            "metrics": asdict(self.metrics),
            "verdict": {"pass": self.verdict.passed, "cases": self.verdict.cases},
        }
        if self.verdict.counterexample is not None:
            doc["verdict"]["counterexample"] = asdict(self.verdict.counterexample)
        return doc

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def gate_program(name: str) -> Program:
    """Canonical single-gate program for a named gate."""
    kind = GateKind(name)
    spec = GATES[kind]
    frag = synth_gate(kind, *spec.names[:spec.arity], work=spec.names[spec.arity:])
    return Program(registers=frag.registers, inputs=frag.operands,
                   outputs=(frag.result,), body=frag.body)


def _gate_oracle(prog: Program, kind: GateKind):
    spec = GATES[kind]
    if len(prog.inputs) != spec.arity:
        raise VerificationError(
            f"oracle '{kind.value}' arity does not match {len(prog.inputs)} program inputs")
    if not prog.outputs:
        raise VerificationError(
            f"oracle '{kind.value}' checks the first .out register; none is declared")
    ins, out = prog.inputs, prog.outputs[0]
    rows = [row for row in itertools.product((0, 1), repeat=spec.arity) if spec.truth(*row)]

    def oracle(cols):  # the OR of the minterms of the rows where the gate gives 1
        return {out: np.bitwise_or.reduce([np.bitwise_and.reduce(
            [cols[r] if v else ~cols[r] for r, v in zip(ins, row)]) for row in rows])}

    return oracle


def _parse_set_flags(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if value not in ("0", "1"):
            raise ExecutionError(f"--set takes NAME=0 or NAME=1, got '{pair}'")
        if name in out:
            raise ExecutionError(f"--set gives register '{name}' twice")
        out[name] = int(value)
    return out


def _operand(flag: str, text: str | None) -> int:
    if text is None:
        raise ExecutionError("--a and --b must be given together")
    try:
        return int(text, 0)
    except ValueError:
        raise ExecutionError(f"{flag} takes an integer such as 0xFF, got '{text}'") from None


def _packed_inputs(plan: AdderPlan, args) -> dict[str, int]:
    a, b = _operand("--a", args.a), _operand("--b", args.b)
    n = plan.width
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        raise ExecutionError(f"packed operands must fit in {n} bits")
    assign = {r: (a >> i) & 1 for i, r in enumerate(plan.a_regs)}
    assign.update({r: (b >> i) & 1 for i, r in enumerate(plan.b_regs)})
    assign[plan.carry] = args.cin or 0
    return assign


def cmd_compile(args) -> int:
    if args.adder is None:
        prog = gate_program(args.gate)
    else:
        prog, _ = gen_adder_serial(args.adder)
    text = format_program(prog)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"steps={count_steps(prog)} registers={len(prog.registers)}")
    return 0


def _load_program(path: str) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())


def cmd_run(args) -> int:
    prog = _load_program(args.program)
    packed = args.a is not None or args.b is not None
    if packed and args.set:
        raise ExecutionError("--set does not combine with --a/--b; give the carry-in with --cin")
    if packed:
        plan = adder_plan(prog)
        assign = _packed_inputs(plan, args)
    elif args.cin is not None:
        raise ExecutionError("--cin needs --a and --b; set a carry register with --set NAME=V")
    else:
        assign = _parse_set_flags(args.set or [])
    result = run_program(prog, assign)
    if args.trace:
        for i, instr, state in result.trace:
            levels = " ".join(f"{r}={state[r]}" for r in prog.registers)
            print(f"[{i:3d}] {str(instr):<14} {levels}")
    if packed:
        s = sum(result.final[r] << i for i, r in enumerate(plan.sum_regs))
        cout = result.final[plan.carry]
        width = (plan.width + 3) // 4
        print(f"S=0x{s:0{width}X} Cout={cout} steps={result.steps}")
    else:
        outs = " ".join(f"{r}={result.final[r]}" for r in (prog.outputs or prog.registers))
        print(f"{outs} steps={result.steps}")
    return 0


def cmd_verify(args) -> int:
    prog = _load_program(args.program)
    if args.oracle == "adder":
        oracle = make_adder_oracle(adder_plan(prog))
    else:
        oracle = _gate_oracle(prog, GateKind(args.oracle))
    verdict = exhaustive_check(prog, oracle)
    report = ReportDocument(
        version=__version__,
        program=args.program,
        metrics=metrics(prog),
        verdict=verdict,
    )
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.serialize())
    status = "pass" if verdict.passed else "FAIL"
    print(f"{status}: {verdict.cases} cases")
    if verdict.counterexample:
        ce = verdict.counterexample
        print(f"counterexample: {ce.assignment} expected {ce.expected} got {ce.actual}")
    return 0 if verdict.passed else 1


def _params_from_args(args) -> CircuitParams:
    given = {name: getattr(args, name) for name in PARAM_FLAGS.values()}
    return CircuitParams(**{name: v for name, v in given.items() if v is not None})


def cmd_simulate(args) -> int:
    prog = _load_program(args.program)
    k = len(prog.inputs)
    if args.set:
        assignments = [_parse_set_flags(args.set)]
    elif (1 << k) > MAX_SIMULATE_CASES:
        raise ExecutionError(
            f"{args.program}: {k} inputs give {1 << k} assignments, more than the "
            f"{MAX_SIMULATE_CASES} that simulate runs without --set; pick one with --set NAME=V")
    else:
        assignments = [dict(zip(prog.inputs, bits))
                       for bits in itertools.product((0, 1), repeat=k)]
    for assign in assignments:  # as execute_analog checks each case, but before calibrating
        check_inputs(prog, assign, AnalogError)
    paths = [args.csv] * len(assignments)  # None: no CSV
    if args.csv and len(assignments) > 1:  # one file per case, each assignment's bits as tag
        stem, ext = os.path.splitext(args.csv)
        paths = [f"{stem}_{''.join(map(str, assign.values()))}{ext}" for assign in assignments]
    for path in paths if args.csv is not None else ():  # fail as open() would, but first
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not path or not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    params = _params_from_args(args).resolved()
    print(f"write_time_s={params.pulse_width:.6e}")
    table = PulseTable()  # shared by this command's cases, which revisit few start states
    for assign, path in zip(assignments, paths):
        result = execute_analog(prog, params, assign, table=table)
        tag = "".join(str(assign[r]) for r in prog.inputs)
        regs = prog.outputs or prog.registers
        reads = " ".join(f"{r}={result.readouts[r]}" for r in regs)
        label = f"[{tag}] " if tag else ""
        print(f"{label}{reads} max_drift={result.drift.max_drift:.4f}")
        if path is not None:
            with open(path, "w") as fh:
                result.trace.to_csv(params, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="implylogic",
                                     description="Memristor IMPLY-logic toolchain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="emit .imply microcode for a gate or adder")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--gate", choices=sorted(k.value for k in GateKind))
    target.add_argument("--adder", type=int, metavar="WIDTH")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a program on the logical machine")
    p.add_argument("program")
    p.add_argument("--set", action="append", metavar="REG=V")
    p.add_argument("--a", help="packed A operand for adder programs (e.g. 0xFF)")
    p.add_argument("--b", help="packed B operand for adder programs")
    p.add_argument("--cin", type=int, choices=(0, 1), help="carry-in with --a/--b (default 0)")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="exhaustively check a program against an oracle")
    p.add_argument("program")
    p.add_argument("--oracle", required=True, choices=sorted(k.value for k in GateKind) + ["adder"])
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a program on the analog device model")
    p.add_argument("program")
    p.add_argument("--set", action="append", metavar="REG=V")
    p.add_argument("--csv", help="write waveform CSV here")
    for flag, name in PARAM_FLAGS.items():
        p.add_argument(f"--{flag}", dest=name, type=float)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ExecutionError, SynthesisError, VerificationError,
            AnalogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:  # only program files are read
        print(f"error: {args.program}: not UTF-8 text: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
