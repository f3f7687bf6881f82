"""Command-line front end: compile, run, verify, simulate.

Reports serialize to JSON with a fixed key order so repeated runs are
byte-identical; analog traces export as CSV per the trace format.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass

from . import __version__
from .analog import AnalogError, CalibrationError, CircuitParams, execute_analog
from .core import ExecutionError, Program, count_steps, run_program
from .ir import ParseError, format_program, parse_program
from .synthesis import (AdderPlan, GateKind, SynthesisError, gen_adder_serial, synth_gate)
from .verify import (MetricsReport, Verdict, VerificationError, exhaustive_check,
                     make_adder_oracle, metrics)

GATE_FUNCS = {
    "not": lambda a, b: 1 - a,
    "nand": lambda a, b: 1 - (a & b),
    "and": lambda a, b: a & b,
    "nor": lambda a, b: 1 - (a | b),
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


@dataclass
class ReportDocument:
    """Machine-readable verification report."""

    version: str
    program: str
    metrics: MetricsReport
    verdict: Verdict
    analog: dict | None = None  # {"write_time_s", "max_drift", "agreement"}

    def to_dict(self) -> dict:
        doc = {
            "version": self.version,
            "program": self.program,
            "metrics": {
                "steps": self.metrics.steps,
                "registers": self.metrics.registers,
                "false_count": self.metrics.false_count,
                "imply_count": self.metrics.imply_count,
                "baselines": [
                    {"name": b.name, "steps": b.steps, "registers": b.registers,
                     "improvement": b.improvement}
                    for b in self.metrics.baselines
                ],
            },
            "verdict": {"pass": self.verdict.passed, "cases": self.verdict.cases},
        }
        if self.verdict.counterexample is not None:
            ce = self.verdict.counterexample
            doc["verdict"]["counterexample"] = {
                "assignment": ce.assignment, "expected": ce.expected, "actual": ce.actual,
            }
        if self.analog is not None:
            doc["analog"] = dict(self.analog)
        return doc

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ReportDocument":
        from .verify import BaselineComparison, Counterexample
        m = doc["metrics"]
        rep = MetricsReport(
            steps=m["steps"], registers=m["registers"],
            false_count=m["false_count"], imply_count=m["imply_count"],
            baselines=tuple(
                BaselineComparison(b["name"], b["steps"], b["registers"], b["improvement"])
                for b in m["baselines"]
            ),
        )
        v = doc["verdict"]
        ce = None
        if "counterexample" in v:
            c = v["counterexample"]
            ce = Counterexample(c["assignment"], c["expected"], c["actual"])
        verdict = Verdict(v["pass"], v["cases"], ce)
        return cls(doc["version"], doc["program"], rep, verdict, doc.get("analog"))


def gate_program(name: str) -> Program:
    """Canonical single-gate program for a named gate."""
    kind = GateKind(name)
    if kind is GateKind.NOT:
        frag = synth_gate(kind, "P", work=("S",))
    elif kind in (GateKind.XOR_V1, GateKind.XOR_V2):
        frag = synth_gate(kind, "A", "B", ("M0", "M1"))
    elif kind in (GateKind.NAND,):
        frag = synth_gate(kind, "P", "Q", ("S",))
    elif kind is GateKind.OR:
        frag = synth_gate(kind, "P", "Q", ("T",))
    else:
        frag = synth_gate(kind, "P", "Q", ("S", "T"))
    return Program(
        registers=frag.registers,
        inputs=frag.operands,
        outputs=(frag.result,),
        body=frag.body,
    )


def _adder_plan_from_program(prog: Program) -> AdderPlan:
    """Recover the register plan of a gen_adder_serial-shaped program."""
    a_regs = tuple(r for r in prog.inputs if r.startswith("A") and r[1:].isdigit())
    b_regs = tuple(r for r in prog.inputs if r.startswith("B") and r[1:].isdigit())
    n = len(a_regs)
    if n == 0 or len(b_regs) != n or "C" not in prog.inputs:
        raise VerificationError("program does not look like a serial adder (need A0.., B0.., C inputs)")
    a_regs = tuple(sorted(a_regs, key=lambda r: int(r[1:])))
    b_regs = tuple(sorted(b_regs, key=lambda r: int(r[1:])))
    work = tuple(r for r in prog.registers if r not in a_regs + b_regs + ("C",))
    return AdderPlan(
        width=n, a_regs=a_regs, b_regs=b_regs, carry="C", work=work,
        sum_regs=a_regs, steps_per_bit=count_steps(prog) // n,
        total_steps=count_steps(prog), total_registers=len(prog.registers),
    )


def _gate_oracle(prog: Program, name: str):
    fn = GATE_FUNCS[name]
    ins, out = prog.inputs, prog.outputs[0]

    def oracle(assignment):
        a = assignment[ins[0]]
        b = assignment[ins[1]] if len(ins) > 1 else 0
        return {out: fn(a, b)}

    return oracle


def _parse_set_flags(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if value not in ("0", "1"):
            raise ExecutionError(f"--set takes NAME=0 or NAME=1, got '{pair}'")
        out[name] = int(value)
    return out


def _packed_inputs(prog: Program, a: int, b: int, cin: int) -> dict[str, int]:
    plan = _adder_plan_from_program(prog)
    n = plan.width
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        raise ExecutionError(f"packed operands must fit in {n} bits")
    assign = {r: (a >> i) & 1 for i, r in enumerate(plan.a_regs)}
    assign.update({r: (b >> i) & 1 for i, r in enumerate(plan.b_regs)})
    assign[plan.carry] = cin
    return assign


def cmd_compile(args) -> int:
    if args.adder is not None:
        if args.adder < 1:
            print("error: width must be >= 1", file=sys.stderr)
            return 1
        prog, plan = gen_adder_serial(args.adder)
        steps, regs = plan.total_steps, plan.total_registers
    else:
        try:
            prog = gate_program(args.gate)
        except ValueError:
            print(f"error: unknown gate '{args.gate}'", file=sys.stderr)
            return 1
        steps, regs = count_steps(prog), len(prog.registers)
    text = format_program(prog)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"steps={steps} registers={regs}")
    return 0


def _load_program(path: str) -> Program:
    with open(path) as fh:
        return parse_program(fh.read())


def cmd_run(args) -> int:
    prog = _load_program(args.program)
    if args.a is not None or args.b is not None:
        assign = _packed_inputs(prog, int(args.a, 0), int(args.b, 0), args.cin)
    else:
        assign = _parse_set_flags(args.set or [])
    result = run_program(prog, assign)
    if args.trace:
        for i, instr, state in result.trace:
            levels = " ".join(f"{r}={state[r]}" for r in prog.registers)
            print(f"[{i:3d}] {str(instr):<14} {levels}")
    if args.a is not None or args.b is not None:
        plan = _adder_plan_from_program(prog)
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
        plan = _adder_plan_from_program(prog)
        oracle = make_adder_oracle(plan)
    else:
        if len(prog.inputs) != (1 if args.oracle == "not" else 2):
            raise VerificationError(
                f"oracle '{args.oracle}' arity does not match {len(prog.inputs)} program inputs")
        oracle = _gate_oracle(prog, args.oracle)
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
    kw = {}
    for flag, field_name in [("ron", "r_on"), ("roff", "r_off"), ("rg", "r_g"),
                             ("vset", "v_set"), ("vcond", "v_cond"), ("vclear", "v_clear"),
                             ("d", "d"), ("muv", "mu_v"), ("pulse_width", "pulse_width"),
                             ("dt", "dt"), ("read_threshold", "read_threshold")]:
        value = getattr(args, flag)
        if value is not None:
            kw[field_name] = value
    return CircuitParams(**kw)


def cmd_simulate(args) -> int:
    prog = _load_program(args.program)
    params = _params_from_args(args).resolved()
    print(f"write_time_s={params.pulse_width:.6e}")

    if args.set:
        assignments = [_parse_set_flags(args.set)]
    elif prog.inputs:
        assignments = [dict(zip(prog.inputs, bits))
                       for bits in itertools.product((0, 1), repeat=len(prog.inputs))]
    else:
        assignments = [{}]

    multi = len(assignments) > 1
    for assign in assignments:
        result = execute_analog(prog, params, assign)
        tag = "".join(str(assign[r]) for r in prog.inputs)
        regs = prog.outputs or prog.registers
        reads = " ".join(f"{r}={result.readouts[r]}" for r in regs)
        label = f"[{tag}] " if tag else ""
        print(f"{label}{reads} max_drift={result.drift.max_drift:.4f}")
        if args.csv:
            path = args.csv
            if multi:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}_{tag}.{ext}" if dot else f"{path}_{tag}"
            with open(path, "w") as fh:
                fh.write(result.trace.to_csv(params))
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
    p.add_argument("--cin", type=int, default=0, choices=(0, 1))
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="exhaustively check a program against an oracle")
    p.add_argument("program")
    p.add_argument("--oracle", required=True, choices=sorted(GATE_FUNCS) + ["adder"])
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a program on the analog device model")
    p.add_argument("program")
    p.add_argument("--set", action="append", metavar="REG=V")
    p.add_argument("--csv", help="write waveform CSV here")
    for flag in ("ron", "roff", "rg", "vset", "vcond", "vclear", "d", "muv",
                 "pulse-width", "dt", "read-threshold"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=float)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ExecutionError, SynthesisError, VerificationError,
            AnalogError, CalibrationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
