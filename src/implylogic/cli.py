"""Command-line front end: compile, run, verify, simulate.

Reports serialize to JSON with a fixed key order so repeated runs are
byte-identical; analog traces export as CSV per the trace format.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import os
import shutil
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .core import ExecutionError, ImplyLogicError, Program, check_inputs, count_steps, run_program
from .ir import format_program, parse_program
from .synthesis import AdderPlan, GateKind, adder_plan, gen_adder_serial, synth_gate

if TYPE_CHECKING:  # annotations only: verify and analog load in the commands that run them
    from .verify import MetricsReport, Verdict

#: ``simulate`` circuit-parameter flag -> :class:`CircuitParams` field
PARAM_FLAGS = {"ron": "r_on", "roff": "r_off", "rg": "r_g", "vset": "v_set", "vcond": "v_cond",
               "vclear": "v_clear", "d": "d", "muv": "mu_v", "pulse-width": "pulse_width",
               "dt": "dt", "read-threshold": "read_threshold"}

#: most assignments ``simulate`` runs when no ``--set`` picks one
MAX_SIMULATE_CASES = 16

#: ``run --trace`` text held before one write: memory stays bounded however long the trace
TRACE_BATCH_CHARS = 1 << 20


class ReportDocument(NamedTuple):
    """Machine-readable verification report."""

    version: str
    program: str
    metrics: MetricsReport
    verdict: Verdict

    def to_dict(self) -> dict:
        doc = {
            "version": self.version,
            "program": self.program,
            "metrics": {**self.metrics._asdict(),
                        "baselines": [b._asdict() for b in self.metrics.baselines]},
            "verdict": {"pass": self.verdict.passed, "cases": self.verdict.cases},
        }
        if self.verdict.counterexample is not None:
            doc["verdict"]["counterexample"] = self.verdict.counterexample._asdict()
        return doc

    def serialize(self) -> str:
        import json
        return json.dumps(self.to_dict(), indent=2) + "\n"


def exhaustive_check(prog: Program, oracle) -> Verdict:  # verify's, loaded on the first call
    from .verify import exhaustive_check
    return exhaustive_check(prog, oracle)


def execute_analog(*args, **kwargs):  # analog's, loaded on the first call
    from .analog import execute_analog
    return execute_analog(*args, **kwargs)


def gate_program(name: str) -> Program:
    """Canonical single-gate program for a named gate."""
    return synth_gate(GateKind(name))


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
    prog = gate_program(args.gate) if args.adder is None else gen_adder_serial(args.adder)[0]
    text = format_program(prog)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"steps={count_steps(prog)} registers={len(prog.registers)}")
    return 0


def _load_program(path: str) -> Program:
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not text
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
    result, steps = run_program(prog, assign), count_steps(prog)
    if args.trace:  # one row "R=v R=v ...": an instruction rewrites only its target's level
        row = bytearray(" ".join(f"{r}={assign.get(r, 0)}" for r in prog.registers), "ascii")
        ends = itertools.accumulate(len(r) + 3 for r in prog.registers)  # each "R=v " ends there
        at = {r: end - 2 for r, end in zip(prog.registers, ends)}  # the byte of R's level
        lines, size = [], 0
        for i, (instr, level) in enumerate(zip(prog.body, result.trace)):
            row[at[instr.target]] = b"01"[level]
            lines.append(line := b"[%3d] %-14s %s\n" % (i, str(instr).encode(), row))
            if (size := size + len(line)) >= TRACE_BATCH_CHARS:  # names are ASCII: bytes = chars
                sys.stdout.write(b"".join(lines).decode())  # text: stdout may be a StringIO
                lines, size = [], 0
        sys.stdout.write(b"".join(lines).decode())
    if packed:
        s = sum(result.final[r] << i for i, r in enumerate(plan.sum_regs))
        cout = result.final[plan.carry]
        width = (plan.width + 3) // 4
        print(f"S=0x{s:0{width}X} Cout={cout} steps={steps}")
    else:
        outs = [f"{r}={result.final[r]}" for r in prog.outputs or prog.registers]
        print(" ".join([*outs, f"steps={steps}"]))
    return 0


def cmd_verify(args) -> int:
    from .verify import make_adder_oracle, make_gate_oracle, metrics
    prog = _load_program(args.program)
    oracle = (make_adder_oracle(adder_plan(prog)) if args.oracle == "adder"
              else make_gate_oracle(prog, GateKind(args.oracle)))
    verdict = exhaustive_check(prog, oracle)
    report = ReportDocument(__version__, args.program, metrics(prog), verdict)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.serialize())
    status = "pass" if verdict.passed else "FAIL"
    print(f"{status}: {verdict.cases} cases")
    if verdict.counterexample:
        ce = verdict.counterexample
        print(f"counterexample: {ce.assignment} expected {ce.expected} got {ce.actual}")
    return 0 if verdict.passed else 1


def cmd_simulate(args) -> int:
    from .analog import CircuitParams, PulseTable
    prog = _load_program(args.program)
    k = len(prog.inputs)
    if args.set:
        assignments = [_parse_set_flags(args.set)]
        check_inputs(prog, assignments[0])  # as execute_analog does, but before calibrating
    elif (1 << k) > MAX_SIMULATE_CASES:
        raise ExecutionError(
            f"{args.program}: {k} inputs give {1 << k} assignments, more than the "
            f"{MAX_SIMULATE_CASES} that simulate runs without --set; pick one with --set NAME=V")
    else:
        assignments = [dict(zip(prog.inputs, bits))
                       for bits in itertools.product((0, 1), repeat=k)]
    tags = ["".join(str(assign[r]) for r in prog.inputs) for assign in assignments]
    paths = [args.csv] * len(assignments)  # None: no CSV; "dir/" names no file to tag
    if args.csv and len(assignments) > 1 and not args.csv.endswith(os.sep):
        stem, ext = os.path.splitext(args.csv)  # one file per case, each assignment's bits as tag
        paths = [f"{stem}_{tag}{ext}" for tag in tags]
    for path in paths if args.csv is not None else ():  # fail as open() would, but first
        try:  # the parent as a directory ("dir/"): ENOTDIR where it is a file, as for open()
            os.stat(os.path.join(os.path.dirname(path.rstrip(os.sep)) or ".", "") if path else "")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        if os.path.isdir(path) or path.endswith(os.sep):  # "dir/" even where dir is missing
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    table, traces = PulseTable(), []  # one table for this command: probes and cases share pulses
    given = {name: getattr(args, name) for name in PARAM_FLAGS.values()}
    params = CircuitParams(**{n: v for n, v in given.items() if v is not None}).resolved(table)
    print(f"write_time_s={params.pulse_width:.6e}")
    for assign, tag in zip(assignments, tags):
        result = execute_analog(prog, params, assign, table=table)
        label = [f"[{tag}]"] if tag else []
        reads = [f"{r}={result.readouts[r]}" for r in prog.outputs or prog.registers]
        print(" ".join([*label, *reads, f"max_drift={result.max_drift:.4f}"]))
        traces.append(result.trace)
    # every case has run, so a CSV that fails to write follows every case's line
    for trace, path in zip(traces, paths) if args.csv is not None else ():
        with open(path, "wb") as fh:
            trace.to_csv(params, fh)
    return 0


#: subcommand -> its help line in the top-level usage, and the function it runs
COMMANDS = {"compile": ("emit .imply microcode for a gate or adder", cmd_compile),
            "run": ("execute a program on the logical machine", cmd_run),
            "verify": ("exhaustively check a program against an oracle", cmd_verify),
            "simulate": ("run a program on the analog device model", cmd_simulate)}


class _FloatOrIntToken:
    """The ``_negative_number_matcher`` of every command's parser: a token that
    ``float()`` or ``int(token, 0)`` accepts is a value even where it starts with "-"
    ("-1e-3", "-inf", "-0x1"), where argparse's own pattern takes only "-1" and "-1.5"."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            try:
                int(token, 0)
            except ValueError:
                return False
        return True


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full tree: the top level, its ``--version`` and every subcommand; or
    for a command, that command's parser alone, as the full tree holds it."""
    # the width each HelpFormatter would look up itself, once: every add_argument builds one
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    if command is None:
        parser = argparse.ArgumentParser(prog="implylogic", formatter_class=formatter,
                                         description="Memristor IMPLY-logic toolchain")
        parser.add_argument("--version", action="version", version=__version__)
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=text, formatter_class=formatter)
                   for name, (text, _) in COMMANDS.items()}
    else:
        parsers = {command: (parser := argparse.ArgumentParser(prog=f"implylogic {command}",
                                                               formatter_class=formatter))}
    for name, p in parsers.items():
        p.set_defaults(func=COMMANDS[name][1])
        p._negative_number_matcher = _FloatOrIntToken
    if p := parsers.get("compile"):
        target = p.add_mutually_exclusive_group(required=True)
        target.add_argument("--gate", choices=sorted(k.value for k in GateKind))
        target.add_argument("--adder", type=int, metavar="WIDTH")
        p.add_argument("-o", "--output")
    if p := parsers.get("run"):
        p.add_argument("program")
        p.add_argument("--set", action="append", metavar="REG=V")
        p.add_argument("--a", help="packed A operand for adder programs (e.g. 0xFF)")
        p.add_argument("--b", help="packed B operand for adder programs")
        p.add_argument("--cin", type=int, choices=(0, 1), help="carry-in with --a/--b (default 0)")
        p.add_argument("--trace", action="store_true")
    if p := parsers.get("verify"):
        p.add_argument("program")
        p.add_argument("--oracle", required=True,
                       choices=sorted(k.value for k in GateKind) + ["adder"])
        p.add_argument("--report", help="write a JSON report here")
    if p := parsers.get("simulate"):
        p.add_argument("program")
        p.add_argument("--set", action="append", metavar="REG=V")
        p.add_argument("--csv", help="write waveform CSV here; a sweep of several cases writes "
                       "one file per case, with _<case bits> before the extension")
        for flag, name in PARAM_FLAGS.items():
            p.add_argument(f"--{flag}", dest=name, type=float)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: a command's own parser parses its argv as the
    subparsers action would; the full tree parses the rest, so only it prints top-level
    texts, and every "--=X" token, which the top level rejects as ambiguous itself."""
    if argv and argv[0] in COMMANDS and not any(t.startswith("--=") for t in argv):
        args, rest = build_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ImplyLogicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:  # only program files are read
        print(f"error: {args.program}: not UTF-8 text: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
