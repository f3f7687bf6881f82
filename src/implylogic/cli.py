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
from typing import TYPE_CHECKING, Callable, NamedTuple

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
    if args.output is not None:
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
    if args.report is not None:
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
    """The ``_negative_number_matcher`` of every command's parser, and ``read_argv``'s
    test of a value: a token that ``float()`` or ``int(token, 0)`` accepts is a value even
    where it starts with "-" ("-1e-3", "-inf", "-0x1"), where argparse's own pattern takes
    only "-1" and "-1.5"."""

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


class Arg(NamedTuple):
    """One argument of a command, written once: ``build_parser`` declares it with
    ``add_argument`` and ``read_argv`` reads it.  With no option strings it is the
    command's positional, named ``dest``."""

    dest: str
    flags: tuple[str, ...] = ()
    action: str = "store"  # or "append", "store_true"
    type: Callable[[str], object] | None = None
    choices: tuple | None = None
    required: bool = False
    exclusive: bool = False  # one of the command's required mutually exclusive group
    metavar: str | None = None
    help: str | None = None


GATES = tuple(sorted(k.value for k in GateKind))
SET = Arg("set", ("--set",), "append", metavar="REG=V")

#: subcommand -> its arguments, in the order its usage lists them
ARGUMENTS = {
    "compile": (Arg("gate", ("--gate",), choices=GATES, exclusive=True),
                Arg("adder", ("--adder",), type=int, exclusive=True, metavar="WIDTH"),
                Arg("output", ("-o", "--output"))),
    "run": (Arg("program"), SET,
            Arg("a", ("--a",), help="packed A operand for adder programs (e.g. 0xFF)"),
            Arg("b", ("--b",), help="packed B operand for adder programs"),
            Arg("cin", ("--cin",), type=int, choices=(0, 1),
                help="carry-in with --a/--b (default 0)"),
            Arg("trace", ("--trace",), "store_true")),
    "verify": (Arg("program"),
               Arg("oracle", ("--oracle",), required=True, choices=(*GATES, "adder")),
               Arg("report", ("--report",), help="write a JSON report here")),
    "simulate": (Arg("program"), SET,
                 Arg("csv", ("--csv",), help="write waveform CSV here; a sweep of several "
                     "cases writes one file per case, with _<case bits> before the extension"),
                 *(Arg(name, (f"--{flag}",), type=float) for flag, name in PARAM_FLAGS.items())),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top level, its ``--version`` and every subcommand, with the
    subcommand's ``ARGUMENTS``."""
    # the width each HelpFormatter would look up itself, once: every add_argument builds one
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog="implylogic", formatter_class=formatter,
                                     description="Memristor IMPLY-logic toolchain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func) in COMMANDS.items():
        p = sub.add_parser(name, help=text, formatter_class=formatter)
        p.set_defaults(func=func)
        p._negative_number_matcher = _FloatOrIntToken
        group = None
        for arg in ARGUMENTS[name]:
            kwargs = {key: value for key, value in arg._asdict().items()
                      if value and key not in ("dest", "flags", "exclusive")}
            if not arg.flags:
                p.add_argument(arg.dest, **kwargs)
                continue
            if arg.exclusive and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            (group if arg.exclusive else p).add_argument(*arg.flags, dest=arg.dest, **kwargs)
    return parser


def _is_value(token: str) -> bool:
    """A command's parser takes ``token`` as a value, not as an option."""
    return token[:1] != "-" or _FloatOrIntToken.match(token)


def read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The ``Namespace`` the full tree parses ``argv`` into, read from ``ARGUMENTS``
    without building a parser, for a command followed by exact option strings, their
    values and the one positional.  None for everything else: no command first; an
    option that is not exactly one of the command's (help, ``--version``, ``--``,
    "--x=y", an abbreviation); an option without its value, or with a value that fails
    its type or choices; a value that starts with "-" and is no number; a missing or
    second positional; a missing required option; and for ``compile`` not exactly one
    of ``--gate`` and ``--adder``."""
    if not argv or argv[0] not in ARGUMENTS:
        return None
    args = ARGUMENTS[argv[0]]
    options = {flag: arg for arg in args for flag in arg.flags}
    positional = [arg for arg in args if not arg.flags]
    values = {arg.dest: False if arg.action == "store_true" else None for arg in args}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if (arg := options.get(token)) is None:
            if not positional or not _is_value(token):
                return None
            arg, text = positional.pop(), token
        elif arg.action == "store_true":
            values[arg.dest] = True
            continue
        elif (text := next(tokens, None)) is None or not _is_value(text):
            return None
        try:
            value = text if arg.type is None else arg.type(text)
        except ValueError:
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = [*(values[arg.dest] or ()), value] if arg.action == "append" else value
        seen.add(arg.dest)
    exclusive = [arg.dest in seen for arg in args if arg.exclusive]
    if positional or any(arg.required and arg.dest not in seen for arg in args) \
            or exclusive and sum(exclusive) != 1:
        return None
    return argparse.Namespace(command=argv[0], func=COMMANDS[argv[0]][1], **values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: ``read_argv`` reads the argv of its forms,
    and the full tree parses the rest, so only argparse prints help, usage and errors."""
    args = read_argv(argv)
    return build_parser().parse_args(argv) if args is None else args


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
