import argparse
import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from implylogic import analog, cli
from implylogic.analog import CircuitParams, execute_analog
from conftest import random_program
from implylogic.cli import main
from implylogic.core import (ExecutionError, ImplyLogicError, _execute, count_steps, logic,
                             run_program)
from implylogic.ir import ParseError, format_program, parse_program
from implylogic.synthesis import GATES, SynthesisError, gen_adder_serial
from implylogic.verify import VerificationError


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_python(*argv, timeout=60):
    """``python argv...`` in a fresh process that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestCompile:
    def test_nand(self, tmp_path, capsys):
        path = tmp_path / "nand.imply"
        code, out, _ = run_cli("compile", "--gate", "nand", "-o", str(path), capsys=capsys)
        assert code == 0
        assert "steps=3" in out
        prog = parse_program(path.read_text())
        assert len(prog.body) == 3

    def test_adder8(self, tmp_path, capsys):
        path = tmp_path / "adder8.imply"
        code, out, _ = run_cli("compile", "--adder", "8", "-o", str(path), capsys=capsys)
        assert code == 0
        assert "steps=184" in out and "registers=21" in out
        prog = parse_program(path.read_text())
        assert len(prog.registers) <= 27

    def test_zero_width_rejected(self, capsys):
        code, _, err = run_cli("compile", "--adder", "0", capsys=capsys)
        assert code != 0
        assert "width must be >= 1" in err

    @pytest.mark.parametrize("width", ["65537", "99999999999"])
    def test_absurd_width_refused_at_once(self, tmp_path, width):
        # refused before the registers or the body are built: no MemoryError, no hang
        path = tmp_path / "wide.imply"
        proc = run_python("-m", "implylogic.cli", "compile", "--adder", width, "-o", str(path),
                          timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "", "error: width must be <= 65536\n")
        assert not path.exists()

    def test_compile_stdout(self, capsys):
        code, out, _ = run_cli("compile", "--gate", "not", capsys=capsys)
        assert code == 0
        assert "FALSE S" in out

    def test_byte_stable(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.imply", tmp_path / "b.imply"
        run_cli("compile", "--adder", "4", "-o", str(p1), capsys=capsys)
        run_cli("compile", "--adder", "4", "-o", str(p2), capsys=capsys)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture
def nand_path(tmp_path, capsys):
    path = tmp_path / "nand.imply"
    main(["compile", "--gate", "nand", "-o", str(path)])
    capsys.readouterr()
    return str(path)


@pytest.fixture
def adder8_path(tmp_path, capsys):
    path = tmp_path / "adder8.imply"
    main(["compile", "--adder", "8", "-o", str(path)])
    capsys.readouterr()
    return str(path)


def trace_lines(prog, assign) -> list[str]:
    """The trace of ``prog`` from ``assign`` by the per-register formula: per
    instruction, its index, its text and every register's level after it, in
    declaration order, the register file replayed in full."""
    state = {**dict.fromkeys(prog.registers, 0), **assign}
    return [f"[{i:3d}] {str(instr):<14} " + " ".join(f"{r}={state[r]}" for r in prog.registers)
            for i, instr in enumerate(_execute(prog.body, state, *logic(0, 1)))]


class TestRun:
    def test_nand_one_one(self, nand_path, capsys):
        code, out, _ = run_cli("run", nand_path, "--set", "P=1", "--set", "Q=1", capsys=capsys)
        assert code == 0
        assert "S=0 steps=3" in out

    def test_adder_packed(self, adder8_path, capsys):
        code, out, _ = run_cli("run", adder8_path, "--a", "0xFF", "--b", "0x01",
                               "--cin", "0", capsys=capsys)
        assert code == 0
        assert "S=0x00 Cout=1" in out

    @pytest.mark.parametrize("a, line", [("0x01", "S=0x01 Cout=0"), ("0", "S=0x00 Cout=0")])
    def test_adder_packed_zero_operand(self, adder8_path, capsys, a, line):
        assert run_cli("run", adder8_path, "--a", a, "--b", "0", capsys=capsys) == \
               (0, f"{line} steps=184\n", "")

    def test_missing_input_named(self, nand_path, capsys):
        code, _, err = run_cli("run", nand_path, "--set", "P=1", capsys=capsys)
        assert code != 0
        assert "Q" in err

    def test_trace(self, nand_path, capsys):
        code, out, _ = run_cli("run", nand_path, "--set", "P=1", "--set", "Q=0",
                               "--trace", capsys=capsys)
        assert code == 0
        assert "FALSE S" in out

    def test_program_without_registers_prints_no_leading_space(self, tmp_path, capsys):
        empty = tmp_path / "e.imply"
        empty.write_text("")
        code, out, _ = run_cli("run", str(empty), capsys=capsys)
        assert (code, out) == (0, "steps=0\n")

    @pytest.mark.parametrize("flags, message", [
        (["--a", "1"], "--a and --b must be given together"),
        (["--b", "1"], "--a and --b must be given together"),
        (["--a", "zz", "--b", "1"], "--a takes an integer such as 0xFF, got 'zz'"),
        (["--a", "1", "--b", "0xg"], "--b takes an integer such as 0xFF, got '0xg'"),
        (["--a", "0x100", "--b", "0"], "packed operands must fit in 8 bits"),
        # negative prefixed integers are values, not options
        (["--a", "-0x1", "--b", "0"], "packed operands must fit in 8 bits"),
        (["--a", "0", "--b", "-0b1"], "packed operands must fit in 8 bits"),
        (["--a", "-0o7", "--b", "0"], "packed operands must fit in 8 bits"),
    ])
    def test_bad_packed_operands_are_located_errors(self, adder8_path, capsys, flags, message):
        code, out, err = run_cli("run", adder8_path, *flags, capsys=capsys)
        assert code != 0
        assert err == f"error: {message}\n"
        assert out == ""

    def test_set_level_other_than_0_or_1_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("run", nand_path, "--set", "P=2", capsys=capsys)
        assert (code, out, err) == (1, "", "error: --set takes NAME=0 or NAME=1, got 'P=2'\n")

    def test_parse_error_located(self, tmp_path, capsys):
        bad = tmp_path / "bad.imply"
        bad.write_text(".regs P\nIMPLY P P\n")
        code, _, err = run_cli("run", str(bad), capsys=capsys)
        assert code != 0
        assert "2:" in err and "differ" in err

    def test_register_set_twice_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("run", nand_path, "--set", "P=1", "--set", "P=0",
                                 "--set", "Q=1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: --set gives register 'P' twice\n"

    @pytest.mark.parametrize("cin", ["0", "1"])
    def test_cin_without_operands_is_a_usage_error(self, nand_path, capsys, cin):
        code, out, err = run_cli("run", nand_path, "--cin", cin, "--set", "P=1", "--set", "Q=1",
                                 capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --cin needs --a and --b; set a carry register with --set NAME=V\n"

    @pytest.mark.parametrize("operands", [["--a", "1", "--b", "2"], ["--a", "1"]])
    def test_set_with_packed_operands_is_a_usage_error(self, adder8_path, capsys, operands):
        code, out, err = run_cli("run", adder8_path, *operands, "--set", "C=1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: --set does not combine with --a/--b; give the carry-in with --cin\n"

    def test_trace_lines_are_every_register_level_after_each_instruction(self, tmp_path, capsys):
        """``run --trace`` prints, per instruction, its index, its text and every
        register's level after it, in declaration order (the per-register
        formula), then the outputs line."""
        kinds = set()
        for seed in range(200):
            rng = random.Random(seed)
            prog = random_program(rng)
            assign = {r: rng.randint(0, 1) for r in prog.inputs}
            path = tmp_path / f"p{seed}.imply"
            path.write_text(format_program(prog))
            sets = [arg for r, v in assign.items() for arg in ("--set", f"{r}={v}")]
            code, out, err = run_cli("run", str(path), *sets, "--trace", capsys=capsys)
            result = run_program(prog, assign)
            lines = trace_lines(prog, assign)
            outs = [f"{r}={result.final[r]}" for r in prog.outputs or prog.registers]
            lines.append(" ".join([*outs, f"steps={count_steps(prog)}"]))
            assert (code, out, err) == (0, "\n".join(lines) + "\n", ""), seed
            kinds.update({"load" for instr in prog.body if not instr.is_step})
            kinds.update({"one register"} if len(prog.registers) == 1 else ())
            kinds.update({"no body"} if not prog.body else ())
        assert kinds == {"load", "one register", "no body"}

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_packed_trace_lines_are_every_register_level(self, width, tmp_path, capsys):
        """``run --a/--b/--cin --trace`` on an adder prints the lines of the per-register
        formula from the assignment its operands pack, then the sum line: every operand
        triple for widths 1 and 2, a seeded sample of 24 for widths 3 and 4."""
        prog, plan = gen_adder_serial(width)
        path = tmp_path / f"adder{width}.imply"
        path.write_text(format_program(prog))
        triples = list(itertools.product(range(1 << width), range(1 << width), (0, 1)))
        if width > 2:
            triples = random.Random(width).sample(triples, 24)
        for a, b, cin in triples:
            code, out, err = run_cli("run", str(path), "--a", str(a), "--b", str(b),
                                     "--cin", str(cin), "--trace", capsys=capsys)
            assign = {**{r: a >> i & 1 for i, r in enumerate(plan.a_regs)},
                      **{r: b >> i & 1 for i, r in enumerate(plan.b_regs)}, plan.carry: cin}
            total = a + b + cin
            lines = [*trace_lines(prog, assign), f"S=0x{total % (1 << width):X} "
                     f"Cout={total >> width} steps={23 * width}"]
            assert (code, out, err) == (0, "\n".join(lines) + "\n", ""), (a, b, cin)

    def test_trace_is_written_in_bounded_batches(self, tmp_path, adder8_path, monkeypatch):
        """``run --trace`` writes its lines whenever they reach ``cli.TRACE_BATCH_CHARS``:
        a 256-bit adder's 20 MB trace peaks at a small part of that in memory, and its
        bytes are those of a single write.  Adder8's 184 lines are one write."""
        class Digest:  # a stdout that keeps only a hash of what it receives
            def __init__(self):
                self.sha, self.writes = hashlib.sha256(), []

            def write(self, text):
                self.sha.update(text.encode())
                self.writes.append(len(text))

        def run_traced(path) -> Digest:  # the trace, then print's line and newline
            with contextlib.redirect_stdout(out := Digest()):
                assert main(["run", path, "--a", "0x5A", "--b", "0xC3", "--trace"]) == 0
            return out

        assert len(run_traced(adder8_path).writes) == 3
        wide = str(tmp_path / "adder256.imply")
        with contextlib.redirect_stdout(Digest()):
            main(["compile", "--adder", "256", "-o", wide])
        tracemalloc.start()
        try:
            batched = run_traced(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(batched.writes)
        assert size > 19e6 and peak < size / 4
        assert len(batched.writes) > 3
        assert max(batched.writes) < cli.TRACE_BATCH_CHARS + 4096  # a batch ends at one line
        monkeypatch.setattr(cli, "TRACE_BATCH_CHARS", float("inf"))
        whole = run_traced(wide)
        assert len(whole.writes) == 3
        assert whole.sha.digest() == batched.sha.digest()


FULL_TREE = ["implylogic", *(f"implylogic {name}" for name in cli.COMMANDS)]


@pytest.mark.parametrize("argv, commands", [
    (None, FULL_TREE),
    (["run", "p.imply", "--trace"], []),
    (["verify", "p.imply", "--oracle", "adder"], []),
    (["run", "verify"], []),
    (["simulate", "compile"], []),
    ([], FULL_TREE), (["-h"], FULL_TREE), (["bogus"], FULL_TREE), (["Run"], FULL_TREE),
    (["--version"], FULL_TREE), (["run", "p.imply", "--=x"], FULL_TREE),
    (["compile", "--gate", "nand", "extra"], FULL_TREE),
])
def test_build_parser_constructs_a_parser_for_each_named_subcommand_only(
        argv, commands, monkeypatch):
    """``parse_args`` builds no parser for an argv that ``read_argv`` reads, and the
    full tree alone for any other: no command first, top-level help or version, a
    "--=X" token, or a token left over.  ``build_parser()`` (argv None) builds the
    full tree."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    if argv is None:
        cli.build_parser()
    else:
        with contextlib.suppress(SystemExit):
            cli.parse_args(argv)
    assert built == commands


def test_build_parser_looks_up_the_terminal_width_once(monkeypatch):
    """Every ``add_argument`` builds a help formatter, and a formatter left to itself
    looks up the terminal's width: the formatters of one ``build_parser`` share one."""
    lookups = []
    size = shutil.get_terminal_size

    def counting(*args):
        lookups.append(args)
        return size(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    parser = cli.build_parser()
    parser.format_help()
    parser.format_usage()
    assert len(lookups) <= 1


#: tokens of a soup: every command's option strings, abbreviations, "--x=y" forms, "--",
#: help and version, and other tokens starting with "-"
NOISE = (*sorted({flag for *_, args in cli.COMMANDS.values() for arg in args
                  for flag in arg.flags}),
         "--gat", "--ad", "--out", "--s", "--tr", "--orac", "--rep", "--cs", "--vc", "--pulse",
         "--gate=nand", "--adder=8", "--report=r.json", "--set=P=1", "-ofile", "--=x",
         "--", "-h", "--help", "--version", "-", "-x", "-x y")

#: values of a soup: in and out of each option's type and choices, some starting with "-"
VALUES = ("nand", "xor9", "adder", "xyz", "Nand", "0", "1", "2", "8", "08", "0x1", "1e-3",
          "-1", "-1e-3", "-0x1", "-inf", "nan", "", " ", "-1 2", "P=1", "p.imply", "run")


def token_soup(rng: random.Random, command: str) -> list[str]:
    """An argv for ``command``, or now and then for no command: some of its arguments
    (the positional and required ones more often, some twice), each option with a
    value (mostly one it takes), and noise, in random order."""
    phrases = []
    for arg in cli.COMMANDS[command][2]:
        given = 0.8 if arg.required or arg.exclusive or not arg.flags else 0.3
        for _ in range(rng.choice((1, 1, 1, 2)) if rng.random() < given else 0):
            good = arg.choices or {int: ("8", "-0x1"), float: ("1e-3", "-1e-3")}.get(
                arg.type, ("p.imply", "P=1"))
            value = [] if arg.action == "store_true" else [
                str(rng.choice(good if rng.random() < 0.7 else VALUES))]
            phrases.append([*arg.flags[-1:], *value])
    phrases += [[rng.choice(NOISE + VALUES)] for _ in range(rng.choice((0, 0, 1, 2)))]
    rng.shuffle(phrases)
    first = command if rng.random() < 0.95 else rng.choice(("Run", "bogus", "", "-h"))
    return [first, *itertools.chain.from_iterable(phrases)]


def comparable(namespace) -> list[tuple[str, str]]:
    """A ``Namespace`` as its attributes' reprs by name: a NaN equals a NaN, and a
    value equals only a value of its own type."""
    return sorted((name, repr(value)) for name, value in vars(namespace).items())


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_read_argv_is_the_full_tree_or_falls_through(command):
    """Over seeded token soups, ``read_argv`` returns the ``Namespace`` the full tree
    parses, or None; and None wherever the full tree exits."""
    rng = random.Random(f"read_argv {command}")
    parser = cli.build_parser()
    read = 0
    for _ in range(2000):
        argv = token_soup(rng, command)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                full = parser.parse_args(argv)
            except SystemExit:
                full = None
        args = cli.read_argv(argv)
        if full is None:
            assert args is None, argv
        elif args is not None:
            assert comparable(args) == comparable(full), argv
            read += 1
    assert read >= 100  # it reads a share of the soups: falling through alone is no pass


class TestVerify:
    def test_adder_report(self, adder8_path, tmp_path, capsys):
        report = tmp_path / "r.json"
        code, out, _ = run_cli("verify", adder8_path, "--oracle", "adder",
                               "--report", str(report), capsys=capsys)
        assert code == 0
        assert "pass: 131072 cases" in out
        doc = json.loads(report.read_text())
        assert doc["verdict"]["pass"] is True
        assert doc["verdict"]["cases"] == 131072
        assert doc["metrics"]["steps"] == 184
        assert doc["metrics"]["registers"] <= 27
        by_name = {b["name"]: b for b in doc["metrics"]["baselines"]}
        assert by_name["serial-232"]["improvement"] == pytest.approx(48 / 232)

    def test_wrong_oracle_fails(self, nand_path, tmp_path, capsys):
        report = tmp_path / "r.json"
        code, out, _ = run_cli("verify", nand_path, "--oracle", "and",
                               "--report", str(report), capsys=capsys)
        assert code != 0
        doc = json.loads(report.read_text())
        assert doc["verdict"]["pass"] is False
        assert "counterexample" in doc["verdict"]

    def test_nand_oracle_passes(self, nand_path, capsys):
        code, _, _ = run_cli("verify", nand_path, "--oracle", "nand", capsys=capsys)
        assert code == 0

    def test_report_byte_stable(self, adder8_path, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("verify", adder8_path, "--oracle", "adder", "--report", str(r1), capsys=capsys)
        run_cli("verify", adder8_path, "--oracle", "adder", "--report", str(r2), capsys=capsys)
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("gate", ["xor9", "xor11"])
    def test_xor_forms_are_oracles(self, tmp_path, capsys, gate):
        path = tmp_path / f"{gate}.imply"
        main(["compile", "--gate", gate, "-o", str(path)])
        code, out, _ = run_cli("verify", str(path), "--oracle", gate, capsys=capsys)
        assert code == 0
        assert "pass: 4 cases" in out

    def test_gate_oracle_needs_an_output(self, tmp_path, capsys):
        path = tmp_path / "noout.imply"
        path.write_text(".regs P Q S\n.in P Q\nFALSE S\nIMPLY P S\nIMPLY Q S\n")
        code, _, err = run_cli("verify", str(path), "--oracle", "nand", capsys=capsys)
        assert code != 0
        assert ".out" in err

    def test_arity_mismatch(self, adder8_path, capsys):
        code, _, err = run_cli("verify", adder8_path, "--oracle", "nand", capsys=capsys)
        assert code != 0
        assert "arity" in err


class TestRenamedAdder:
    """The adder interface is the declared order, not the register names."""

    @pytest.fixture
    def renamed_path(self, tmp_path, capsys):
        main(["compile", "--adder", "4", "-o", str(tmp_path / "adder4.imply")])
        capsys.readouterr()
        text = (tmp_path / "adder4.imply").read_text()
        text = re.sub(r"\bA(\d)", r"X\1", text)
        text = re.sub(r"\bB(\d)", r"Y\1", text)
        text = re.sub(r"\bC\b", "K", text)
        path = tmp_path / "renamed.imply"
        path.write_text(text)
        assert ".in X0 X1 X2 X3 Y0 Y1 Y2 Y3 K\n" in text
        return str(path)

    def test_verifies(self, renamed_path, capsys):
        code, out, _ = run_cli("verify", renamed_path, "--oracle", "adder", capsys=capsys)
        assert code == 0
        assert "pass: 512 cases" in out

    def test_runs_packed(self, renamed_path, capsys):
        code, out, _ = run_cli("run", renamed_path, "--a", "0xB", "--b", "0x6", "--cin", "1",
                               capsys=capsys)
        assert code == 0
        assert out == "S=0x2 Cout=1 steps=92\n"

    def test_not_an_adder(self, nand_path, capsys):
        code, _, err = run_cli("run", nand_path, "--a", "1", "--b", "1", capsys=capsys)
        assert code != 0
        assert "an adder declares" in err


class TestSimulate:
    @pytest.fixture
    def xor9_path(self, tmp_path, capsys):
        path = tmp_path / "xor9.imply"
        main(["compile", "--gate", "xor9", "-o", str(path)])
        capsys.readouterr()
        return str(path)

    def test_xor9_single_case(self, xor9_path, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        code, out, _ = run_cli("simulate", xor9_path, "--set", "A=1", "--set", "B=0",
                               "--csv", str(csv), capsys=capsys)
        assert code == 0
        assert "M0=1" in out
        rows = [l for l in csv.read_text().splitlines()[1:] if not l.startswith("#")]
        times = [float(r.split(",")[0]) for r in rows]
        assert times == sorted(times)

    def test_program_without_registers_prints_no_leading_space(self, tmp_path, capsys):
        empty, csv = tmp_path / "e.imply", tmp_path / "e.csv"
        empty.write_text("")
        code, out, _ = run_cli("simulate", str(empty), "--csv", str(csv), capsys=capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["max_drift=0.0000"]
        assert csv.read_text() == "time_s,node_v\n"

    def test_case1_single_imply(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        code, out, _ = run_cli("simulate", str(case1), "--set", "P=0", "--set", "Q=0",
                               capsys=capsys)
        assert code == 0
        assert "Q=1" in out

    @pytest.mark.parametrize("flags", [["--set", "A=1", "--set", "B=0"], []],
                             ids=["one-case", "truth-table"])
    def test_stdout_same_with_and_without_csv(self, xor9_path, tmp_path, capsys, flags):
        code, bare, _ = run_cli("simulate", xor9_path, *flags, capsys=capsys)
        assert code == 0
        code, with_csv, _ = run_cli("simulate", xor9_path, *flags, "--csv",
                                    str(tmp_path / "t.csv"), capsys=capsys)
        assert code == 0
        assert with_csv == bare

    def test_csv_files_hold_each_case_trace_text(self, nand_path, tmp_path, capsys):
        code, _, _ = run_cli("simulate", nand_path, "--csv", str(tmp_path / "t.csv"),
                             capsys=capsys)
        assert code == 0
        prog, params = parse_program(Path(nand_path).read_text()), CircuitParams().resolved()
        for p, q in itertools.product((0, 1), repeat=2):
            trace = execute_analog(prog, params, {"P": p, "Q": q}).trace
            assert (tmp_path / f"t_{p}{q}.csv").read_text() == trace.to_csv(params)

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_csv_files_are_each_case_trace_ascii_bytes(self, gate, tmp_path, capsys):
        path = tmp_path / f"{gate}.imply"
        assert main(["compile", "--gate", gate, "-o", str(path)]) == 0
        code, _, _ = run_cli("simulate", str(path), "--csv", str(tmp_path / "t.csv"),
                             capsys=capsys)
        assert code == 0
        prog, params = parse_program(path.read_text()), CircuitParams().resolved()
        for levels in itertools.product((0, 1), repeat=len(prog.inputs)):
            trace = execute_analog(prog, params, dict(zip(prog.inputs, levels))).trace
            tag = "".join(map(str, levels))
            assert (tmp_path / f"t_{tag}.csv").read_bytes() == \
                trace.to_csv(params).encode("ascii")

    def test_one_to_csv_call_per_case_file(self, nand_path, tmp_path, capsys, monkeypatch):
        written, to_csv = [], analog.AnalogTrace.to_csv
        monkeypatch.setattr(analog.AnalogTrace, "to_csv",
                            lambda trace, params, fh=None: written.append(fh.name)
                            or to_csv(trace, params, fh))
        code, _, _ = run_cli("simulate", nand_path, "--csv", str(tmp_path / "t.csv"),
                             capsys=capsys)
        assert code == 0
        assert written == [str(tmp_path / f"t_{p}{q}.csv")
                           for p, q in itertools.product((0, 1), repeat=2)]

    def test_failing_third_csv_is_one_located_error(self, nand_path, tmp_path, capsys,
                                                    monkeypatch):
        opened = []

        def failing_open(path, mode="r", *args, **kwargs):
            if mode == "wb":
                opened.append(path)
                if len(opened) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        code, out, err = run_cli("simulate", nand_path, "--csv", str(tmp_path / "t.csv"),
                                 capsys=capsys)
        assert code == 1
        assert len(out.splitlines()) == 5  # the write time, then every case ran first
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{opened[2]}'\n"
        assert opened[2] == str(tmp_path / "t_10.csv")
        assert sorted(p.name for p in tmp_path.glob("t_*.csv")) == ["t_00.csv", "t_01.csv"]

    @pytest.mark.parametrize("flags", [["--set", "P=1", "--set", "Q=1"], []],
                             ids=["one-case", "truth-table"])
    def test_empty_csv_path_is_an_error(self, nand_path, tmp_path, capsys, monkeypatch, flags):
        def calibrate(params):
            raise AssertionError("calibrated before the CSV path was checked")

        monkeypatch.setattr(analog, "calibrate_write_time", calibrate)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code, out, err = run_cli("simulate", nand_path, *flags, "--csv", "", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("argv", [["compile", "--gate", "nand", "-o", ""],
                                      ["verify", "{nand}", "--oracle", "nand", "--report", ""]],
                             ids=["compile-output", "verify-report"])
    def test_empty_output_and_report_paths_are_errors(self, nand_path, tmp_path, capsys,
                                                       monkeypatch, argv):
        # an empty path names no file, as for simulate --csv: not stdout, not "no report"
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code, out, err = run_cli(*(a.format(nand=nand_path) for a in argv), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flags, message", [
        (["--set", "P=1"], "missing input assignment for register 'Q'"),
        (["--set", "P=1", "--csv", "t.csv"], "missing input assignment for register 'Q'"),
        (["--set", "P=1", "--set", "Q=1", "--set", "S=0"],
         "unmapped register 'S' in input assignment: not a declared input"),
    ], ids=["missing", "missing-with-csv", "unmapped"])
    def test_assignment_checked_before_calibrating(self, nand_path, tmp_path, capsys,
                                                    monkeypatch, flags, message):
        def calibrate(params):
            raise AssertionError("calibrated before the assignment was checked")

        monkeypatch.setattr(analog, "calibrate_write_time", calibrate)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code, out, err = run_cli("simulate", nand_path, *flags, capsys=capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flags", [["--ron", "1e-300", "--roff", "1e-299"],
                                       ["--ron", "1e154", "--roff", "1e155"]],
                             ids=["product-underflows", "product-overflows"])
    def test_extreme_rails_get_a_default_threshold(self, nand_path, capsys, flags):
        code, out, err = run_cli("simulate", nand_path, *flags, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.startswith("write_time_s=")
        assert len(out.splitlines()) == 5

    def test_huge_roff_fails_at_calibration(self, nand_path, capsys):
        code, out, err = run_cli("simulate", nand_path, "--roff", "1e308", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: case-1 drive does not switch the target (write time diverges)\n"

    def test_rails_within_one_percent_refused_at_calibration(self, nand_path, capsys):
        flags = ["--set", "P=1", "--set", "Q=1", "--ron", "1000"]
        code, out, err = run_cli("simulate", nand_path, *flags, "--roff", "1005", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == ("error: R_OFF = 1.005000e+03 ohm is within 1% of R_ON = 1.000000e+03 "
                       "ohm, so an unwritten target already reads as switched; set the pulse "
                       "width (--pulse-width)\n")
        code, out, err = run_cli("simulate", nand_path, *flags, "--roff", "1011", capsys=capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "write_time_s=3.212891e-03"

    def test_negative_ron_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("simulate", nand_path, "--ron", "-1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: require 0 < R_ON < read_threshold < R_OFF\n"

    def test_explicit_default_overrides_accepted(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        code, out, _ = run_cli(
            "simulate", str(case1), "--set", "P=0", "--set", "Q=0",
            "--rg", "10e3", "--ron", "1e3", "--roff", "100e3",
            "--vset", "1", "--vcond", "0.5", "--vclear", "-1", capsys=capsys)
        assert code == 0
        assert "Q=1" in out

    def test_csv_per_case_in_dotted_directory(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        outdir = tmp_path / "run.d"
        outdir.mkdir()
        code, _, _ = run_cli("simulate", str(case1), "--csv", str(outdir / "trace"),
                             capsys=capsys)
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "trace_00", "trace_01", "trace_10", "trace_11"]
        code, _, _ = run_cli("simulate", str(case1), "--csv", str(outdir / "t.csv"),
                             capsys=capsys)
        assert code == 0
        assert (outdir / "t_01.csv").is_file()

    def test_register_set_twice_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("simulate", nand_path, "--set", "P=1", "--set", "P=0",
                                 "--set", "Q=1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: --set gives register 'P' twice\n"

    @pytest.mark.parametrize("csv, flags, bad, message", [
        ("out", ["--set", "P=1", "--set", "Q=1"], "out", "[Errno 21] Is a directory"),
        ("out/none/t.csv", ["--set", "P=1", "--set", "Q=1"], "out/none/t.csv",
         "[Errno 2] No such file or directory"),
        ("out/t.csv", [], "out/t_10.csv", "[Errno 21] Is a directory"),
        ("none/t.csv", [], "none/t_00.csv", "[Errno 2] No such file or directory"),
        ("nand.imply/t.csv", ["--set", "P=1", "--set", "Q=1"], "nand.imply/t.csv",
         "[Errno 20] Not a directory"),
        # a value ending in a separator names no file: open() refuses it as a directory
        ("none/", ["--set", "P=1", "--set", "Q=1"], "none/", "[Errno 21] Is a directory"),
        ("out/", [], "out/", "[Errno 21] Is a directory"),
    ], ids=["directory", "missing-parent", "case-path-is-a-directory", "cases-missing-parent",
            "parent-is-a-file", "separator-new-directory", "cases-separator-directory"])
    def test_bad_csv_path_found_before_simulating(self, nand_path, tmp_path, capsys,
                                                  csv, flags, bad, message):
        (tmp_path / "out" / "t_10.csv").mkdir(parents=True)
        code, out, err = run_cli("simulate", nand_path, *flags, "--csv", f"{tmp_path}/{csv}",
                                 capsys=capsys)
        assert (code, out) == (1, "")  # refused before the write time is calibrated
        assert err == f"error: {message}: '{tmp_path}/{bad}'\n"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["t_10.csv"]

    @pytest.mark.parametrize("value", ["-1e-3", "-2E0"])
    def test_value_in_exponent_form_reaches_its_flag(self, nand_path, capsys, value):
        # argparse's own pattern for a negative number takes "-1.5" but not "-1e-3"
        argv = ["simulate", nand_path, "--set", "P=1", "--set", "Q=1"]
        joined = run_cli(*argv, f"--vclear={value}", capsys=capsys)
        assert joined[0] == 0
        assert run_cli(*argv, "--vclear", value, capsys=capsys) == joined
        assert cli.build_parser().parse_args([*argv, "--vclear", value]).v_clear == float(value)

    def test_partial_set_is_an_error(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), "--set", "P=1", "--pulse-width", "1",
                                 capsys=capsys)
        assert code != 0
        assert "missing input assignment for register 'Q'" in err

    @pytest.mark.parametrize("flag", ["--d", "--vset", "--dt"])
    def test_non_finite_param_is_an_error(self, tmp_path, capsys, flag):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), flag, "nan", capsys=capsys)
        assert code != 0
        assert "must be finite" in err

    def test_too_many_cases_without_set_is_an_error(self, tmp_path, capsys):
        adder3 = tmp_path / "adder3.imply"
        main(["compile", "--adder", "3", "-o", str(adder3)])
        capsys.readouterr()
        code, out, err = run_cli("simulate", str(adder3), capsys=capsys)
        assert code == 1
        assert out == ""  # refused before the write time is calibrated
        assert f"{adder3}: 7 inputs give 128 assignments" in err
        assert "--set NAME=V" in err

    @pytest.mark.parametrize("flags", [
        ["--d", "1e160"],
        ["--d", "1e-170"],
        ["--d", "1e-170", "--pulse-width", "1"],
        ["--vset", "1e-320", "--vcond", "1e-321"],
    ], ids=["d-squared-overflows", "time-scale-underflows", "gain-divides-by-zero",
            "drive-underflows"])
    def test_extreme_device_params_are_an_error(self, nand_path, capsys, flags):
        code, out, err = run_cli("simulate", nand_path, "--set", "P=1", "--set", "Q=1", *flags,
                                 capsys=capsys)
        assert (code, out) == (1, "")
        assert err == ("error: drift gain mu_v*R_ON/D^2 and drift time scale D^2/(mu_v*V_set) "
                       "must be positive and finite\n")

    @pytest.mark.parametrize("flag", ["--d", "--muv"])
    def test_zero_device_length_or_mobility_is_an_error(self, nand_path, capsys, flag):
        code, out, err = run_cli("simulate", nand_path, flag, "0", capsys=capsys)
        assert (code, out, err) == (1, "", "error: device length and mobility must be positive\n")

    def test_invalid_params(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), "--vcond", "2.0", capsys=capsys)
        assert code != 0
        assert "V_cond" in err

    def test_steps_per_pulse_cap(self, nand_path):
        # about 6e8 RK4 steps per pulse: refused once the width is calibrated, not run
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path,
                          "--set", "P=1", "--set", "Q=1", "--dt", "1e-9")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: pulse_width/dt = 6.268750e-01/1.000000e-09 gives ")
        assert "more than MAX_STEPS_PER_PULSE = 100000" in proc.stderr

    def test_overflowing_steps_per_pulse_is_an_error(self, nand_path):
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path, "--set", "P=1",
                          "--set", "Q=1", "--pulse-width", "1e300", "--dt", "1e-300")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: pulse_width/dt = 1.000000e+300/1.000000e-300 "
                                      "gives inf RK4 steps per pulse")

    def test_underflowing_calibration_probe_is_an_error(self, nand_path):
        # valid parameters whose drift time, about 1e-322 s, is so short that
        # the first calibration probe's step, a thousandth of it, is 0.0
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path, "--set", "P=1",
                          "--set", "Q=1", "--ron", "1e-300", "--roff", "1e-299",
                          "--d", "1e-161", "--muv", "1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: write-time probe of 9.881313e-323 s: dt must be positive\n"

    def test_huge_step_count_is_one_short_line(self, nand_path):
        # the calibrated width over dt = 1e-300 is about 6e299 steps, printed as "%.6e"
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path, "--dt", "1e-300")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200
        assert " gives 6.268750e+299 RK4 steps per pulse, more than " in proc.stderr


class TestImportBoundary:
    """Each command loads only what it runs.  numpy loads on first use:
    parsing arguments, ``compile``, ``run`` and ``simulate`` without
    ``--csv`` never import it; ``verify`` and ``simulate --csv`` do.  The
    package's own ``analog`` and ``verify`` load only for the commands that
    call them, and ``json`` only when a report is written.  No command loads
    ``dataclasses``: every record of the package is a named tuple.  Importing ``implylogic.core`` loads no other module
    of the package.  Each case is a fresh interpreter."""

    # prints the exit code of cli.main(argv), or 0 after build_parser() alone without argv,
    # then the loaded modules of the package, dataclasses, json and numpy
    SCRIPT = """if True:
        import contextlib, io, sys
        import implylogic.cli as cli
        code = 0
        with contextlib.redirect_stdout(io.StringIO()):
            if sys.argv[1:]:
                code = cli.main(sys.argv[1:])
            else:
                cli.build_parser()
        print(code, *sorted(name for name in sys.modules
                            if name in ("dataclasses", "json", "numpy")
                            or name.partition(".")[0] == "implylogic"))
    """

    def loaded_after(self, *argv) -> set[str]:
        proc = run_python("-c", self.SCRIPT, *argv)
        code, *names = proc.stdout.split()
        assert code == "0", proc.stderr
        return set(names)

    def numpy_after(self, *argv) -> bool:
        return "numpy" in self.loaded_after(*argv)

    def test_import_and_build_parser(self):
        assert self.loaded_after() == {"implylogic", "implylogic.cli", "implylogic.core",
                                       "implylogic.ir", "implylogic.synthesis"}

    def test_compile_and_run_adder8(self, tmp_path):
        path = str(tmp_path / "adder8.imply")
        for argv in (("compile", "--adder", "8", "-o", path),
                     ("run", path, "--a", "0x5A", "--b", "0xC3", "--cin", "1", "--trace")):
            loaded = self.loaded_after(*argv)
            assert not loaded & {"dataclasses", "numpy", "implylogic.analog",
                                 "implylogic.verify"}, argv

    def test_simulate_without_csv(self, nand_path):
        assert not self.numpy_after("simulate", nand_path)

    def test_verify_loads_no_analog(self, nand_path, tmp_path):
        loaded = self.loaded_after("verify", nand_path, "--oracle", "nand",
                                   "--report", str(tmp_path / "report.json"))
        assert {"numpy", "json", "implylogic.verify"} <= loaded
        assert not loaded & {"dataclasses", "implylogic.analog"}

    @pytest.mark.parametrize("csv", [False, True])
    def test_simulate_loads_no_verify(self, nand_path, tmp_path, csv):
        flags = ("--csv", str(tmp_path / "nand.csv")) if csv else ()
        loaded = self.loaded_after("simulate", nand_path, *flags)
        assert "implylogic.analog" in loaded
        assert not loaded & {"dataclasses", "json", "implylogic.verify"}
        assert ("numpy" in loaded) == csv

    def test_verify_and_simulate_csv_load_it(self, nand_path, tmp_path):
        assert self.numpy_after("verify", nand_path, "--oracle", "nand")
        assert self.numpy_after("simulate", nand_path, "--csv", str(tmp_path / "nand.csv"))

    def test_importing_a_module_loads_no_other_of_the_package(self):
        proc = run_python("-c", "import sys, implylogic.core; print(sorted(name for name in "
                          "sys.modules if name.partition('.')[0] == 'implylogic'))")
        assert (proc.stdout, proc.stderr) == ("['implylogic', 'implylogic.core']\n", "")


class TestErrorBase:
    """Every error of the toolchain subclasses ``core.ImplyLogicError``, the
    one class ``main`` catches beside ``OSError``: each ends a command in one
    ``error:`` line and exit code 1, including the errors of the modules that
    load on first use."""

    ARGV = {
        ParseError: ["run", "{bogus}"],
        ExecutionError: ["run", "{nand}", "--set", "P=2"],
        SynthesisError: ["compile", "--adder", "0"],
        VerificationError: ["verify", "{nand}", "--oracle", "not"],
        analog.AnalogError: ["simulate", "{nand}", "--ron", "-1"],
        analog.CalibrationError: ["simulate", "{nand}", "--ron", "100", "--roff", "101"],
    }

    def test_a_case_for_every_subclass(self):
        found, stack = set(), [ImplyLogicError]
        while stack:
            found.update(sub := stack.pop().__subclasses__())
            stack.extend(sub)
        assert found == set(self.ARGV)

    @pytest.mark.parametrize("error", list(ARGV), ids=lambda error: error.__name__)
    def test_one_error_line(self, error, nand_path, tmp_path, capsys):
        bogus = tmp_path / "bogus.imply"
        bogus.write_text("BOGUS\n")
        argv = [a.format(nand=nand_path, bogus=bogus) for a in self.ARGV[error]]
        args = cli.parse_args(argv)
        with pytest.raises(ImplyLogicError) as info:
            args.func(args)
        assert type(info.value) is error
        capsys.readouterr()
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1
        assert err == f"error: {info.value}\n"
        assert "Traceback" not in out + err


class TestLocatedFileErrors:
    """A path that cannot be read or written, or a program file that is
    not UTF-8, ends in one ``error:`` line naming it, not a traceback."""

    def test_compile_output_is_a_directory(self, tmp_path, capsys):
        code, _, err = run_cli("compile", "--gate", "nand", "-o", str(tmp_path), capsys=capsys)
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_run_program_is_a_directory(self, tmp_path, capsys):
        code, out, err = run_cli("run", str(tmp_path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_verify_report_is_a_directory(self, nand_path, tmp_path, capsys):
        code, _, err = run_cli("verify", nand_path, "--oracle", "nand", "--report", str(tmp_path),
                               capsys=capsys)
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_simulate_csv_is_a_directory(self, nand_path, tmp_path, capsys):
        code, _, err = run_cli("simulate", nand_path, "--set", "P=0", "--set", "Q=0",
                               "--csv", str(tmp_path), capsys=capsys)
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("argv", [["run"], ["verify", "--oracle", "nand"], ["simulate"]],
                             ids=["run", "verify", "simulate"])
    def test_program_not_utf8(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.imply"
        bad.write_bytes(".regs P Q S\n# caf\xe9\n".encode("latin-1"))
        code, out, err = run_cli(argv[0], str(bad), *argv[1:], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1


class TestByteOrderMark:
    """A program file saved with a UTF-8 byte order mark reads as the same
    program; a U+FEFF anywhere else is text, and the parser reports it.
    A file that is not UTF-8 keeps its message (``test_program_not_utf8``)."""

    @pytest.mark.parametrize("argv", [["run", "--set", "P=1", "--set", "Q=1"],
                                      ["verify", "--oracle", "nand"]], ids=["run", "verify"])
    def test_leading_bom_reads_as_the_same_program(self, nand_path, tmp_path, capsys, argv):
        bom = tmp_path / "bom.imply"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(nand_path).read_bytes())
        plain = run_cli(argv[0], nand_path, *argv[1:], capsys=capsys)
        assert plain[0] == 0
        assert run_cli(argv[0], str(bom), *argv[1:], capsys=capsys) == plain

    def test_bom_after_the_start_is_reported(self, nand_path, tmp_path, capsys):
        lines = Path(nand_path).read_text().splitlines(keepends=True)
        late = tmp_path / "late.imply"
        late.write_text("".join([lines[0], "\ufeff" + lines[1], *lines[2:]]), encoding="utf-8")
        code, out, err = run_cli("run", str(late), capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: 2:1: error: unknown mnemonic '\ufeff{lines[1].split()[0]}'")


class TestABScript:
    SCRIPT = str(ROOT / "scripts" / "ab.py")

    def test_the_repository_against_itself(self):
        # each side's statement runs on its own copy of the package
        proc = run_python(self.SCRIPT, str(ROOT), str(ROOT), "--rounds", "3",
                          "--setup", "text = implylogic.ir.format_program("
                          "implylogic.cli.gate_program('nand'))",
                          "--stmt", "assert implylogic.__name__ in ('ab_parent', 'ab_change'); "
                          "implylogic.ir.parse_program(text)")
        assert (proc.returncode, proc.stderr) == (0, "")
        us = r"\d+\.\d{3} us"
        assert re.fullmatch(
            rf"python: {re.escape(sys.version.splitlines()[0])}\n"
            rf"parent: median {us} per run \(quartiles \d+\.\d{{3}}-{us}\)\n"
            rf"change: median {us} per run \(quartiles \d+\.\d{{3}}-{us}\)\n"
            r"change/parent: \d+\.\d{3}\n"
            r"change faster in [0-3] of 3 rounds \(\d+ runs per round and side\)\n", proc.stdout)


class TestReproduceScript:
    SCRIPT = str(ROOT / "scripts" / "reproduce_headline.py")

    def test_default_run_reproduces_the_headline(self):
        proc = run_python(self.SCRIPT, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        out = re.sub(r"cases in \d+\.\d\ds$", "cases in Xs", proc.stdout, flags=re.M)
        assert out == (
            "8-bit serial adder: 184 steps (64 FALSE + 120 IMPLY), 21 registers, 23 steps/bit\n"
            "  vs serial-712 (712 steps, 29 registers): 74.2% fewer steps\n"
            "  vs serial-232 (232 steps, 27 registers): 20.7% fewer steps\n"
            "exhaustive check over 131072 input cases...\n"
            "  PASS: 131072 cases in Xs\n"
            "device model: calibrated write pulse 0.6269s\n"
            "analog NAND readouts vs ideal:\n"
            "  P=0 Q=0: analog S=1, ideal S=1  ok\n"
            "  P=0 Q=1: analog S=1, ideal S=1  ok\n"
            "  P=1 Q=0: analog S=1, ideal S=1  ok\n"
            "  P=1 Q=1: analog S=1, ideal S=0  MISMATCH (drift 1.000)\n")

    def test_widest_width_sweeps_every_case(self):
        proc = run_python(self.SCRIPT, "--width", "11", "--skip-analog", timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert re.search(r"^  PASS: 8388608 cases in \d+\.\d\ds$", proc.stdout, flags=re.M)

    @pytest.mark.parametrize("width", ["0", "12"])
    def test_width_out_of_range_is_a_usage_error(self, width):
        proc = run_python(self.SCRIPT, "--width", width, "--skip-analog")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--width must be between 1 and 11" in proc.stderr
