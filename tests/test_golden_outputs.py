"""Byte-identity gate: sha256 digests of the CLI's outputs, pinned.

Each case runs ``cli.main`` in-process in a fresh directory and hashes its
exit code and stdout together with every file it writes, by name.  The
cases cover ``simulate --csv`` of every gate program over its truth table,
the all-ones adder8 ``simulate --csv``, ``verify --oracle adder --report``
of adder8 and of three seeded single-drop mutants, ``run --trace``
replays of each mutant's counterexample, ``verify --report`` of every
gate program against every gate oracle (one digest, with stderr), the
argparse texts: usage, help, version and error output of ``ARGPARSE_ARGVS``
(one digest, with stderr, at 80 columns), and ``compile`` of every gate to
stdout and of adders 1-8 to a file, with packed-operand ``run``s of adder8
(one digest), and packed-operand ``run``s of adders 1, 5, 6 and 9 (one
digest).  A change meant to alter one of these outputs updates its
digest and states the old and new values.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys

import pytest

from implylogic.cli import build_parser, main, parse_args
from implylogic.core import Program
from implylogic.ir import format_program
from implylogic.synthesis import GateKind, gen_adder_serial

#: argv whose output is argparse's: usage, help, version and parse errors, and
#: ``run verify``, whose program path is a command name
ARGPARSE_ARGVS = (
    ("-h",), ("--version",), (), ("bogus",),
    *((command, "-h") for command in ("compile", "run", "verify", "simulate")),
    ("compile",), ("compile", "--gate", "nand", "--adder", "8"), ("compile", "--gate", "xyz"),
    ("verify", "p.imply"), ("run", "p.imply", "--cin", "2"), ("compile", "--gate", "nand", "extra"),
    ("run", "verify"),
)

#: body indices of adder8 whose single-instruction drop is each a mutant here
ADDER8_DROPS = tuple(sorted(random.Random(16).sample(range(184), 3)))

DIGESTS = {
    "simulate not":
        "db49dd92f71ddd6560e11ca46b8569fffc9731b0aeb6b399ad8a36aefbff9523",
    "simulate nand":
        "52275d5549560495a9f3f1d98ae4ce35374a239a77fc9877f1952922461840a9",
    "simulate and":
        "e19124cd01c77c6c7a6b9c13d0a70bbf71f7dc7511ad2e10bcf37498d3127512",
    "simulate nor":
        "21eeadc256b4a12c70fa24bb7fcdc0fcd96af1a78ec2fd408b9808ddf18fd2c0",
    "simulate or":
        "932229fe84cfe8ef052ef379220a13c37b320b0752adb41d5ce2b20a4ca03983",
    "simulate xor":
        "5db06d1e04d5a6d0abf7b03ab6603dfb37224d11050b2a341602e2b1c36572c8",
    "simulate xor9":
        "aaa0b6edab71ed792c68fdaf91d8a8846676703e2755a233aa9659f5488b4bf2",
    "simulate xor11":
        "586195c1f72484083607a6f8ff8f0eb230b75058bcb46a6d20ec3890b3fb7900",
    "simulate adder8 all-ones":
        "0eea1f84c8f6559b37fa91ee89101f47c64105640ba9c4b0a53335fb19b2ee9b",
    "verify adder8":
        "93bad9561a170f847f20275b592a6ab8e0332874c98aa49989159d98d5a2cf9a",
    "verify drop92":
        "97bcc9f678f29eef65e3722c86d32e0584b9655da9d6e54d58b5629ae4ede3e1",
    "run drop92 --trace":
        "73518bd2a58795d536fdf93d3ea50aaad6fa726dfcf0331554e211930c2765c4",
    "verify drop120":
        "519e2f75f006f4db2d9d152e1eb4743dca146a628a05694e05fbf8f214fa4e60",
    "run drop120 --trace":
        "52eddb917ccd721849bd49d2406534ea8e45b639faa9eef03a4d415d9f01cf19",
    "verify drop123":
        "adc22ced49ba26db3207e4796b74cfd4e0e80b083e9c1fd97eb645549d6aa414",
    "run drop123 --trace":
        "63baea643870154d19c6a7b0ed6521bc3d947f42134e4853e5f139c1652082bf",
    "verify gates":
        "38bacce074a3dbfeb097c1adffb6c2ba27b291b305c68ddb321739db5539ef69",
    "argparse texts":
        "390aaa2e4755c51477c2822da9590003f88c7e0b0c5b4559ce3a75f9c2716bf0",
    "compile and run":
        "adf6798b87ae5c78baa35614d0d54980a98dd9fc210941a84f0b2dd21a878cc1",
    "packed run widths":
        "3aeffa99cbb5ecae7ba60a2daa2b4dafcfc64b9fd37e44e29c9c1eea63ca508a",
}


def run(tmp_path, *argv) -> str:
    """The digest of one in-process command run in ``tmp_path``."""
    before = set(tmp_path.iterdir())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
    for path in sorted(set(tmp_path.iterdir()) - before):
        digest.update(b"\0%s\0%s" % (path.name.encode(), path.read_bytes()))
    return digest.hexdigest()


def write(tmp_path, name: str, prog: Program) -> str:
    (tmp_path / name).write_text(format_program(prog))
    return name


def adder8(drop: int | None = None) -> Program:
    prog, _ = gen_adder_serial(8)
    if drop is None:
        return prog
    body = prog.body[:drop] + prog.body[drop + 1:]
    return Program(prog.registers, prog.inputs, prog.outputs, body)


def verify_gates(tmp_path) -> str:
    """One digest over ``verify --report`` of each gate program against each
    gate oracle: every run's digest, then its stderr."""
    digest = hashlib.sha256()
    for prog, oracle in itertools.product((kind.value for kind in GateKind), repeat=2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            digest.update(run(tmp_path, "verify", f"{prog}.imply", "--oracle", oracle,
                              "--report", f"{prog}-{oracle}.json").encode())
        digest.update(b"\0%s" % err.getvalue().encode())
    return digest.hexdigest()


def captured(fn, argv) -> tuple:
    """What ``fn(argv)`` returns, or the code of the SystemExit that argparse
    ends it with; then its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def argparse_texts() -> str:
    """One digest over each of ``ARGPARSE_ARGVS`` with its exit code, stdout and stderr."""
    digest = hashlib.sha256()
    for argv in ARGPARSE_ARGVS:
        digest.update("\0".join(map(str, (argv, *captured(main, argv), ""))).encode())
    return digest.hexdigest()


def compile_and_run(tmp_path) -> str:
    """One digest over ``compile --gate`` to stdout of each gate, ``compile
    --adder N -o FILE`` of N = 1..8 (stdout and file), and ``run`` of the
    adder8 file on packed operands, without and with ``--trace``."""
    digest = hashlib.sha256()
    for kind in GateKind:
        digest.update(run(tmp_path, "compile", "--gate", kind.value).encode())
    for n in range(1, 9):
        digest.update(run(tmp_path, "compile", "--adder", str(n), "-o",
                          f"compiled{n}.imply").encode())
    for trace in ((), ("--trace",)):
        digest.update(run(tmp_path, "run", "compiled8.imply", "--a", "0xA5", "--b", "0x5A",
                          "--cin", "1", *trace).encode())
    return digest.hexdigest()


def packed_run_widths(tmp_path) -> str:
    """One digest over ``run`` of adders 1, 5, 6 and 9 on packed operands: a
    small sum, zero-padded to the adder's hex width, and the largest.  At
    these widths ``(n + 3) // 4`` hex digits is not ``(n + 3) // 5``."""
    digest = hashlib.sha256()
    for n in (1, 5, 6, 9):
        name, top = write(tmp_path, f"packed{n}.imply", gen_adder_serial(n)[0]), (1 << n) - 1
        for a, b, cin in ((1, 0, 1), (top, top, 1)):
            digest.update(run(tmp_path, "run", name, "--a", str(a), "--b", hex(b),
                              "--cin", str(cin)).encode())
    return digest.hexdigest()


def digests(tmp_path) -> dict[str, str]:
    """Every pinned case's digest, each run in ``tmp_path``."""
    got = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for kind in GateKind:
            main(["compile", "--gate", kind.value, "-o", str(tmp_path / f"{kind.value}.imply")])
    for kind in GateKind:
        got[f"simulate {kind.value}"] = run(tmp_path, "simulate", f"{kind.value}.imply",
                                            "--csv", f"{kind.value}.csv")
    prog = adder8()
    write(tmp_path, "adder8.imply", prog)
    ones = [arg for r in prog.inputs for arg in ("--set", f"{r}=1")]
    got["simulate adder8 all-ones"] = run(tmp_path, "simulate", "adder8.imply", *ones,
                                          "--csv", "adder8.csv")
    got["verify adder8"] = run(tmp_path, "verify", "adder8.imply", "--oracle", "adder",
                               "--report", "adder8.json")
    for i in ADDER8_DROPS:
        name = write(tmp_path, f"drop{i}.imply", adder8(drop=i))
        got[f"verify drop{i}"] = run(tmp_path, "verify", name, "--oracle", "adder",
                                     "--report", f"drop{i}.json")
        ce = json.loads((tmp_path / f"drop{i}.json").read_text())["verdict"]["counterexample"]
        sets = [arg for r, v in ce["assignment"].items() for arg in ("--set", f"{r}={v}")]
        got[f"run drop{i} --trace"] = run(tmp_path, "run", name, "--trace", *sets)
    got["verify gates"] = verify_gates(tmp_path)
    got["argparse texts"] = argparse_texts()
    got["compile and run"] = compile_and_run(tmp_path)
    got["packed run widths"] = packed_run_widths(tmp_path)
    return got


def test_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal's width
    got = digests(tmp_path)
    assert sorted(got) == sorted(DIGESTS)
    changed = [key for key in DIGESTS if got[key] != DIGESTS[key]]
    assert not changed, f"outputs changed: {changed}"


def benchmark_argvs(out: str) -> list[list[str]]:
    """Every command the benchmark's workloads run, with a counterexample replay."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import run as bench
    argvs = bench.coverage_commands(out)
    for workload in bench.WORKLOADS.values():
        plan = workload(out, seed=1)
        argvs += plan.prepare + [argv for op in plan.round for argv in op["commands"]]
        argvs += [["run", op["replay"]["program"], "--trace", "--set", "A0=1"]
                  for op in plan.round if "replay" in op]
    return argvs


#: argv at the edges of what a command's parser alone parses
EDGE_ARGVS = (
    ("verify", "--", "p.imply", "--oracle", "adder"), ("verify", "p.imply", "--orac", "adder"),
    ("compile", "--gate=nand"), ("run", "p.imply", "--version"),
    ("verify", "p.imply", "--oracle", "adder", "extra"), ("simulate", "p.imply", "-h"),
    ("Run",), ("",), ("run", "p.imply", "--=x"), ("compile", "--="), ("run", "--", "--=x"),
)


def test_parser_of_the_named_subcommand_parses_as_the_full_one(tmp_path):
    """``main``'s parse (``parse_args``) against the full tree's ``parse_args``."""
    argvs = [*ARGPARSE_ARGVS, *EDGE_ARGVS, *benchmark_argvs(str(tmp_path))]
    assert len(argvs) > 100
    for argv in argvs:  # the same Namespace, func and command included, or the same exit and texts
        assert captured(parse_args, argv) == captured(build_parser().parse_args, argv), argv
