"""The benchmark's checks must catch wrong outputs, not only accept right ones.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import analog_ref  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

from implylogic import cli  # noqa: E402


def cli_call(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": ""}


@pytest.fixture(scope="module")
def adder4(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("adder") / "adder4.imply")
    cli_call(["compile", "--adder", "4", "-o", path])
    with open(path) as fh:
        return path, reference.parse_imply(fh.read())


def scalar_first_failure(prog: reference.RefProgram):
    """Plain loop over assignments in lexicographic order, for comparison."""
    n = (len(prog.inputs) - 1) // 2
    for bits in itertools.product((0, 1), repeat=len(prog.inputs)):
        state = dict.fromkeys(prog.regs, 0)
        state.update(zip(prog.inputs, bits))
        for op, a, b in prog.body:
            if op == "FALSE":
                state[a] = 0
            elif op == "LOAD":
                state[a] = b
            else:
                state[b] = (1 - state[a]) | state[b]
        total = (sum(bits[i] << i for i in range(n)) + sum(bits[n + i] << i for i in range(n))
                 + bits[2 * n])
        want = {r: (total >> i) & 1 for i, r in enumerate(prog.outputs)}
        if any(state[r] != v for r, v in want.items()):
            return dict(zip(prog.inputs, bits)), want, {r: state[r] for r in want}
    return None


def test_reference_agrees_with_a_scalar_loop(adder4):
    _, prog = adder4
    expected = reference.adder_expected(prog)
    assert reference.check_against(prog, expected).passed
    pool = reference.mutant_pool(prog, seed=3)
    assert {kind for kind, _, _ in pool} == set(reference.MUTANT_KINDS)
    for _, _, mutant in pool[::7]:
        ref = reference.check_against(mutant, expected)
        scalar = scalar_first_failure(mutant)
        if scalar is None:
            assert ref.passed
        else:
            assert (ref.assignment, ref.expected, ref.actual) == scalar


def test_draw_fixes_the_mix_of_failure_bins(adder4):
    _, prog = adder4
    pool = reference.mutant_pool(prog, seed=1)
    verdicts = [reference.check_against(m, reference.adder_expected(prog)) for _, _, m in pool]
    quota = {"0": 5, "3": 2, "8": 1}
    for seed in (1, 2):
        drawn = reference.draw_mutants(pool, verdicts, seed, quota)
        bins = sorted(reference.failure_bin(verdicts[i]) for i in drawn)
        assert bins == sorted(b for b, n in quota.items() for _ in range(n))
    with pytest.raises(ValueError):
        reference.draw_mutants(pool, verdicts, 1, {"0": len(pool)})


def test_quota_follows_the_pool(adder4):
    _, prog = adder4
    pool = reference.mutant_pool(prog, seed=1)
    verdicts = [reference.check_against(m, reference.adder_expected(prog)) for _, _, m in pool]
    counts = collections.Counter(reference.failure_bin(v) for v in verdicts)
    quota = reference.bin_quota(verdicts, 40)
    assert sum(quota.values()) == 40 and set(quota) == set(counts)
    for name, k in counts.items():
        share = 40 * k / len(pool)
        assert abs(quota[name] - share) < 1 or (quota[name] == 1 and share < 1), name


def debug_operation(tmp_path, mutant: reference.RefProgram):
    """Verify one mutant and replay its counterexample, as the worker does."""
    path, report = str(tmp_path / "m.imply"), str(tmp_path / "m.json")
    with open(path, "w") as fh:
        fh.write(mutant.text())
    calls = [cli_call(["verify", path, "--oracle", "adder", "--report", report])]
    with open(report) as fh:
        verdict = json.load(fh)["verdict"]
    argv = ["run", path, "--trace"]
    for name, level in verdict["counterexample"]["assignment"].items():
        argv += ["--set", f"{name}={level}"]
    calls.append(cli_call(argv))
    return calls, verdict


def late_failing_mutant(prog: reference.RefProgram):
    expected = reference.adder_expected(prog)
    for _, _, mutant in reference.mutant_pool(prog, seed=5):
        ref = reference.check_against(mutant, expected)
        if not ref.passed and ref.lane > 1:
            return mutant, ref
    raise AssertionError("no mutant fails after lane 1")


def test_wrong_counterexample_fails_the_check(adder4, tmp_path):
    _, prog = adder4
    mutant, ref = late_failing_mutant(prog)
    calls, verdict = debug_operation(tmp_path, mutant)
    assert run.mutant_problems(mutant, ref, calls, verdict) == []

    later = dict(verdict, counterexample=dict(verdict["counterexample"],
                                              assignment=dict.fromkeys(prog.inputs, 1)))
    assert run.mutant_problems(mutant, ref, calls, later)
    wrong_actual = {r: 1 - v for r, v in ref.actual.items()}
    flipped = dict(verdict, counterexample=dict(verdict["counterexample"], actual=wrong_actual))
    assert run.mutant_problems(mutant, ref, calls, flipped)
    short_trace = [calls[0], dict(calls[1], stdout="\n".join(
        calls[1]["stdout"].splitlines()[1:]) + "\n")]
    assert run.mutant_problems(mutant, ref, short_trace, verdict)


def test_crashed_command_is_a_check_failure_not_an_abort(tmp_path):
    workload = run.VerifyAdder8(str(tmp_path), seed=1)
    compile_argv = workload.round[0]["commands"][0]
    crashed = {"argv": compile_argv, "rc": None, "stdout": "", "stderr": "Traceback"}
    assert workload.check([{"name": "adder8", "calls": [crashed]}])
    compiled = cli_call(compile_argv)
    no_report = {"argv": workload.round[0]["commands"][1], "rc": None, "stdout": "", "stderr": ""}
    assert workload.check([{"name": "adder8", "calls": [compiled, no_report]}])


def test_wrong_report_constant_fails_the_check(adder4, tmp_path):
    path, prog = adder4
    report_path = str(tmp_path / "r.json")
    cli_call(["verify", path, "--oracle", "adder", "--report", report_path])
    with open(report_path) as fh:
        report = json.load(fh)
    assert run.adder_report_problems(prog, report) == []

    for field, value in (("steps", 91), ("registers", 14), ("false_count", 0)):
        bad = json.loads(json.dumps(report))
        bad["metrics"][field] = value
        assert run.adder_report_problems(prog, bad), field
    bad = json.loads(json.dumps(report))
    bad["metrics"]["baselines"][0]["improvement"] += 1e-9
    assert run.adder_report_problems(prog, bad)
    bad = json.loads(json.dumps(report))
    bad["verdict"]["cases"] -= 1
    assert run.adder_report_problems(prog, bad)


@pytest.fixture(scope="module")
def nand_case(tmp_path_factory):
    """One simulated NAND case at a fixed 0.2 s pulse, so no calibration runs."""
    tmp = tmp_path_factory.mktemp("nand")
    prog_path, csv = str(tmp / "nand.imply"), str(tmp / "nand.csv")
    cli_call(["compile", "--gate", "nand", "-o", prog_path])
    out = cli_call(["simulate", prog_path, "--set", "P=1", "--set", "Q=0",
                    "--pulse-width", "0.2", "--csv", csv])["stdout"]
    with open(csv) as fh, open(prog_path) as ph:
        prog = reference.parse_imply(ph.read())
        labels = ["input P=1", "input Q=0"] + [" ".join(str(x) for x in i if x is not None)
                                               for i in prog.body]
        return fh.read(), labels, out


def perturb(text: str, row: int, column: int, delta: float) -> str:
    """Add ``delta`` to one cell of the ``row``-th data row."""
    lines = text.split("\n")
    data = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    cells = lines[data[row]].split(",")
    cells[column] = f"{float(cells[column]) + delta:.9e}"
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines)


def test_csv_checks_accept_the_simulator(nand_case):
    text, labels, out = nand_case
    problems, final_x = analog_ref.check_case(text, 0.2, labels)
    assert problems == []
    assert run.levels(out.splitlines()[1])["S"] == analog_ref.read_level(final_x["S"])


@pytest.mark.parametrize("row, column, delta, message", [
    (10, 2, 1e-3, "departs from the closed form"),   # P_x during its input pulse
    (3500, 1, 1e-3, "node_v"),                       # node voltage during IMPLY P S
    (3500, 7, 1.0, "_ohm"),                          # S_ohm
    (3500, 6, -1e-3, "decreased"),                   # IMPLY target S steps back
    (2200, 4, 1e-3, "undriven register Q moved"),
    (20, 0, 1e-5, "row spacing"),
])
def test_perturbed_csv_row_fails_the_check(nand_case, row, column, delta, message):
    text, labels, _ = nand_case
    problems, _ = analog_ref.check_case(perturb(text, row, column, delta), 0.2, labels)
    assert any(message in p for p in problems), problems


def test_dropped_csv_row_fails_the_check(nand_case):
    text, labels, _ = nand_case
    lines = text.split("\n")
    del lines[2500]
    problems, _ = analog_ref.check_case("\n".join(lines), 0.2, labels)
    assert any("rows, expected" in p for p in problems)


def test_closed_form_matches_a_fine_euler_integration():
    p = analog_ref.DEFAULTS
    g = p["mu_v"] * p["r_on"] / p["d"] ** 2
    x, dt = 0.3, 1e-6
    for _ in range(20000):
        x += dt * g * 1.0 / (analog_ref.memristance(x) + p["r_g"])
    assert analog_ref.single_pulse_x(0.3, 1.0, 0.02) == pytest.approx(x, abs=1e-5)


def test_relocate_moves_only_paths_under_the_directory():
    plan = {"round": [{"commands": [["verify", "out/m.imply", "--oracle", "adder"]],
                       "replay": {"program": "out/m.imply"}, "artifacts": ["out/m.json"]}],
            "src": "src", "trace": False}
    moved = run.relocate(plan, "out", "out/pinned")
    assert moved["round"][0]["commands"] == [["verify", "out/pinned/m.imply", "--oracle", "adder"]]
    assert moved["round"][0]["replay"] == {"program": "out/pinned/m.imply"}
    assert moved["round"][0]["artifacts"] == ["out/pinned/m.json"]
    assert (moved["src"], moved["trace"]) == ("src", False)
    assert run.relocate("outside/x", "out", "out/pinned") == "outside/x"
