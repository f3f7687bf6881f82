"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them all).
All four closed-form node voltages of criterion 7 are exact.  Only
criterion 9 fails, by design of the physics model; see README.md: the
threshold-free linear drift model accumulates conditional-pulse drift,
so a handful of gate cases read back wrong.
"""

import itertools
import json
import random
import time

import pytest

from conftest import random_program
from implylogic.analog import (closed_form_check, execute_analog, integrate_imply, memristance,
                               readout, solve_cell)
from implylogic.cli import gate_program, main
from implylogic.core import count_steps, eval_imply, run_program
from implylogic.ir import format_program, parse_program
from implylogic.synthesis import gen_adder_serial, synth_gate
from implylogic.verify import exhaustive_check, make_adder_oracle, metrics

NAND = parse_program(".regs P Q S\n.in P Q\n.out S\nFALSE S\nIMPLY P S\nIMPLY Q S\n")


def check(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_imply_semantics():
    rows = [(p, q, eval_imply(p, q)) for p, q in itertools.product((0, 1), repeat=2)]
    ok = rows == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
    check("criterion 1 (IMPLY semantics)", ok, f"truth table rows {rows}")


def test_criterion_02_nand_golden():
    expected = {(0, 0): (1, 1), (0, 1): (1, 1), (1, 0): (0, 1), (1, 1): (0, 0)}
    ok = True
    for (p, q), (s1, s2) in expected.items():
        trace = run_program(NAND, {"P": p, "Q": q}).trace
        # trace rows: S after FALSE S, after IMPLY P S, after IMPLY Q S
        ok &= trace[1] == s1 and trace[2] == s2
    verdict = exhaustive_check(NAND, lambda a: {"S": ~(a["P"] & a["Q"])})
    ok &= verdict.passed and verdict.cases == 4
    check("criterion 2 (NAND golden)", ok,
          "3-step program matches NAND 4/4 with intermediate states")


def test_criterion_03_gate_templates():
    cases = [
        ("not", lambda a, b: 1 - a),
        ("nand", lambda a, b: 1 - (a & b)),
        ("and", lambda a, b: a & b),
        ("nor", lambda a, b: 1 - (a | b)),
        ("or", lambda a, b: a | b),
        ("xor", lambda a, b: a ^ b),
    ]
    ok, checked = True, 0
    for name, fn in cases:
        prog = synth_gate(name)
        for levels in itertools.product((0, 1), repeat=len(prog.inputs)):
            final = run_program(prog, dict(zip(prog.inputs, levels))).final
            a = levels[0]
            b = levels[1] if len(levels) > 1 else 0
            ok &= final[prog.outputs[0]] == fn(a, b)
            checked += 1
    check("criterion 3 (gate templates)", ok, f"6 templates, {checked} cases total")


def test_criterion_04_xor_variants():
    v1 = gate_program("xor9")
    v2 = gate_program("xor11")
    ok = len(v1.body) == 9 and len(v2.body) == 11
    for prog in (v1, v2):
        verdict = exhaustive_check(prog, lambda a: {prog.outputs[0]: a["A"] ^ a["B"]})
        ok &= verdict.passed and verdict.cases == 4
    check("criterion 4 (XOR variants)", ok, "9-step and 11-step forms both 4/4")


def test_criterion_05_adder_headline():
    prog, plan = gen_adder_serial(8)
    t0 = time.perf_counter()
    verdict = exhaustive_check(prog, make_adder_oracle(plan))
    elapsed = time.perf_counter() - t0
    steps, registers = count_steps(prog), len(prog.registers)
    ok = (steps <= 184 and registers <= 27 and steps % 8 == 0
          and verdict.passed and verdict.cases == 131072 and elapsed < 10.0)
    check("criterion 5 (8-bit adder headline)", ok,
          f"{steps} steps, {registers} registers, "
          f"{verdict.cases} cases in {elapsed:.2f}s")


def test_criterion_06_speedup_report():
    prog, _ = gen_adder_serial(8)
    rep = metrics(prog)
    imp = {b.name: b.improvement for b in rep.baselines}["serial-232"]
    ok = rep.steps == 184 and 0.20 <= imp <= 0.21
    check("criterion 6 (speedup report)", ok,
          f"improvement vs 232-step baseline = {imp:.4f}")


def test_criterion_07_closed_forms(default_params):
    p = default_params
    initial = {1: (p.r_off, p.r_off), 2: (p.r_off, p.r_on),
               3: (p.r_on, p.r_off), 4: (p.r_on, p.r_on)}
    ok = True
    details = []
    for case_id, (rp, rq) in sorted(initial.items()):
        node = solve_cell(rp, rq, p).node_v
        form = closed_form_check(case_id, p)
        matched = abs(form - node) <= 1e-9 * abs(node)
        ok &= matched
        details.append(f"case {case_id} {'ok' if matched else f'{form:.4f}!={node:.4f}'}")
    # independent substitution of the both-OFF node voltage
    v1 = 10e3 / (100e3 + 2 * 10e3) * (1.0 + 0.5)
    ok &= abs(v1 - 0.125) <= 1e-12 and abs(closed_form_check(1, p) - 0.125) <= 1e-12
    check("criterion 7 (analog closed forms)", ok, "; ".join(details))


def test_criterion_08_switching_and_drift(default_params):
    p = default_params
    tw = p.pulse_width
    finals = {}
    for case_id, (xp, xq) in {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1)}.items():
        _, q = integrate_imply(xp, xq, tw, p)
        finals[case_id] = q
    m = {c: memristance(q, p) for c, q in finals.items()}
    ok = (m[1] <= 1.01 * p.r_on and m[2] <= 1.01 * p.r_on and m[4] <= 1.01 * p.r_on
          and readout(finals[3], p) == 0 and m[3] < p.r_off)
    half = p._replace(dt=p.dt / 2)
    for case_id, (xp, xq) in {1: (0, 0), 3: (1, 0)}.items():
        _, q2 = integrate_imply(xp, xq, tw, half)
        ok &= abs(memristance(q2, p) - m[case_id]) / m[case_id] < 1e-4
    check("criterion 8 (switching and drift)", ok,
          f"case-1 M(Q)={m[1]:.1f} ohm, case-3 M(Q)={m[3]:.1f} ohm reads 0, "
          "dt-halving stable")


def test_criterion_09_analog_agreement(default_params):
    mismatches = []
    total = 0
    for name in ("nand", "xor9", "xor11"):
        prog = gate_program(name)
        out = prog.outputs[0]
        for levels in itertools.product((0, 1), repeat=len(prog.inputs)):
            assign = dict(zip(prog.inputs, levels))
            total += 1
            ideal = run_program(prog, assign).final[out]
            analog = execute_analog(prog, default_params, assign).readouts[out]
            if analog != ideal:
                mismatches.append((name, levels))
    check("criterion 9 (analog/logical agreement)", not mismatches,
          f"{total - len(mismatches)}/{total} cases agree; mismatches: {mismatches}")


def test_criterion_10_toolchain_hygiene(tmp_path, capsys):
    ok = True
    for seed in range(1000):
        prog = random_program(random.Random(seed))
        ok &= parse_program(format_program(prog)) == prog

    adder = tmp_path / "adder8.imply"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["compile", "--adder", "8", "-o", str(adder)])
    main(["verify", str(adder), "--oracle", "adder", "--report", str(r1)])
    main(["verify", str(adder), "--oracle", "adder", "--report", str(r2)])
    doc = json.loads(r1.read_text())
    imp = {b["name"]: b["improvement"] for b in doc["metrics"]["baselines"]}
    ok &= (doc["metrics"]["steps"] <= 184 and doc["metrics"]["registers"] <= 27
           and doc["verdict"]["pass"] is True and doc["verdict"]["cases"] == 131072
           and 0.20 <= imp["serial-232"] <= 0.21)
    ok &= r1.read_bytes() == r2.read_bytes()

    xor = tmp_path / "xor9.imply"
    c1, c2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["compile", "--gate", "xor9", "-o", str(xor)])
    main(["simulate", str(xor), "--set", "A=1", "--set", "B=0", "--csv", str(c1)])
    main(["simulate", str(xor), "--set", "A=1", "--set", "B=0", "--csv", str(c2)])
    ok &= c1.read_bytes() == c2.read_bytes()
    capsys.readouterr()
    check("criterion 10 (toolchain hygiene)", ok,
          "1000 round-trips, report fields, byte-stable reports and CSVs")
