import hashlib
import itertools
import json
import operator
import random

import numpy as np
import pytest

from conftest import random_program
from implylogic import __version__
from implylogic.cli import ReportDocument, gate_program
from implylogic.core import Program, all_assignments, count_steps, false_, run_program
from implylogic.ir import parse_program
from implylogic.synthesis import GATES, gen_adder_serial
from implylogic.verify import (BASELINES, Counterexample, VerificationError, Verdict,
                               exhaustive_check, make_adder_oracle, make_gate_oracle, metrics,
                               run_vectorized)

NAND = parse_program(".regs P Q S\n.in P Q\n.out S\nFALSE S\nIMPLY P S\nIMPLY Q S\n")
XOR9 = parse_program(
    ".regs A B M0 M1\n.in A B\n.out M0\n"
    "FALSE M0\nIMPLY A M0\nFALSE M1\nIMPLY B M1\nIMPLY A B\n"
    "IMPLY M0 M1\nFALSE M0\nIMPLY M1 M0\nIMPLY B M0\n")


def nand_oracle(assignment):
    return {"S": ~(assignment["P"] & assignment["Q"])}


def test_nand_passes():
    verdict = exhaustive_check(NAND, nand_oracle)
    assert verdict.passed
    assert verdict.cases == 4
    assert verdict.counterexample is None


def test_xor9_passes():
    verdict = exhaustive_check(XOR9, lambda a: {"M0": a["A"] ^ a["B"]})
    assert verdict.passed and verdict.cases == 4


def test_wrong_oracle_counterexample():
    verdict = exhaustive_check(NAND, lambda a: {"S": a["P"] & a["Q"]})
    assert not verdict.passed
    ce = verdict.counterexample
    assert ce.assignment == {"P": 0, "Q": 0}
    assert ce.expected == {"S": 0}
    assert ce.actual == {"S": 1}


def test_counterexample_is_lexicographically_first():
    # an oracle expecting S=0 fails on rows (0,0),(0,1),(1,0); the first is (0,0)
    verdict = exhaustive_check(NAND, lambda a: {"S": np.zeros_like(a["P"])})
    assert verdict.counterexample.assignment == {"P": 0, "Q": 0}


def test_input_space_guard():
    regs = tuple(f"R{i}" for i in range(25))
    from implylogic.core import Program
    prog = Program(registers=regs, inputs=regs)
    with pytest.raises(VerificationError, match="too large"):
        exhaustive_check(prog, lambda a: {})


def test_oracle_naming_unknown_register():
    with pytest.raises(VerificationError, match="unknown register 'Z'"):
        exhaustive_check(NAND, lambda a: {"S": 1, "Z": 0})


def adder_oracle(a: int, b: int, cin: int, n: int) -> tuple[int, int]:
    """Arithmetic reference: (a + b + cin) split into n sum bits and a
    carry-out bit."""
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        raise ValueError(f"operands must be {n}-bit integers")
    if cin not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")
    total = a + b + cin
    return total & ((1 << n) - 1), total >> n


class TestAdderOracle:
    def test_max_values(self):
        assert adder_oracle(255, 255, 1, n=8) == (255, 1)

    def test_zero(self):
        assert adder_oracle(0, 0, 0, n=8) == (0, 0)

    def test_one_bit(self):
        assert adder_oracle(1, 0, 1, n=1) == (0, 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            adder_oracle(256, 0, 0, n=8)
        with pytest.raises(ValueError):
            adder_oracle(0, 0, 2, n=8)


def test_adder4_exhaustive():
    prog, plan = gen_adder_serial(4)
    verdict = exhaustive_check(prog, make_adder_oracle(plan))
    assert verdict.passed
    assert verdict.cases == 2 ** 9


def test_broken_adder_reports_counterexample():
    prog, plan = gen_adder_serial(2)
    # drop the final instruction: carry-out is now wrong for some inputs
    broken = prog.__class__(prog.registers, prog.inputs, prog.outputs, prog.body[:-1])
    verdict = exhaustive_check(broken, make_adder_oracle(plan))
    assert not verdict.passed
    assert verdict.counterexample is not None


def scalar_adder_oracle(plan):
    """The per-assignment reference for :func:`make_adder_oracle`."""
    def oracle(assignment):
        a = sum(assignment[r] << i for i, r in enumerate(plan.a_regs))
        b = sum(assignment[r] << i for i, r in enumerate(plan.b_regs))
        s, cout = adder_oracle(a, b, assignment[plan.carry], plan.width)
        expected = {r: (s >> i) & 1 for i, r in enumerate(plan.sum_regs)}
        expected[plan.carry] = cout
        return expected
    return oracle


def scalar_verdict(prog, oracle):
    """Reference verdict: ``run_program`` on each assignment in
    lexicographic order against a per-assignment ``oracle``; the first
    mismatch is the counterexample."""
    cases = 1 << len(prog.inputs)
    for bits in itertools.product((0, 1), repeat=len(prog.inputs)):
        assignment = dict(zip(prog.inputs, bits))
        expected = oracle(assignment)
        final = run_program(prog, assignment).final
        actual = {name: final[name] for name in expected}
        if actual != expected:
            return Verdict(False, cases, Counterexample(assignment, expected, actual))
    return Verdict(True, cases)


def verdict_items(verdict):
    """A verdict with each counterexample dict as its (key, value) list, so
    that key order and value types take part in the comparison."""
    ce = verdict.counterexample
    if ce is None:
        return verdict.passed, verdict.cases, None
    parts = tuple(list(d.items()) for d in (ce.assignment, ce.expected, ce.actual))
    assert all(type(v) is int for part in parts for _, v in part)
    return verdict.passed, verdict.cases, parts


def drop_one(prog, j):
    return Program(prog.registers, prog.inputs, prog.outputs, prog.body[:j] + prog.body[j + 1:])


class TestLaneOracles:
    @pytest.mark.parametrize("width", [2, 3])
    def test_adder_mutants_match_scalar_oracle(self, width):
        prog, plan = gen_adder_serial(width)
        lane, scalar = make_adder_oracle(plan), scalar_adder_oracle(plan)
        programs = [prog] + [drop_one(prog, j) for j in range(len(prog.body))]
        verdicts = [verdict_items(exhaustive_check(m, lane)) for m in programs]
        assert verdicts == [verdict_items(scalar_verdict(m, scalar)) for m in programs]
        assert verdicts[0][0] and sum(not v[0] for v in verdicts) > len(prog.body) // 2

    @pytest.mark.parametrize("name", GATES)
    def test_gate_programs_match_scalar_oracles(self, name):
        prog = gate_program(name)
        out = prog.outputs[0]
        others = [o for o in GATES if GATES[o].arity == GATES[name].arity]
        passed = []
        for other in others:
            truth = GATES[other].truth
            got = verdict_items(exhaustive_check(prog, make_gate_oracle(prog, other)))
            want = verdict_items(scalar_verdict(
                prog, lambda a: {out: truth(*(a[r] for r in prog.inputs))}))
            assert got == want, other
            passed.append(got[0])
        rows = list(itertools.product((0, 1), repeat=GATES[name].arity))
        assert passed == [[GATES[o].truth(*r) for r in rows] == [GATES[name].truth(*r) for r in rows]
                          for o in others]

    def test_nand_against_and_fails_at_first_lane(self):
        nand = gate_program("nand")
        verdict = exhaustive_check(nand, make_gate_oracle(nand, "and"))
        assert verdict_items(verdict) == (False, 4, ([("P", 0), ("Q", 0)], [("S", 0)],
                                                     [("S", 1)]))

    @pytest.mark.parametrize("name", ["NAND", "xor_v1", "adder", ""])
    def test_unknown_gate_fails_at_the_table_lookup(self, name):
        # GATES is the only list of gates: a name outside it is a KeyError naming it
        with pytest.raises(KeyError) as err:
            make_gate_oracle(gate_program("nand"), name)
        assert err.value.args == (name,) and err.traceback[-1].name == "make_gate_oracle"

    def test_lane_oracle_errors(self):
        with pytest.raises(VerificationError, match="unknown register 'Z'"):
            exhaustive_check(NAND, lambda c: {"S": 1, "Z": c["P"]})
        # one lane must not pass for all four
        with pytest.raises(VerificationError, match="register 'S' has shape"):
            exhaustive_check(NAND, lambda c: {"S": np.ones(1, np.uint8)})

    def test_failing_adder8_mutant_report_serializes(self):
        prog, plan = gen_adder_serial(8)
        verdict = exhaustive_check(drop_one(prog, len(prog.body) - 1), make_adder_oracle(plan))
        assert not verdict.passed
        verdict_items(verdict)  # ints only
        text = ReportDocument(__version__, "mutant.imply", metrics(prog), verdict).serialize()
        ce = json.loads(text)["verdict"]["counterexample"]
        assert ce == verdict.counterexample._asdict()
        assert list(ce["expected"]) == [*plan.sum_regs, plan.carry]


BITWISE = {"&": operator.and_, "|": operator.or_, "^": operator.xor}


def mixed_oracle(rng, prog):
    """For each output, a seeded bitwise mix of the input columns: a constant
    or an input column, then up to two of NOT, or AND, OR, XOR with an input
    column.  Each answer has the shape ``all_assignments`` gives the columns."""
    words = max(1, (1 << len(prog.inputs)) >> 6)
    mixes = {}
    for out in prog.outputs:
        start, steps = rng.choice(("0", "1", *prog.inputs)), []
        for _ in range(rng.randint(0, 2)):
            op = rng.choice("~&|^" if prog.inputs else "~")
            steps.append((op, None if op == "~" else rng.choice(prog.inputs)))
        mixes[out] = start, steps

    def oracle(cols):
        zero = np.zeros(words, np.uint64)
        leaf = {"0": zero, "1": ~zero, **cols}
        expected = {}
        for out, (start, steps) in mixes.items():
            col = leaf[start]
            for op, name in steps:
                col = ~col if op == "~" else BITWISE[op](col, cols[name])
            expected[out] = col
        return expected

    return oracle


#: sha256 of the verdicts of :func:`test_verdict_corpus_digest`
VERDICT_CORPUS_DIGEST = "ce331ca3d94a7b17588ee81d10effc38a3f07ab6e188bb8c7d88d52f3d9e76b8"


def test_verdict_corpus_digest():
    """Pins ``(passed, cases, counterexample)`` of 500 seeded random programs
    against mixed column oracles, and of adders 1-4 and every single-drop
    mutant of them against ``make_adder_oracle``."""
    rows = []
    for seed in range(500):
        rng = random.Random(seed)
        prog = random_program(rng)
        rows.append(verdict_items(exhaustive_check(prog, mixed_oracle(rng, prog))))
    random_passed = sum(row[0] for row in rows)
    for width in range(1, 5):
        prog, plan = gen_adder_serial(width)
        oracle = make_adder_oracle(plan)
        for mutant in [prog] + [drop_one(prog, j) for j in range(len(prog.body))]:
            rows.append(verdict_items(exhaustive_check(mutant, oracle)))
    adder_passed = sum(row[0] for row in rows[500:])
    assert (len(rows), random_passed, adder_passed) == (734, 145, 20)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == VERDICT_CORPUS_DIGEST


def lane(col, i):
    """Lane i of a packed column: bit i % 64 of word i // 64."""
    return int(col[i // 64]) >> (i % 64) & 1


# seeds 204, 1215 and 37744 draw 6, 7 and 8 inputs; among 0-29 seeds 8, 10 and 19 draw none
@pytest.mark.parametrize("seed", [*range(30), 204, 1215, 37744])
def test_vectorized_matches_scalar_vm(seed):
    prog = random_program(random.Random(seed))
    cols = all_assignments(prog.inputs)
    state = run_vectorized(prog, cols)
    words = max(1, (1 << len(prog.inputs)) // 64)
    assert {len(col) for col in state.values()} == {words}
    for i in range(64 * words):
        assign = {name: lane(cols[name], i) for name in prog.inputs}
        scalar = run_program(prog, assign).final
        for reg in prog.registers:
            assert lane(state[reg], i) == scalar[reg], (seed, i, reg)


@pytest.mark.parametrize("k", range(8))
def test_packed_lanes_repeat_the_assignments(k):
    names = tuple(f"R{j}" for j in range(k))
    cols = all_assignments(names)
    assert all(col.dtype == np.uint64 and col.shape == (max(1, 2 ** k // 64),)
               for col in cols.values())
    for i in range(max(64, 2 ** k)):
        assert tuple(lane(cols[r], i) for r in names) == tuple(
            (i % 2 ** k) >> (k - 1 - j) & 1 for j in range(k)), i
    prog = Program(names + ("S",), names, ("S",), (false_("S"),))
    zero = np.zeros(max(1, 2 ** k // 64), np.uint64)
    assert exhaustive_check(prog, lambda c: {"S": zero}).cases == 2 ** k


def test_oracle_column_of_another_dtype_or_shape_is_refused():
    ones = np.ones(1, np.uint64)
    for bad in (ones.astype(np.uint8), ones.astype(np.int64), ones.astype(bool),
                np.ones(2, np.uint64), np.ones((1, 1), np.uint64), 0, 1, np.uint64(1)):
        with pytest.raises(VerificationError, match="oracle column for register 'S' has shape"):
            exhaustive_check(NAND, lambda c: {"S": bad})
    assert exhaustive_check(NAND, lambda c: {"S": ~ones}).counterexample.assignment == {
        "P": 0, "Q": 0}


@pytest.mark.parametrize("answer", [2, -1, 0.5])
def test_oracle_scalar_other_than_0_or_1_is_refused(answer):
    with pytest.raises(VerificationError, match=r"register 'S' has shape \(\) and dtype \w+, not"):
        exhaustive_check(NAND, lambda c: {"S": answer})


class TestMetrics:
    def test_xor9_breakdown(self):
        rep = metrics(XOR9)
        assert rep.steps == 9
        assert rep.false_count == 3
        assert rep.imply_count == 6

    def test_steps_equals_false_plus_imply(self):
        for prog in (NAND, XOR9):
            rep = metrics(prog)
            assert rep.steps == rep.false_count + rep.imply_count == count_steps(prog)

    def test_adder8_baseline_ratios(self):
        prog, _ = gen_adder_serial(8)
        rep = metrics(prog)
        assert rep.steps == 184
        by_name = {b.name: b for b in rep.baselines}
        assert by_name["serial-232"].improvement == pytest.approx((232 - 184) / 232)
        assert by_name["serial-232"].improvement == pytest.approx(0.207, abs=5e-4)
        assert by_name["serial-712"].improvement == pytest.approx((712 - 184) / 712)
        assert by_name["serial-712"].improvement == pytest.approx(0.742, abs=5e-4)

    def test_baseline_constants(self):
        assert ("serial-712", 712, 29) in BASELINES
        assert ("serial-232", 232, 27) in BASELINES
