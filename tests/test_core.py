import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from implylogic import analog
from implylogic.analog import CircuitParams, execute_analog
from implylogic.core import (ExecutionError, Program, all_assignments, count_steps,
                             eval_imply, false_, imply, load, run_program, run_vectorized)
from implylogic.verify import exhaustive_check

NAND = Program(
    registers=("P", "Q", "S"),
    inputs=("P", "Q"),
    outputs=("S",),
    body=(false_("S"), imply("P", "S"), imply("Q", "S")),
)

XOR9 = Program(
    registers=("A", "B", "M0", "M1"),
    inputs=("A", "B"),
    outputs=("M0",),
    body=(false_("M0"), imply("A", "M0"), false_("M1"), imply("B", "M1"),
          imply("A", "B"), imply("M0", "M1"), false_("M0"), imply("M1", "M0"),
          imply("B", "M0")),
)


def test_eval_imply_truth_table():
    assert eval_imply(0, 0) == 1
    assert eval_imply(0, 1) == 1
    assert eval_imply(1, 0) == 0
    assert eval_imply(1, 1) == 1


def run_from(state, *body):
    """Final registers of ``body`` run from ``state``, whose registers are
    all declared inputs of the program."""
    regs = tuple(state)
    return run_program(Program(registers=regs, inputs=regs, body=body), state).final


class TestExecInstruction:
    """Each instruction alone, as a one-instruction program."""

    def test_imply_case3(self):
        assert run_from({"P": 1, "Q": 0}, imply("P", "Q")) == {"P": 1, "Q": 0}

    def test_imply_case1(self):
        assert run_from({"P": 0, "Q": 0}, imply("P", "Q")) == {"P": 0, "Q": 1}

    def test_false_forces_zero(self):
        assert run_from({"S": 1}, false_("S")) == {"S": 0}
        assert run_from({"S": 0}, false_("S")) == {"S": 0}

    def test_load(self):
        assert run_from({"P": 0}, load("P", 1)) == {"P": 1}

    def test_unknown_register(self):
        with pytest.raises(ValueError, match="'Z'"):
            run_from({"P": 1}, false_("Z"))
        with pytest.raises(ValueError, match="'Q'"):
            run_from({"P": 1, "S": 0}, imply("Q", "S"))

    @given(st.dictionaries(st.sampled_from("ABCD"), st.integers(0, 1), min_size=2))
    def test_modifies_at_most_target(self, state):
        regs = sorted(state)
        instr = imply(regs[0], regs[1])
        out = run_from(state, instr)
        for r in state:
            if r != instr.target:
                assert out[r] == state[r]


class TestRunProgram:
    def test_nand_all_rows(self):
        for p, q in itertools.product((0, 1), repeat=2):
            res = run_program(NAND, {"P": p, "Q": q})
            assert res.final["S"] == 1 - (p & q)
            assert res.steps == 3

    def test_xor9(self):
        for a, b in itertools.product((0, 1), repeat=2):
            res = run_program(XOR9, {"A": a, "B": b})
            assert res.final["M0"] == a ^ b
            assert res.steps == 9

    def test_empty_body(self):
        prog = Program(registers=("X", "Y"))
        res = run_program(prog)
        assert res.final == {"X": 0, "Y": 0}
        assert res.steps == 0
        assert res.trace == []

    def test_missing_input(self):
        with pytest.raises(ExecutionError, match="'Q'"):
            run_program(NAND, {"P": 1})

    def test_extra_input(self):
        with pytest.raises(ExecutionError, match="'Z'"):
            run_program(NAND, {"P": 1, "Q": 0, "Z": 1})

    def test_trace_one_entry_per_instruction(self):
        res = run_program(NAND, {"P": 1, "Q": 1})
        assert [i for i, _, _ in res.trace] == [0, 1, 2]

    def test_deterministic(self):
        a = run_program(XOR9, {"A": 1, "B": 0})
        b = run_program(XOR9, {"A": 1, "B": 0})
        assert a == b

    def test_loads_execute_but_do_not_count(self):
        prog = Program(registers=("P", "S"), body=(load("P", 1), false_("S"), imply("P", "S")))
        res = run_program(prog)
        assert res.final == {"P": 1, "S": 0}
        assert res.steps == 2


@given(st.integers(0, 1), st.integers(0, 1))
def test_false_then_imply_is_not(p, q):
    # FALSE(q); IMPLY(p, q) leaves q = NOT p for any prior q
    state = run_from({"P": p, "Q": q}, false_("Q"), imply("P", "Q"))
    assert state["Q"] == 1 - p


@given(st.integers(0, 1), st.integers(0, 1))
def test_imply_idempotent_on_result(p, q):
    once = run_from({"P": p, "Q": q}, imply("P", "Q"))
    twice = run_from(once, imply("P", "Q"))
    assert once["Q"] == twice["Q"]


def test_count_steps():
    assert count_steps(XOR9) == 9
    assert count_steps(Program(registers=("P",), body=(load("P", 1),))) == 0
    assert count_steps(NAND) == 3


def test_imply_requires_distinct_operands():
    with pytest.raises(ValueError, match="differ"):
        imply("P", "P")


def test_all_assignments_lanes_in_lexicographic_order():
    cols = all_assignments(("A", "B", "C"))
    lanes = list(zip(*(cols[name].tolist() for name in "ABC")))
    assert lanes == list(itertools.product((0, 1), repeat=3))


def test_run_vectorized_constant_columns_are_read_only():
    prog = Program(registers=("P", "S", "T", "U"), inputs=("P",),
                   body=(load("T", 1), false_("S")))
    cols = all_assignments(("P",))
    state = run_vectorized(prog, cols)
    assert [state[r].tolist() for r in "PSTU"] == [[0, 1], [0, 0], [1, 1], [0, 0]]
    for r in "STU":  # shared between registers, so never written in place
        with pytest.raises(ValueError, match="read-only"):
            state[r] |= 1
    state["P"] |= 1  # an input column is the caller's, copied in
    assert cols["P"].tolist() == [0, 1]


def test_run_vectorized_refuses_a_column_for_an_unknown_register():
    prog = Program(registers=("P", "S"), inputs=("P",), body=(false_("S"),))
    lanes = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ExecutionError, match="unknown register 'Z'"):
        run_vectorized(prog, {"P": lanes, "Z": lanes})


def test_run_vectorized_refuses_columns_of_unequal_length():
    prog = Program(registers=("P", "S"), inputs=("P",), body=(false_("S"),))
    with pytest.raises(ExecutionError, match="input column 'S' has 3 lanes, not 2"):
        run_vectorized(prog, {"P": np.zeros(2, np.uint8), "S": np.zeros(3, np.uint8)})


def test_input_outside_the_registers_is_refused_when_built():
    with pytest.raises(ValueError, match=".in register 'P' not declared"):
        Program(registers=("S",), inputs=("P",))


class TestUndeclaredRegister:
    """A body that names an undeclared register never reaches a machine:
    building the Program refuses it, with the message the machines gave
    when each checked the body itself, before any machine does any work."""

    BODIES = {"false-target": (false_("Z"),), "load-target": (load("Z", 1),),
              "imply-source": (imply("Z", "S"),), "imply-target": (imply("P", "Z"),)}

    @pytest.fixture(params=sorted(BODIES))
    def build(self, request):
        body = (false_("S"),) + self.BODIES[request.param] + (imply("P", "S"),)
        return lambda: Program(registers=("P", "S"), inputs=("P",), outputs=("S",), body=body)

    def test_run_program(self, build):
        with pytest.raises(ValueError, match="unknown register 'Z'"):
            run_program(build(), {"P": 1})

    def test_run_vectorized(self, build):
        with pytest.raises(ValueError, match="unknown register 'Z'"):
            run_vectorized(build(), {"P": np.array([0, 1], dtype=np.uint8)})

    def test_exhaustive_check(self, build):
        with pytest.raises(ValueError, match="unknown register 'Z'"):
            exhaustive_check(build(), lambda cols: {"S": 1 - cols["P"]})

    def test_execute_analog_before_any_pulse(self, build, monkeypatch):
        def no_pulse(*args, **kwargs):
            raise AssertionError("a pulse was integrated")

        monkeypatch.setattr(analog, "_pulse", no_pulse)
        with pytest.raises(ValueError, match="unknown register 'Z'"):
            execute_analog(build(), CircuitParams(), {"P": 1})
