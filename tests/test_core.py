import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_program
from implylogic import analog
from implylogic.analog import CircuitParams, execute_analog
from implylogic.core import (ExecutionError, Instruction, Opcode, Program, _execute,
                             all_assignments, count_steps, eval_imply, false_, imply, load, logic,
                             run_program, run_vectorized)
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


class TestExecuteLoop:
    """The contract of ``_execute``, the loop of both machines: it applies
    each instruction with the semantics it is given, in body order, then
    yields it."""

    BODY = (load("P", 1), false_("S"), imply("P", "S"), imply("S", "Q"))

    def test_applies_each_instruction_before_yielding_it(self):
        calls = []

        def write(level, value):
            calls.append(("write", level, value))
            return f"w({level},{value})"

        def imply_(p, q):
            calls.append(("imply", p, q))
            return f"p({p},{q})", f"q({p},{q})"

        state = {"P": "p0", "Q": "q0", "S": "s0"}
        run = _execute(self.BODY, state, write, imply_)
        assert calls == []  # nothing runs before the first instruction is asked for
        seen = [(instr, len(calls), dict(state)) for instr in run]
        p1, s1 = "w(p0,1)", "w(s0,None)"
        p2, s2 = f"p({p1},{s1})", f"q({p1},{s1})"
        s3, q3 = f"p({s2},q0)", f"q({s2},q0)"
        assert seen == [
            (self.BODY[0], 1, {"P": p1, "Q": "q0", "S": "s0"}),
            (self.BODY[1], 2, {"P": p1, "Q": "q0", "S": s1}),
            (self.BODY[2], 3, {"P": p2, "Q": "q0", "S": s2}),
            (self.BODY[3], 4, {"P": p2, "Q": q3, "S": s3}),
        ]
        # FALSE/LOAD get the target's level and their value (None for FALSE);
        # IMPLY gets (state[source], state[target]) and both results are written back
        assert calls == [("write", "p0", 1), ("write", "s0", None),
                         ("imply", p1, s1), ("imply", s2, "q0")]

    @pytest.mark.parametrize("packed", [False, True], ids=["scalar", "packed"])
    def test_logical_semantics_leave_the_imply_source_untouched(self, packed):
        if packed:
            zero, one = np.zeros(2, np.uint64), np.full(2, np.iinfo(np.uint64).max, np.uint64)
            pairs = [(np.array([0xAAAAAAAAAAAAAAAA, 0xF0F0F0F0F0F0F0F0], np.uint64),
                      np.array([0xCCCCCCCCCCCCCCCC, 0xFF00FF00FF00FF00], np.uint64))]
        else:
            zero, one = 0, 1
            pairs = list(itertools.product((0, 1), repeat=2))
        for p, q in pairs:
            before = np.copy(p)
            state = {"P": p, "Q": q, "S": 1}
            list(_execute((imply("P", "Q"), false_("S"), load("S", 1)), state, *logic(zero, one)))
            assert state["P"] is p and np.array_equal(p, before)
            assert np.array_equal(state["Q"], eval_imply(before, q, one))
            assert state["S"] is one


class TestRunProgram:
    def test_nand_all_rows(self):
        for p, q in itertools.product((0, 1), repeat=2):
            res = run_program(NAND, {"P": p, "Q": q})
            assert res.final["S"] == 1 - (p & q)
        assert count_steps(NAND) == 3

    def test_xor9(self):
        for a, b in itertools.product((0, 1), repeat=2):
            res = run_program(XOR9, {"A": a, "B": b})
            assert res.final["M0"] == a ^ b
        assert count_steps(XOR9) == 9

    def test_empty_body(self):
        prog = Program(registers=("X", "Y"))
        res = run_program(prog)
        assert res.final == {"X": 0, "Y": 0}
        assert count_steps(prog) == 0
        assert res.trace == []

    def test_missing_input(self):
        with pytest.raises(ExecutionError, match="'Q'"):
            run_program(NAND, {"P": 1})

    def test_extra_input(self):
        with pytest.raises(ExecutionError, match="'Z'"):
            run_program(NAND, {"P": 1, "Q": 0, "Z": 1})

    def test_trace_one_entry_per_instruction(self):
        # trace[i] is the level of instruction i's target after it: S after
        # FALSE S, IMPLY P S, IMPLY Q S
        assert run_program(NAND, {"P": 0, "Q": 1}).trace == [0, 1, 1]
        for seed in range(300):  # against a full-state replay of the same body
            rng = random.Random(seed)
            prog = random_program(rng)
            assign = {r: rng.randint(0, 1) for r in prog.inputs}
            state = {**dict.fromkeys(prog.registers, 0), **assign}
            states = [dict(state) for _ in _execute(prog.body, state, *logic(0, 1))]
            want = [after[instr.target] for after, instr in zip(states, prog.body)]
            assert len(states) == len(prog.body), seed
            assert run_program(prog, assign).trace == want, seed

    def test_deterministic(self):
        a = run_program(XOR9, {"A": 1, "B": 0})
        b = run_program(XOR9, {"A": 1, "B": 0})
        assert a == b

    def test_loads_execute_but_do_not_count(self):
        prog = Program(registers=("P", "S"), body=(load("P", 1), false_("S"), imply("P", "S")))
        res = run_program(prog)
        assert res.final == {"P": 1, "S": 0}
        assert res.trace == [1, 0, 0]
        assert count_steps(prog) == 2


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


@pytest.mark.parametrize("fields, message", [
    ({"op": Opcode.IMPLY}, "IMPLY requires a source register"),
    ({"op": Opcode.FALSE, "source": "P"}, "FALSE takes no source register"),
    ({"op": Opcode.LOAD, "value": 2}, "LOAD value must be 0 or 1"),
    ({"op": Opcode.FALSE, "value": 0}, "FALSE takes no value"),
], ids=["imply-without-source", "false-with-source", "load-of-2", "false-with-value"])
def test_instruction_built_directly_is_checked(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Instruction(target="Q", **fields)


@pytest.mark.parametrize("record, change, message", [
    (false_("Q"), {"op": Opcode.IMPLY}, "IMPLY requires a source register"),
    (imply("P", "Q"), {"source": "Q"}, "IMPLY operands must differ"),
    (false_("Q"), {"source": "P"}, "FALSE takes no source register"),
    (load("Q", 1), {"value": 2}, "LOAD value must be 0 or 1"),
    (false_("Q"), {"value": 0}, "FALSE takes no value"),
    (NAND, {"registers": ("P", "Q", "S", "1X")}, "invalid identifier '1X'"),
    (NAND, {"registers": ("P", "Q", "S", "P")}, "register 'P' declared twice"),
    (NAND, {"inputs": ("P", "Z")}, ".in register 'Z' not declared"),
    (NAND, {"outputs": ("S", "S")}, "register 'S' listed twice in .out"),
    (NAND, {"body": NAND.body + (false_("Z"),)}, "unknown register 'Z'"),
    (NAND, {"body": (false_("S"), load("P", 1))},
     "LOAD must precede all FALSE/IMPLY instructions: 'LOAD P 1'"),
])
def test_replace_is_checked_as_construction_is(record, change, message):
    """``_replace`` builds through the same checks, with the same texts, as
    direct construction."""
    for build in (lambda: type(record)(**{**record._asdict(), **change}),
                  lambda: record._replace(**change)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_replace_builds_its_own_class():
    swapped = NAND._replace(outputs=("Q",))
    assert type(swapped) is Program and swapped.outputs == ("Q",)
    assert swapped._replace(outputs=NAND.outputs) == NAND
    assert type(imply("P", "S")._replace(source="Q")) is Instruction


def test_all_assignments_lanes_in_lexicographic_order():
    cols = all_assignments(("A", "B", "C"))
    lanes = [tuple(int(cols[name][0]) >> i & 1 for name in "ABC") for i in range(8)]
    assert lanes == list(itertools.product((0, 1), repeat=3))


def test_run_vectorized_constant_columns_are_read_only():
    prog = Program(registers=("P", "S", "T", "U"), inputs=("P",),
                   body=(load("T", 1), false_("S")))
    cols = all_assignments(("P",))
    state = run_vectorized(prog, cols)
    ones, alternate = 2 ** 64 - 1, 0xAAAA_AAAA_AAAA_AAAA  # bit i holds assignment i mod 2
    assert [state[r].tolist() for r in "PSTU"] == [[alternate], [0], [ones], [0]]
    for r in "STU":  # shared between registers, so never written in place
        with pytest.raises(ValueError, match="read-only"):
            state[r] |= 1
    state["P"] |= 1  # an input column is the caller's, copied in
    assert cols["P"].tolist() == [alternate]


#: bodies over P, Q (inputs) and S, T, U, V that reach every IMPLY case of the lane
#: machine: into a just-FALSEd or LOAD 1 target, and between columns of either sign
LANE_CHAINS = (
    (false_("S"), imply("P", "S"), imply("S", "Q"), imply("P", "S"), imply("P", "Q"),
     false_("T"), imply("Q", "T"), imply("S", "T"), false_("U"), imply("T", "U")),
    (load("U", 1), load("V", 1), false_("S"), imply("P", "S"), false_("T"), imply("S", "T"),
     imply("P", "U"), imply("S", "V"), false_("Q"), imply("T", "Q"), imply("U", "Q")),
    (false_("S"), false_("T"), imply("S", "T"), false_("U"), imply("T", "U"), imply("T", "V"),
     false_("S"), imply("U", "S"), false_("Q"), imply("S", "Q")),
)


def lane_programs():
    """The chains above, then seeded random programs, each with random columns
    of three ``uint64`` words for its inputs and for some other registers."""
    chains = [Program(("P", "Q", "S", "T", "U", "V"), ("P", "Q"), (), body)
              for body in LANE_CHAINS]
    for i, prog in enumerate(chains + [random_program(random.Random(seed)) for seed in range(300)]):
        rng = np.random.default_rng(i)
        given = [r for r in prog.registers if r in prog.inputs or rng.random() < 0.3]
        given = given or prog.registers[:1]  # so that every run has three words
        yield prog, {r: rng.integers(0, 2**64, 3, np.uint64) for r in given}


def test_run_vectorized_is_the_logical_semantics_on_every_lane():
    zero, one = np.zeros(3, np.uint64), np.full(3, 2**64 - 1, np.uint64)
    for prog, cols in lane_programs():
        want = {**dict.fromkeys(prog.registers, zero), **cols}
        list(_execute(prog.body, want, *logic(zero, one)))
        got = run_vectorized(prog, cols)
        assert {r: col.tolist() for r, col in got.items()} == \
               {r: col.tolist() for r, col in want.items()}, prog


def test_run_vectorized_returns_no_column_twice_nor_the_callers():
    """A register last written by IMPLY, or an input never overwritten, gets
    a writable column of its own; only constant columns are shared."""
    for prog, cols in lane_programs():
        state = run_vectorized(prog, cols)
        last = {instr.target: instr for instr in prog.body}
        own = [r for r in prog.registers
               if (last[r].op is Opcode.IMPLY if r in last else r in cols)]
        assert all(state[r].flags.writeable for r in own), prog
        objects = [id(state[r]) for r in own] + [id(col) for col in cols.values()]
        assert len(set(objects)) == len(objects), prog
        for r in set(prog.registers) - set(own):
            assert not state[r].flags.writeable, prog


@pytest.mark.parametrize("body, message", [
    ((false_("S"), load("P", 1), false_("Z")),
     "LOAD must precede all FALSE/IMPLY instructions: 'LOAD P 1'"),
    ((false_("S"), imply("Z", "S"), load("P", 1)), "unknown register 'Z'"),
    ((false_("S"), load("Z", 1)), "unknown register 'Z'"),
    ((load("P", 1), imply("P", "Z"), load("S", 0), false_("Y")), "unknown register 'Z'"),
], ids=["late-load-first", "unknown-first", "late-load-of-unknown", "both-twice"])
def test_program_reports_the_first_fault_in_body_order(body, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Program(registers=("P", "S"), inputs=("P",), body=body)


def test_run_vectorized_refuses_a_column_for_an_unknown_register():
    prog = Program(registers=("P", "S"), inputs=("P",), body=(false_("S"),))
    lanes = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ExecutionError, match="unknown register 'Z'"):
        run_vectorized(prog, {"P": lanes, "Z": lanes})


def test_run_vectorized_refuses_columns_of_unequal_length():
    prog = Program(registers=("P", "S"), inputs=("P",), body=(false_("S"),))
    with pytest.raises(ExecutionError, match="input column 'S' has 3 words, not 2"):
        run_vectorized(prog, {"P": np.zeros(2, np.uint8), "S": np.zeros(3, np.uint8)})


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float64])
def test_run_vectorized_refuses_a_column_that_is_not_unsigned(dtype):
    prog = Program(registers=("P", "S"), inputs=("P",), body=(false_("S"),))
    with pytest.raises(ExecutionError, match="input column 'S' has dtype"):
        run_vectorized(prog, {"P": np.zeros(2, np.uint64), "S": np.zeros(2, dtype)})
    with pytest.raises(ExecutionError, match="input column 'P' has dtype"):
        run_vectorized(prog, {"P": np.zeros(2, dtype)})


def test_run_vectorized_runs_each_bit_of_any_unsigned_dtype():
    prog = Program(registers=("P", "Q", "S"), inputs=("P", "Q"), outputs=("S",),
                   body=(false_("S"), imply("P", "S"), imply("Q", "S")))
    p, q = np.array([0b0101], np.uint8), np.array([0b0011], np.uint8)
    assert run_vectorized(prog, {"P": p, "Q": q})["S"].tolist() == [0b11111110]
    with pytest.raises(ExecutionError, match="input column 'Q' has dtype uint64"):
        run_vectorized(prog, {"P": p, "Q": q.astype(np.uint64)})


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
