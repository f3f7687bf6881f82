import itertools

import numpy as np
import pytest

from implylogic.core import Program, all_assignments, count_steps, run_program
from implylogic.ir import format_program, parse_program
from implylogic.synthesis import (GATES, MAX_ADDER_WIDTH, GateKind, SynthesisError, adder_plan,
                                  gen_adder_serial, synth_gate)

GATE_FUNCS = {
    GateKind.NOT: lambda a, b: 1 - a,
    GateKind.NAND: lambda a, b: 1 - (a & b),
    GateKind.AND: lambda a, b: a & b,
    GateKind.NOR: lambda a, b: 1 - (a | b),
    GateKind.OR: lambda a, b: a | b,
    GateKind.XOR: lambda a, b: a ^ b,
    GateKind.XOR_V1: lambda a, b: a ^ b,
    GateKind.XOR_V2: lambda a, b: a ^ b,
}


def run_template(prog: Program, init: dict) -> dict:
    """Final registers of a template's body run from ``init`` over an
    all-zero register file, any register settable, work registers too."""
    regs = prog.registers
    state = {r: 0 for r in regs}
    state.update(init)
    return run_program(Program(registers=regs, inputs=regs, body=prog.body), state).final


def outputs_written(prog: Program) -> bool:
    """Every output is an input or the target of some instruction (the
    program itself is well formed, or it could not have been built)."""
    written = {instr.target for instr in prog.body} | set(prog.inputs)
    return set(prog.outputs) <= written


def all_states(prog: Program):
    regs = prog.registers
    for levels in itertools.product((0, 1), repeat=len(regs)):
        yield dict(zip(regs, levels))


def changed_registers(prog: Program) -> set[str]:
    """Registers whose final level differs from the initial one for some
    initial state of all the template's registers."""
    changed = set()
    for init in all_states(prog):
        final = run_template(prog, init)
        changed.update(r for r in prog.registers if final[r] != init[r])
    return changed


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_truth_table_under_all_prior_work_levels(kind):
    # correct for every input pair and every prior level of every register
    prog = synth_gate(kind)
    fn = GATE_FUNCS[kind]
    for init in all_states(prog):
        final = run_template(prog, init)
        a = init[prog.inputs[0]]
        b = init[prog.inputs[1]] if len(prog.inputs) > 1 else 0
        assert final[prog.outputs[0]] == fn(a, b), (kind, init)


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_truth_on_packed_lanes(kind):
    # with one the all-ones word, each lane's bit is the truth of that lane's levels
    spec = GATES[kind]
    cols = list(all_assignments(spec.names[:spec.arity]).values())
    got = spec.truth(*cols, one=~np.uint64(0))
    assert got.dtype == np.uint64 and got.shape == (1,)
    rows = [tuple(int(col[0]) >> lane & 1 for col in cols) for lane in range(64)]
    assert len(set(rows)) == 1 << spec.arity
    assert [int(got[0]) >> lane & 1 for lane in range(64)] == [spec.truth(*row) for row in rows]


# registers besides the result that some initial state leaves changed
CLOBBERED = {
    GateKind.NOT: set(),
    GateKind.NAND: set(),
    GateKind.AND: {"S"},
    GateKind.NOR: {"Q", "T"},
    GateKind.OR: {"T"},
    GateKind.XOR: {"P", "T"},
    GateKind.XOR_V1: {"B", "M1"},
    GateKind.XOR_V2: {"B", "M0"},
}


@pytest.mark.parametrize("kind", list(GateKind))
def test_clobber_set_exact(kind):
    prog = synth_gate(kind)
    assert changed_registers(prog) - set(prog.outputs) == CLOBBERED[kind]


def test_nand_template_body():
    prog = synth_gate(GateKind.NAND)
    assert [str(i) for i in prog.body] == ["FALSE S", "IMPLY P S", "IMPLY Q S"]
    assert prog.outputs == ("S",)
    assert count_steps(prog) == 3


def test_not_template_body():
    prog = synth_gate(GateKind.NOT)
    assert [str(i) for i in prog.body] == ["FALSE S", "IMPLY P S"]


@pytest.mark.parametrize("make, body, outputs, registers", [
    (lambda: synth_gate(GateKind.AND),
     ["FALSE S", "IMPLY P S", "IMPLY Q S", "FALSE T", "IMPLY S T"], ("T",), ("P", "Q", "S", "T")),
    (lambda: synth_gate(GateKind.NOR),
     ["FALSE T", "IMPLY P T", "IMPLY T Q", "FALSE S", "IMPLY Q S"], ("S",), ("P", "Q", "T", "S")),
    (lambda: synth_gate(GateKind.OR),
     ["FALSE T", "IMPLY P T", "IMPLY T Q"], ("Q",), ("P", "Q", "T")),
    (lambda: synth_gate(GateKind.XOR),
     ["FALSE S", "IMPLY Q S", "FALSE T", "IMPLY S T", "IMPLY P T", "IMPLY Q P",
      "FALSE S", "IMPLY P S", "IMPLY T S"], ("S",), ("P", "Q", "S", "T")),
    (lambda: gen_adder_serial(1)[0],
     ["FALSE M0", "IMPLY A0 M0", "FALSE M1", "IMPLY B0 M1", "IMPLY M0 B0", "IMPLY A0 M1",
      "FALSE M2", "IMPLY M1 M2", "IMPLY B0 M2", "FALSE M0", "IMPLY M2 M0", "IMPLY C M2",
      "FALSE B0", "IMPLY M0 B0", "IMPLY B0 C", "FALSE M3", "IMPLY M2 M3", "IMPLY C M3",
      "FALSE A0", "IMPLY M3 A0", "FALSE C", "IMPLY M2 C", "IMPLY M1 C"],
     ("A0", "C"), ("A0", "B0", "C", "M0", "M1", "M2", "M3")),
], ids=["and", "nor", "or", "xor", "adder-slice"])
def test_template_body_pinned(make, body, outputs, registers):
    # registers: the operands (the inputs), then the body's in order of first use
    prog = make()
    assert [str(i) for i in prog.body] == body
    assert prog.outputs == outputs
    assert prog.registers == registers


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_declared_order_is_first_use(kind):
    # the table's names are the .regs line: the operands, then the body's
    # other registers in order of first use, so a template edit that
    # reorders them fails here and not only in a golden digest
    spec, prog = GATES[kind], synth_gate(kind)
    first_use = dict.fromkeys(prog.inputs)
    first_use.update((r, None) for instr in prog.body for r in (instr.source, instr.target)
                     if r is not None)
    assert prog.registers == spec.names == tuple(first_use)
    assert prog.inputs == spec.names[:spec.arity]


class TestXorVariants:
    def test_v1_canonical_sequence(self):
        prog = synth_gate(GateKind.XOR_V1)
        assert [str(i) for i in prog.body] == [
            "FALSE M0", "IMPLY A M0", "FALSE M1", "IMPLY B M1", "IMPLY A B",
            "IMPLY M0 M1", "FALSE M0", "IMPLY M1 M0", "IMPLY B M0",
        ]
        assert count_steps(prog) == 9
        assert prog.outputs == ("M0",)

    def test_v1_preserves_a_clobbers_b(self):
        prog = synth_gate(GateKind.XOR_V1)
        changed = changed_registers(prog)
        assert "A" not in changed
        assert {"B", "M1"} <= changed

    def test_v1_results(self):
        prog = synth_gate(GateKind.XOR_V1)
        assert run_template(prog, {"A": 1, "B": 0})["M0"] == 1
        assert run_template(prog, {"A": 1, "B": 1})["M0"] == 0

    def test_v2_canonical_sequence(self):
        prog = synth_gate(GateKind.XOR_V2)
        assert [str(i) for i in prog.body] == [
            "FALSE M0", "IMPLY A M0", "FALSE M1", "IMPLY B M1", "IMPLY M0 B",
            "IMPLY A M1", "FALSE M0", "IMPLY M1 M0", "IMPLY B M0",
            "FALSE M1", "IMPLY M0 M1",
        ]
        assert count_steps(prog) == 11
        assert prog.outputs == ("M1",)  # last-written register

    def test_v2_all_pairs(self):
        prog = synth_gate(GateKind.XOR_V2)
        for a, b in itertools.product((0, 1), repeat=2):
            assert run_template(prog, {"A": a, "B": b})["M1"] == a ^ b


class TestFullAdderSlice:
    """The one-bit adder, ``gen_adder_serial(1)``: the slice every wider
    adder repeats."""

    def test_step_budget(self):
        prog = gen_adder_serial(1)[0]
        assert count_steps(prog) <= 23

    def test_one_one_zero(self):
        prog = gen_adder_serial(1)[0]
        final = run_template(prog, {"A0": 1, "B0": 1, "C": 0})
        assert (final["A0"], final["C"]) == (0, 1)

    def test_exhaustive_including_work_priors(self):
        prog = gen_adder_serial(1)[0]
        for init in all_states(prog):
            final = run_template(prog, init)
            total = init["A0"] + init["B0"] + init["C"]
            assert final["A0"] == total & 1, init
            assert final["C"] == total >> 1, init

    def test_clobber_declared(self):
        prog = gen_adder_serial(1)[0]
        assert "B0" in changed_registers(prog)


class TestSerialAdder:
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_body_is_renamed_slices(self, n):
        # copy i of the one-bit body renames A0 -> Ai and B0 -> Bi, sharing C and M0-M3
        slice_body = gen_adder_serial(1)[0].body
        want = []
        for i in range(n):
            names = {"A0": f"A{i}", "B0": f"B{i}"}
            want += [instr._replace(target=names.get(instr.target, instr.target),
                                    source=names.get(instr.source, instr.source))
                     for instr in slice_body]
        assert gen_adder_serial(n)[0].body == tuple(want)

    def test_n8_headline(self):
        prog, _ = gen_adder_serial(8)
        assert count_steps(prog) <= 184
        assert len(prog.registers) <= 27
        assert count_steps(prog) % 8 == 0
        assert outputs_written(prog)

    def test_carry_ripples_through(self):
        prog, plan = gen_adder_serial(8)
        assign = {r: 1 for r in plan.a_regs}
        assign.update({r: 0 for r in plan.b_regs})
        assign[plan.b_regs[0]] = 1
        assign[plan.carry] = 0
        final = run_program(prog, assign).final
        assert all(final[r] == 0 for r in plan.sum_regs)
        assert final[plan.carry] == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_steps_scale_linearly(self, n):
        prog, _ = gen_adder_serial(n)
        assert count_steps(prog) == n * count_steps(gen_adder_serial(1)[0])

    def test_small_widths_exhaustive(self):
        for n in (1, 2):
            prog, plan = gen_adder_serial(n)
            for bits in itertools.product((0, 1), repeat=2 * n + 1):
                assign = dict(zip(plan.a_regs + plan.b_regs + (plan.carry,), bits))
                a = sum(assign[r] << i for i, r in enumerate(plan.a_regs))
                b = sum(assign[r] << i for i, r in enumerate(plan.b_regs))
                final = run_program(prog, assign).final
                s = sum(final[r] << i for i, r in enumerate(plan.sum_regs))
                total = a + b + assign[plan.carry]
                assert s == total & ((1 << n) - 1)
                assert final[plan.carry] == total >> n

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_plan_read_back_from_declared_order(self, n):
        prog, plan = gen_adder_serial(n)
        assert adder_plan(parse_program(format_program(prog))) == plan
        assert plan.a_regs == tuple(f"A{i}" for i in range(n))
        assert plan.b_regs == tuple(f"B{i}" for i in range(n))
        assert (plan.carry, plan.sum_regs) == ("C", plan.a_regs)

    @pytest.mark.parametrize("inputs, outputs", [
        ((), ()),
        (("A0", "B0"), ("A0", "B0")),                      # even input count
        (("A0", "B0", "C"), ("A0",)),                      # no carry-out
        (("A0", "B0", "C"), ("A0", "B0")),                 # carry-out not in carry-in
        (("A0", "B0", "C"), ("A0", "M0", "C")),            # too many outputs
    ])
    def test_plan_rejects_other_shapes(self, inputs, outputs):
        prog = Program(registers=("A0", "B0", "C", "M0"), inputs=inputs, outputs=outputs)
        with pytest.raises(SynthesisError, match="an adder declares"):
            adder_plan(prog)

    def test_width_guard(self):
        with pytest.raises(SynthesisError, match="width must be >= 1"):
            gen_adder_serial(0)
        with pytest.raises(SynthesisError, match=r"^width must be <= 65536$"):
            gen_adder_serial(MAX_ADDER_WIDTH + 1)

    def test_emits_canonical_ir(self):
        prog, _ = gen_adder_serial(2)
        from implylogic.ir import parse_program
        assert parse_program(format_program(prog)) == prog
