import itertools

import pytest

from implylogic.core import Program, count_steps, run_program
from implylogic.ir import format_program, parse_program
from implylogic.synthesis import (Fragment, GateKind, SynthesisError, adder_plan,
                                  gen_adder_serial, gen_full_adder_1bit, synth_gate)

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


def run_fragment(frag: Fragment, init: dict) -> dict:
    regs = frag.registers
    prog = Program(registers=regs, inputs=regs, body=frag.body)
    state = {r: 0 for r in regs}
    state.update(init)
    return run_program(prog, state).final


def outputs_written(prog: Program) -> bool:
    """Every output is an input or the target of some instruction (the
    program itself is well formed, or it could not have been built)."""
    written = {instr.target for instr in prog.body} | set(prog.inputs)
    return set(prog.outputs) <= written


def all_states(frag: Fragment):
    regs = frag.registers
    for levels in itertools.product((0, 1), repeat=len(regs)):
        yield dict(zip(regs, levels))


def changed_registers(frag: Fragment) -> set[str]:
    """Registers whose final level differs from the initial one for some
    initial state of all the fragment's registers."""
    changed = set()
    for init in all_states(frag):
        final = run_fragment(frag, init)
        changed.update(r for r in frag.registers if final[r] != init[r])
    return changed


def make_gate(kind: GateKind) -> Fragment:
    if kind is GateKind.NOT:
        return synth_gate(kind, "P", work=("S",))
    if kind is GateKind.NAND:
        return synth_gate(kind, "P", "Q", ("S",))
    if kind is GateKind.OR:
        return synth_gate(kind, "P", "Q", ("T",))
    return synth_gate(kind, "P", "Q", ("S", "T"))


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_truth_table_under_all_prior_work_levels(kind):
    # correct for every input pair and every prior level of every register
    frag = make_gate(kind)
    fn = GATE_FUNCS[kind]
    for init in all_states(frag):
        final = run_fragment(frag, init)
        a = init[frag.operands[0]]
        b = init[frag.operands[1]] if len(frag.operands) > 1 else 0
        assert final[frag.result] == fn(a, b), (kind, init)


# registers besides the result that some initial state leaves changed
CLOBBERED = {
    GateKind.NOT: set(),
    GateKind.NAND: set(),
    GateKind.AND: {"S"},
    GateKind.NOR: {"Q", "T"},
    GateKind.OR: {"T"},
    GateKind.XOR: {"P", "T"},
    GateKind.XOR_V1: {"Q", "T"},
    GateKind.XOR_V2: {"Q", "S"},
}


@pytest.mark.parametrize("kind", list(GateKind))
def test_clobber_set_exact(kind):
    frag = make_gate(kind)
    assert changed_registers(frag) - {frag.result} == CLOBBERED[kind]


def test_nand_template_body():
    frag = make_gate(GateKind.NAND)
    assert [str(i) for i in frag.body] == ["FALSE S", "IMPLY P S", "IMPLY Q S"]
    assert frag.result == "S"
    assert frag.steps == 3


def test_not_template_body():
    frag = make_gate(GateKind.NOT)
    assert [str(i) for i in frag.body] == ["FALSE S", "IMPLY P S"]


@pytest.mark.parametrize("make, body, result", [
    (lambda: make_gate(GateKind.AND),
     ["FALSE S", "IMPLY P S", "IMPLY Q S", "FALSE T", "IMPLY S T"], "T"),
    (lambda: make_gate(GateKind.NOR),
     ["FALSE T", "IMPLY P T", "IMPLY T Q", "FALSE S", "IMPLY Q S"], "S"),
    (lambda: make_gate(GateKind.OR),
     ["FALSE T", "IMPLY P T", "IMPLY T Q"], "Q"),
    (lambda: make_gate(GateKind.XOR),
     ["FALSE S", "IMPLY Q S", "FALSE T", "IMPLY S T", "IMPLY P T", "IMPLY Q P",
      "FALSE S", "IMPLY P S", "IMPLY T S"], "S"),
    (lambda: gen_full_adder_1bit("A", "B", "C", ("M0", "M1", "M2", "M3")),
     ["FALSE M0", "IMPLY A M0", "FALSE M1", "IMPLY B M1", "IMPLY M0 B", "IMPLY A M1",
      "FALSE M2", "IMPLY M1 M2", "IMPLY B M2", "FALSE M0", "IMPLY M2 M0", "IMPLY C M2",
      "FALSE B", "IMPLY M0 B", "IMPLY B C", "FALSE M3", "IMPLY M2 M3", "IMPLY C M3",
      "FALSE A", "IMPLY M3 A", "FALSE C", "IMPLY M2 C", "IMPLY M1 C"], "A"),
], ids=["and", "nor", "or", "xor", "adder-slice"])
def test_template_body_pinned(make, body, result):
    frag = make()
    assert [str(i) for i in frag.body] == body
    assert frag.result == result


class TestXorVariants:
    def test_v1_canonical_sequence(self):
        frag = synth_gate(GateKind.XOR_V1, "A", "B", ("M0", "M1"))
        assert [str(i) for i in frag.body] == [
            "FALSE M0", "IMPLY A M0", "FALSE M1", "IMPLY B M1", "IMPLY A B",
            "IMPLY M0 M1", "FALSE M0", "IMPLY M1 M0", "IMPLY B M0",
        ]
        assert frag.steps == 9
        assert frag.result == "M0"

    def test_v1_preserves_a_clobbers_b(self):
        frag = synth_gate(GateKind.XOR_V1, "A", "B", ("M0", "M1"))
        changed = changed_registers(frag)
        assert "A" not in changed
        assert {"B", "M1"} <= changed

    def test_v1_results(self):
        frag = synth_gate(GateKind.XOR_V1, "A", "B", ("M0", "M1"))
        assert run_fragment(frag, {"A": 1, "B": 0})["M0"] == 1
        assert run_fragment(frag, {"A": 1, "B": 1})["M0"] == 0

    def test_v2_canonical_sequence(self):
        frag = synth_gate(GateKind.XOR_V2, "A", "B", ("M0", "M1"))
        assert [str(i) for i in frag.body] == [
            "FALSE M0", "IMPLY A M0", "FALSE M1", "IMPLY B M1", "IMPLY M0 B",
            "IMPLY A M1", "FALSE M0", "IMPLY M1 M0", "IMPLY B M0",
            "FALSE M1", "IMPLY M0 M1",
        ]
        assert frag.steps == 11
        assert frag.result == "M1"  # last-written register

    def test_v2_all_pairs(self):
        frag = synth_gate(GateKind.XOR_V2, "A", "B", ("M0", "M1"))
        for a, b in itertools.product((0, 1), repeat=2):
            assert run_fragment(frag, {"A": a, "B": b})["M1"] == a ^ b

    def test_non_distinct_registers(self):
        with pytest.raises(SynthesisError):
            synth_gate(GateKind.XOR_V1, "A", "A", ("M0", "M1"))
        with pytest.raises(SynthesisError):
            synth_gate(GateKind.XOR_V2, "A", "B", ("M0", "M0"))


def test_insufficient_work_registers():
    with pytest.raises(SynthesisError, match="work register"):
        synth_gate(GateKind.AND, "P", "Q", ("S",))
    with pytest.raises(SynthesisError, match="work register"):
        synth_gate(GateKind.NOT, "P")


class TestFullAdderSlice:
    REGS = ("A", "B", "C", ("M0", "M1", "M2", "M3"))

    def test_step_budget(self):
        frag = gen_full_adder_1bit(*self.REGS)
        assert frag.steps <= 23

    def test_one_one_zero(self):
        frag = gen_full_adder_1bit(*self.REGS)
        final = run_fragment(frag, {"A": 1, "B": 1, "C": 0})
        assert (final["A"], final["C"]) == (0, 1)

    def test_exhaustive_including_work_priors(self):
        frag = gen_full_adder_1bit(*self.REGS)
        for init in all_states(frag):
            final = run_fragment(frag, init)
            total = init["A"] + init["B"] + init["C"]
            assert final["A"] == total & 1, init
            assert final["C"] == total >> 1, init

    def test_clobber_declared(self):
        frag = gen_full_adder_1bit(*self.REGS)
        assert "B" in changed_registers(frag)

    def test_register_budget(self):
        with pytest.raises(SynthesisError):
            gen_full_adder_1bit("A", "B", "C", ("M0", "M0", "M2", "M3"))


class TestSerialAdder:
    def test_n1_matches_slice(self):
        prog, plan = gen_adder_serial(1)
        assert plan.total_steps == plan.steps_per_bit == count_steps(prog)

    def test_n8_headline(self):
        prog, plan = gen_adder_serial(8)
        assert plan.total_steps <= 184
        assert plan.total_registers <= 27
        assert plan.total_steps == 8 * plan.steps_per_bit
        assert count_steps(prog) == plan.total_steps
        assert len(prog.registers) == plan.total_registers
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
        _, plan = gen_adder_serial(n)
        assert plan.total_steps == n * plan.steps_per_bit

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
        assert (plan.carry, plan.sum_regs, plan.work) == ("C", plan.a_regs, ("M0", "M1", "M2", "M3"))

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

    def test_emits_canonical_ir(self):
        prog, _ = gen_adder_serial(2)
        from implylogic.ir import parse_program
        assert parse_program(format_program(prog)) == prog
