"""Expand boolean gates, the two optimized XOR forms, and N-bit serial
full adders into FALSE/IMPLY microcode with explicit register allocation.

Every gate template is one entry of :data:`GATES`.  All templates
self-initialize their work registers with FALSE, so a fragment computes
its function regardless of prior work-register levels.  The tests
``test_gate_truth_table_under_all_prior_work_levels`` (every gate) and
``TestFullAdderSlice::test_exhaustive_including_work_priors`` (the adder
slice) in ``tests/test_synthesis.py`` check that from every initial level
of every register.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import Instruction, Program, count_steps, false_, imply


class SynthesisError(Exception):
    pass


class GateKind(Enum):
    NOT = "not"
    NAND = "nand"
    AND = "and"
    NOR = "nor"
    OR = "or"
    XOR = "xor"
    XOR_V1 = "xor9"
    XOR_V2 = "xor11"


@dataclass(frozen=True)
class GateSpec:
    """One gate template over ``arity`` operands and ``work`` work registers.

    ``build(*operands, *work)`` returns the body; ``result`` is the index
    of the work slot holding the result, or None when the result
    overwrites operand b.  ``names`` are the canonical operand and work
    registers of the single-gate program; ``truth`` is the boolean
    function of the operand levels.
    """

    arity: int
    work: int
    result: int | None
    build: Callable[..., list[Instruction]]
    names: tuple[str, ...]
    truth: Callable[..., int]


def _xor(a, b, s, t):
    # (P IMP Q) IMP {(Q IMP P) IMP 0}, with a copy of Q staged in t
    return [
        false_(s), imply(b, s),        # s = ~Q
        false_(t), imply(s, t),        # t = Q
        imply(a, t),                   # t = P IMP Q
        imply(b, a),                   # a = Q IMP P
        false_(s), imply(a, s),        # s = ~(Q IMP P)
        imply(t, s),                   # s = (P IMP Q) IMP ~(Q IMP P)
    ]


def _xor_v1(a, b, m0, m1):
    # 9-step XOR: (A IMP B) IMP (A' IMP B'); a is preserved, b ends up
    # holding A IMP B
    return [
        false_(m0), imply(a, m0),
        false_(m1), imply(b, m1),
        imply(a, b),
        imply(m0, m1),
        false_(m0), imply(m1, m0),
        imply(b, m0),
    ]


def _xor_v2(a, b, m0, m1):
    # 11-step XOR: (A' IMP B) IMP (A IMP B'); trace analysis places the
    # result in m1 (the last-written register); a is preserved
    return [
        false_(m0), imply(a, m0),
        false_(m1), imply(b, m1),
        imply(m0, b),
        imply(a, m1),
        false_(m0), imply(m1, m0),
        imply(b, m0),
        false_(m1), imply(m0, m1),
    ]


GATES: dict[GateKind, GateSpec] = {  # arity, work, result slot, body, names, truth
    GateKind.NOT: GateSpec(1, 1, 0, lambda a, s: [false_(s), imply(a, s)],
                           ("P", "S"), lambda a: 1 - a),
    # S = P IMP (Q IMP 0), realized as FALSE S; P IMP S; Q IMP S
    GateKind.NAND: GateSpec(2, 1, 0, lambda a, b, s: [false_(s), imply(a, s), imply(b, s)],
                            ("P", "Q", "S"), lambda a, b: 1 - (a & b)),
    # {P IMP (Q IMP 0)} IMP 0: NAND into s, then invert into t
    GateKind.AND: GateSpec(2, 2, 1, lambda a, b, s, t: [false_(s), imply(a, s), imply(b, s),
                                                         false_(t), imply(s, t)],
                           ("P", "Q", "S", "T"), operator.and_),
    # {(P IMP 0) IMP Q} IMP 0
    GateKind.NOR: GateSpec(2, 2, 0, lambda a, b, s, t: [false_(t), imply(a, t), imply(t, b),
                                                         false_(s), imply(b, s)],
                           ("P", "Q", "S", "T"), lambda a, b: 1 - (a | b)),
    # (P IMP 0) IMP Q: result overwrites q
    GateKind.OR: GateSpec(2, 1, None, lambda a, b, t: [false_(t), imply(a, t), imply(t, b)],
                          ("P", "Q", "T"), operator.or_),
    GateKind.XOR: GateSpec(2, 2, 0, _xor, ("P", "Q", "S", "T"), operator.xor),
    GateKind.XOR_V1: GateSpec(2, 2, 0, _xor_v1, ("A", "B", "M0", "M1"), operator.xor),
    GateKind.XOR_V2: GateSpec(2, 2, 1, _xor_v2, ("A", "B", "M0", "M1"), operator.xor),
}


@dataclass(frozen=True)
class Fragment:
    """A register-named instruction sequence computing one value."""

    body: tuple[Instruction, ...]
    operands: tuple[str, ...]
    result: str

    @property
    def steps(self) -> int:
        return sum(1 for instr in self.body if instr.is_step)

    @property
    def registers(self) -> tuple[str, ...]:
        seen = dict.fromkeys(self.operands)
        for instr in self.body:
            for r in (instr.source, instr.target):
                if r is not None:
                    seen[r] = None
        return tuple(seen)


def _require_distinct(*regs: str) -> None:
    if len(set(regs)) != len(regs):
        raise SynthesisError(f"registers must be distinct, got {list(regs)}")


def synth_gate(kind: GateKind, a: str, b: str | None = None, work: tuple[str, ...] = ()) -> Fragment:
    """Instantiate one gate template over operands ``a`` (and ``b``) and
    the first ``GATES[kind].work`` registers of ``work``."""
    spec = GATES[kind]
    operands = (a,) if b is None else (a, b)
    if len(operands) != spec.arity:
        raise SynthesisError(f"{kind.name} takes {spec.arity} operand(s), got {len(operands)}")
    if len(work) < spec.work:
        raise SynthesisError(f"{kind.name} needs {spec.work} work register(s), got {len(work)}")
    work = tuple(work[:spec.work])
    _require_distinct(*operands, *work)
    result = b if spec.result is None else work[spec.result]
    return Fragment(tuple(spec.build(*operands, *work)), operands, result)


@dataclass(frozen=True)
class AdderPlan:
    """Register allocation and step accounting for a serial adder."""

    width: int
    a_regs: tuple[str, ...]
    b_regs: tuple[str, ...]
    carry: str
    work: tuple[str, ...]
    sum_regs: tuple[str, ...]
    steps_per_bit: int
    total_steps: int
    total_registers: int


def gen_full_adder_1bit(a: str, b: str, carry: str, work: tuple[str, str, str, str]) -> Fragment:
    """23-step full-adder slice over four ``work`` registers: sum lands in
    ``a``, carry-out in ``carry`` (in place), destroying ``b``.

    The sequence is the 11-step XOR form widened by one work register so
    that its NAND(A,B) intermediate survives, which makes the carry-out
    cost 3 extra FALSE/IMPLY pairs instead of a fresh AND/OR cascade:

        m0 <- a xor b                      (11 steps, keeps m1 = ~(a&b))
        m2 <- ~(c & (a xor b))             (1 step on the saved ~m0 copy)
        c' <- (a & b) | (c & (a xor b))    via m1, m2
        a  <- a xor b xor c                via the saved complements
    """
    c = carry
    m0, m1, m2, m3 = work
    _require_distinct(a, b, c, m0, m1, m2, m3)
    body = [
        # x = a xor b into m0, preserving ~(a&b) in m1 and xnor(a,b) in m2
        false_(m0), imply(a, m0),      # m0 = ~a
        false_(m1), imply(b, m1),      # m1 = ~b
        imply(m0, b),                  # b  = a | b
        imply(a, m1),                  # m1 = ~(a & b)
        false_(m2), imply(m1, m2),     # m2 = a & b
        imply(b, m2),                  # m2 = xnor(a, b)
        false_(m0), imply(m2, m0),     # m0 = x = a xor b
        # carry and sum, reusing m2 = ~x and m1 = ~(a & b)
        imply(c, m2),                  # m2 = ~(c & x)
        false_(b), imply(m0, b),       # b  = ~x
        imply(b, c),                   # c  = x | c
        false_(m3), imply(m2, m3),     # m3 = c & x
        imply(c, m3),                  # m3 = xnor(x, c)
        false_(a), imply(m3, a),       # a  = x xor c = sum
        false_(c), imply(m2, c),       # c  = c & x
        imply(m1, c),                  # c  = (a & b) | (c & x) = carry out
    ]
    frag = Fragment(tuple(body), (a, b, c), a)
    if frag.steps != 23:
        raise SynthesisError(f"adder slice emitted {frag.steps} steps, expected 23")
    return frag


def gen_adder_serial(n: int) -> tuple[Program, AdderPlan]:
    """Serial N-bit adder: the 1-bit slice repeated per bit, threading the
    carry register and reusing the same four work registers every slice.

    Register count is 2n + 5 (two input banks, carry, four work), i.e. 21
    for n = 8; step count is 23n, i.e. 184 for n = 8.  Sum bit i is left
    in A<i>; the carry register holds the carry-out.  The declared order
    is the one :func:`adder_plan` reads.
    """
    if n < 1:
        raise SynthesisError("width must be >= 1")
    a_regs = tuple(f"A{i}" for i in range(n))
    b_regs = tuple(f"B{i}" for i in range(n))
    carry = "C"
    work = ("M0", "M1", "M2", "M3")

    body: list[Instruction] = []
    for i in range(n):
        body.extend(gen_full_adder_1bit(a_regs[i], b_regs[i], carry, work).body)

    prog = Program(
        registers=a_regs + b_regs + (carry,) + work,
        inputs=a_regs + b_regs + (carry,),
        outputs=a_regs + (carry,),
        body=tuple(body),
    )
    return prog, adder_plan(prog)


def adder_plan(prog: Program) -> AdderPlan:
    """The plan of an N-bit adder program, read from its declared order:
    inputs A (LSB first), B (LSB first), carry-in; outputs the N sum bits
    (LSB first), then the carry-out, which lands in the carry-in register.
    Register names are free."""
    n = (len(prog.inputs) - 1) // 2
    carry = prog.inputs[-1] if prog.inputs else None
    if n < 1 or len(prog.inputs) != 2 * n + 1 or prog.outputs[n:] != (carry,):
        raise SynthesisError("an adder declares inputs A0.., B0.., carry-in and outputs "
                             "S0.., then carry-out in the carry-in register")
    steps = count_steps(prog)
    return AdderPlan(
        width=n,
        a_regs=prog.inputs[:n],
        b_regs=prog.inputs[n:2 * n],
        carry=carry,
        work=tuple(r for r in prog.registers if r not in prog.inputs),
        sum_regs=prog.outputs[:n],
        steps_per_bit=steps // n,
        total_steps=steps,
        total_registers=len(prog.registers),
    )
