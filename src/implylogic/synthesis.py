"""Expand boolean gates, the two optimized XOR forms, and N-bit serial
full adders into FALSE/IMPLY microcode with explicit register allocation.

Every gate template is one entry of :data:`GATES`.  All templates
self-initialize their work registers with FALSE, so a template's program
computes its function regardless of prior work-register levels.  The tests
``test_gate_truth_table_under_all_prior_work_levels`` (every gate) and
``TestFullAdderSlice::test_exhaustive_including_work_priors`` (the adder
slice) in ``tests/test_synthesis.py`` check that from every initial level
of every register.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import ImplyLogicError, Instruction, Program, false_, imply


#: widest adder ``gen_adder_serial`` builds: wider ones are refused before any allocation
MAX_ADDER_WIDTH = 65_536


class SynthesisError(ImplyLogicError):
    pass


class GateSpec(NamedTuple):
    """One gate template over ``arity`` operands and the rest of ``names`` as
    work registers.

    ``names`` are the registers of the single-gate program in its declared
    order: the operands, then the body's others in order of first use.
    ``build(*names)`` returns the body; ``result`` is the index into
    ``names`` of the register holding the result.  ``truth`` is the boolean
    function of the operand levels, bitwise as ``core.eval_imply``: with
    ``one`` the all-ones word it is the gate's oracle on packed lanes.
    """

    arity: int
    result: int
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


GATES: dict[str, GateSpec] = {  # CLI name: arity, result index, body, names, truth
    "not": GateSpec(1, 1, lambda a, s: [false_(s), imply(a, s)],
                    ("P", "S"), lambda a, one=1: one ^ a),
    # S = P IMP (Q IMP 0), realized as FALSE S; P IMP S; Q IMP S
    "nand": GateSpec(2, 2, lambda a, b, s: [false_(s), imply(a, s), imply(b, s)],
                     ("P", "Q", "S"), lambda a, b, one=1: one ^ (a & b)),
    # {P IMP (Q IMP 0)} IMP 0: NAND into s, then invert into t
    "and": GateSpec(2, 3, lambda a, b, s, t: [false_(s), imply(a, s), imply(b, s),
                                              false_(t), imply(s, t)],
                    ("P", "Q", "S", "T"), lambda a, b, one=1: a & b),
    # {(P IMP 0) IMP Q} IMP 0
    "nor": GateSpec(2, 3, lambda a, b, t, s: [false_(t), imply(a, t), imply(t, b),
                                              false_(s), imply(b, s)],
                    ("P", "Q", "T", "S"), lambda a, b, one=1: one ^ (a | b)),
    # (P IMP 0) IMP Q: result overwrites q
    "or": GateSpec(2, 1, lambda a, b, t: [false_(t), imply(a, t), imply(t, b)],
                   ("P", "Q", "T"), lambda a, b, one=1: a | b),
    "xor": GateSpec(2, 2, _xor, ("P", "Q", "S", "T"), lambda a, b, one=1: a ^ b),
    "xor9": GateSpec(2, 2, _xor_v1, ("A", "B", "M0", "M1"), lambda a, b, one=1: a ^ b),
    "xor11": GateSpec(2, 3, _xor_v2, ("A", "B", "M0", "M1"), lambda a, b, one=1: a ^ b),
}


def synth_gate(name: str) -> Program:
    """The single-gate program of gate ``name`` over its table registers: its
    inputs the operands, its one output the result register."""
    spec = GATES[name]
    return Program(spec.names, spec.names[:spec.arity], (spec.names[spec.result],),
                   tuple(spec.build(*spec.names)))


class AdderPlan(NamedTuple):
    """Register allocation for a serial adder."""

    width: int
    a_regs: tuple[str, ...]
    b_regs: tuple[str, ...]
    carry: str
    sum_regs: tuple[str, ...]


def _slice_body(a: str, b: str, c: str, work: tuple[str, ...]) -> list[Instruction]:
    """23-step full-adder slice over four ``work`` registers: sum lands in
    ``a``, carry-out in ``c`` (in place), destroying ``b``.  The registers
    must be distinct; :func:`gen_adder_serial` names them so.

    The sequence is the 11-step XOR form widened by one work register so
    that its NAND(A,B) intermediate survives, which makes the carry-out
    cost 3 extra FALSE/IMPLY pairs instead of a fresh AND/OR cascade:

        m0 <- a xor b                      (11 steps, keeps m1 = ~(a&b))
        m2 <- ~(c & (a xor b))             (1 step on the saved ~m0 copy)
        c' <- (a & b) | (c & (a xor b))    via m1, m2
        a  <- a xor b xor c                via the saved complements
    """
    m0, m1, m2, m3 = work
    return [
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
    if n > MAX_ADDER_WIDTH:
        raise SynthesisError(f"width must be <= {MAX_ADDER_WIDTH}")
    a_regs = tuple(f"A{i}" for i in range(n))
    b_regs = tuple(f"B{i}" for i in range(n))
    carry = "C"
    work = ("M0", "M1", "M2", "M3")

    body = [instr for a, b in zip(a_regs, b_regs) for instr in _slice_body(a, b, carry, work)]

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
    return AdderPlan(
        width=n,
        a_regs=prog.inputs[:n],
        b_regs=prog.inputs[n:2 * n],
        carry=carry,
        sum_regs=prog.outputs[:n],
    )
