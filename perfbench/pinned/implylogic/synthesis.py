"""Expand boolean gates, the two optimized XOR forms, and N-bit serial
full adders into FALSE/IMPLY microcode with explicit register allocation.

All gate templates self-initialize their work registers with FALSE, so a
fragment computes its function regardless of prior work-register levels.
Clobber sets are computed by differential simulation over every initial
assignment, so they are exact by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .core import Instruction, Opcode, Program, count_steps, eval_imply, false_, imply


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
class Fragment:
    """A register-named instruction sequence computing one value.

    ``clobbered`` is the exact set of registers (other than the result)
    whose level can differ from its initial value after the body runs.
    """

    body: tuple[Instruction, ...]
    operands: tuple[str, ...]
    result: str
    clobbered: frozenset[str]

    @property
    def steps(self) -> int:
        return sum(1 for instr in self.body if instr.is_step)

    @property
    def registers(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for r in self.operands:
            seen[r] = None
        for instr in self.body:
            for r in (instr.source, instr.target):
                if r is not None:
                    seen[r] = None
        return tuple(seen)


def _simulate(body: tuple[Instruction, ...], state: dict[str, int]) -> dict[str, int]:
    st = dict(state)
    for instr in body:
        if instr.op is Opcode.FALSE:
            st[instr.target] = 0
        else:
            st[instr.target] = eval_imply(st[instr.source], st[instr.target])
    return st


def _make_fragment(body: list[Instruction], operands: tuple[str, ...], result: str) -> Fragment:
    """Build a fragment, deriving the exact clobber set by exhaustive
    differential simulation over all initial register levels."""
    frag = Fragment(tuple(body), operands, result, frozenset())
    regs = frag.registers
    clobbered: set[str] = set()
    for levels in itertools.product((0, 1), repeat=len(regs)):
        init = dict(zip(regs, levels))
        final = _simulate(frag.body, init)
        clobbered.update(r for r in regs if final[r] != init[r])
    clobbered.discard(result)
    return Fragment(frag.body, operands, result, frozenset(clobbered))


def _require_distinct(*regs: str) -> None:
    names = [r for r in regs if r is not None]
    if len(set(names)) != len(names):
        raise SynthesisError(f"registers must be distinct, got {names}")


def synth_xor_v1(a: str, b: str, m0: str, m1: str) -> Fragment:
    """9-step XOR: (A IMP B) IMP (A' IMP B').  Result lands in m0; the
    source operand ``a`` is preserved, ``b`` ends up holding A IMP B."""
    _require_distinct(a, b, m0, m1)
    body = [
        false_(m0), imply(a, m0),
        false_(m1), imply(b, m1),
        imply(a, b),
        imply(m0, m1),
        false_(m0), imply(m1, m0),
        imply(b, m0),
    ]
    return _make_fragment(body, (a, b), m0)


def synth_xor_v2(a: str, b: str, m0: str, m1: str) -> Fragment:
    """11-step XOR: (A' IMP B) IMP (A IMP B').  Trace analysis places the
    result in m1 (the last-written register); ``a`` is preserved."""
    _require_distinct(a, b, m0, m1)
    body = [
        false_(m0), imply(a, m0),
        false_(m1), imply(b, m1),
        imply(m0, b),
        imply(a, m1),
        false_(m0), imply(m1, m0),
        imply(b, m0),
        false_(m1), imply(m0, m1),
    ]
    return _make_fragment(body, (a, b), m1)


def synth_gate(kind: GateKind, a: str, b: str | None = None, work: tuple[str, ...] = ()) -> Fragment:
    """Instantiate one gate template.

    Work-register needs: NOT and NAND take one work register (the result);
    AND, NOR, and the three XOR forms take two.  OR writes its result into
    ``b`` (clobbering it) and takes one scratch register.
    """
    work = tuple(work)
    two_input = kind is not GateKind.NOT
    if two_input and b is None:
        raise SynthesisError(f"{kind.name} requires two operands")
    if not two_input and b is not None:
        raise SynthesisError("NOT takes a single operand")

    need = {GateKind.NOT: 1, GateKind.NAND: 1, GateKind.AND: 2, GateKind.OR: 1,
            GateKind.NOR: 2, GateKind.XOR: 2, GateKind.XOR_V1: 2, GateKind.XOR_V2: 2}[kind]
    if len(work) < need:
        raise SynthesisError(f"{kind.name} needs {need} work register(s), got {len(work)}")
    work = work[:need]
    _require_distinct(a, b, *work)

    if kind is GateKind.XOR_V1:
        return synth_xor_v1(a, b, work[0], work[1])
    if kind is GateKind.XOR_V2:
        return synth_xor_v2(a, b, work[0], work[1])

    if kind is GateKind.NOT:
        s = work[0]
        return _make_fragment([false_(s), imply(a, s)], (a,), s)
    if kind is GateKind.NAND:
        # S = P IMP (Q IMP 0), realized as FALSE S; P IMP S; Q IMP S
        s = work[0]
        return _make_fragment([false_(s), imply(a, s), imply(b, s)], (a, b), s)
    if kind is GateKind.AND:
        # {P IMP (Q IMP 0)} IMP 0: NAND into s, then invert into t
        s, t = work
        body = [false_(s), imply(a, s), imply(b, s), false_(t), imply(s, t)]
        return _make_fragment(body, (a, b), t)
    if kind is GateKind.OR:
        # (P IMP 0) IMP Q: result overwrites q
        t = work[0]
        return _make_fragment([false_(t), imply(a, t), imply(t, b)], (a, b), b)
    if kind is GateKind.NOR:
        # {(P IMP 0) IMP Q} IMP 0
        s, t = work
        body = [false_(t), imply(a, t), imply(t, b), false_(s), imply(b, s)]
        return _make_fragment(body, (a, b), s)
    if kind is GateKind.XOR:
        # (P IMP Q) IMP {(Q IMP P) IMP 0}, with a copy of Q staged in t
        s, t = work
        body = [
            false_(s), imply(b, s),        # s = ~Q
            false_(t), imply(s, t),        # t = Q
            imply(a, t),                   # t = P IMP Q
            imply(b, a),                   # a = Q IMP P
            false_(s), imply(a, s),        # s = ~(Q IMP P)
            imply(t, s),                   # s = (P IMP Q) IMP ~(Q IMP P)
        ]
        return _make_fragment(body, (a, b), s)
    raise SynthesisError(f"unknown gate kind {kind}")


@dataclass(frozen=True)
class Gate:
    """One netlist entry: gate kind, input net names, output net name."""

    kind: GateKind
    inputs: tuple[str, ...]
    output: str


def compile_netlist(gates: list[Gate], workpool: tuple[str, ...]) -> Program:
    """Concatenate gate fragments over named nets with work-register reuse.

    Nets are registers; the work pool supplies scratch slots and must be
    disjoint from net names.  A gate whose template result lands in an
    input register (OR) makes its output net an alias for that register.
    Reading a net after a fragment clobbered it is an error.
    """
    nets: dict[str, str] = {}     # net name -> register currently holding it
    dead: set[str] = set()        # nets whose value was destroyed
    primary_inputs: list[str] = []
    order: list[str] = []         # register declaration order
    pool = list(workpool)
    body: list[Instruction] = []

    def declare(reg: str) -> None:
        if reg not in order:
            order.append(reg)

    for net in {n for g in gates for n in g.inputs} | {g.output for g in gates}:
        if net in workpool:
            raise SynthesisError(f"work pool register '{net}' collides with net name")

    produced = {g.output for g in gates}
    for g in gates:
        for n in g.inputs:
            if n not in produced and n not in nets:
                nets[n] = n
                primary_inputs.append(n)
                declare(n)

    for g in gates:
        for n in g.inputs:
            if n not in nets:
                raise SynthesisError(f"net '{n}' read before it is produced (cyclic or misordered netlist)")
            if n in dead:
                raise SynthesisError(f"net clobbered: '{n}' was destroyed before gate '{g.output}' reads it")
        if g.output in nets:
            raise SynthesisError(f"net '{g.output}' produced twice")

        in_regs = [nets[n] for n in g.inputs]
        arity = 1 if g.kind is GateKind.NOT else 2
        if len(g.inputs) != arity:
            raise SynthesisError(f"{g.kind.name} takes {arity} input net(s)")

        need = {GateKind.NOT: 1, GateKind.NAND: 1, GateKind.AND: 2, GateKind.OR: 1,
                GateKind.NOR: 2, GateKind.XOR: 2, GateKind.XOR_V1: 2, GateKind.XOR_V2: 2}[g.kind]
        if g.kind is GateKind.OR:
            # result overwrites input b; output net aliases that register
            scratch = _take(pool, 1, g)
            frag = synth_gate(g.kind, in_regs[0], in_regs[1], tuple(scratch))
            nets[g.output] = in_regs[1]
        else:
            # bind the template's result slot to the output net's register
            scratch = _take(pool, need - 1, g)
            declare(g.output)
            if g.kind is GateKind.NOT:
                frag = synth_gate(g.kind, in_regs[0], work=(g.output,))
            elif g.kind is GateKind.NAND:
                frag = synth_gate(g.kind, in_regs[0], in_regs[1], (g.output,))
            elif g.kind is GateKind.AND:
                frag = synth_gate(g.kind, in_regs[0], in_regs[1], (scratch[0], g.output))
            elif g.kind is GateKind.NOR:
                frag = synth_gate(g.kind, in_regs[0], in_regs[1], (g.output, scratch[0]))
            elif g.kind is GateKind.XOR:
                frag = synth_gate(g.kind, in_regs[0], in_regs[1], (g.output, scratch[0]))
            elif g.kind is GateKind.XOR_V1:
                frag = synth_gate(g.kind, in_regs[0], in_regs[1], (g.output, scratch[0]))
            else:  # XOR_V2: result is the second work slot
                frag = synth_gate(g.kind, in_regs[0], in_regs[1], (scratch[0], g.output))
            nets[g.output] = g.output

        for reg in frag.registers:
            declare(reg)
        body.extend(frag.body)
        # scratch slots were FALSE-initialized by the template; free them now
        pool.extend(scratch)
        # any net whose register was clobbered (and is not this gate's output) is dead
        reg_to_net = {r: n for n, r in nets.items()}
        for reg in frag.clobbered:
            net = reg_to_net.get(reg)
            if net is not None and net != g.output:
                dead.add(net)

    outputs = sorted({g.output for g in gates} - {n for g in gates for n in g.inputs})
    return Program(
        registers=tuple(order),
        inputs=tuple(primary_inputs),
        outputs=tuple(nets[o] for o in outputs),
        body=tuple(body),
    )


def _take(pool: list[str], n: int, gate: Gate) -> list[str]:
    if len(pool) < n:
        raise SynthesisError(f"work pool exhausted at gate '{gate.output}'")
    taken, pool[:n] = pool[:n], []
    return taken


@dataclass(frozen=True)
class SliceRegs:
    """Register map for one full-adder bit slice: inputs a and b, the
    threaded carry register, and four shared work registers."""

    a: str
    b: str
    carry: str
    work: tuple[str, str, str, str]


@dataclass(frozen=True)
class AdderPlan:
    """Register allocation and step accounting for a serial adder."""

    width: int
    a_regs: tuple[str, ...]
    b_regs: tuple[str, ...]
    carry: str
    work: tuple[str, ...]
    sum_regs: tuple[str, ...]   # sum bit i overwrites a_regs[i]
    steps_per_bit: int
    total_steps: int
    total_registers: int


def gen_full_adder_1bit(regs: SliceRegs) -> Fragment:
    """23-step full-adder slice: sum lands in ``regs.a``, carry-out in
    ``regs.carry`` (in place), destroying ``regs.b``.

    The sequence is the 11-step XOR form widened by one work register so
    that its NAND(A,B) intermediate survives, which makes the carry-out
    cost 3 extra FALSE/IMPLY pairs instead of a fresh AND/OR cascade:

        m0 <- a xor b                      (11 steps, keeps m1 = ~(a&b))
        m2 <- ~(c & (a xor b))             (1 step on the saved ~m0 copy)
        c' <- (a & b) | (c & (a xor b))    via m1, m2
        a  <- a xor b xor c                via the saved complements
    """
    a, b, c = regs.a, regs.b, regs.carry
    m0, m1, m2, m3 = regs.work
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
    frag = _make_fragment(body, (a, b, c), a)
    if frag.steps != 23:
        raise SynthesisError(f"adder slice emitted {frag.steps} steps, expected 23")
    return frag


def gen_adder_serial(n: int) -> tuple[Program, AdderPlan]:
    """Serial N-bit adder: the 1-bit slice repeated per bit, threading the
    carry register and reusing the same four work registers every slice.

    Register count is 2n + 5 (two input banks, carry, four work), i.e. 21
    for n = 8; step count is 23n, i.e. 184 for n = 8.  Sum bit i is left
    in A<i>; the carry register holds the carry-out.
    """
    if n < 1:
        raise ValueError("width must be >= 1")
    a_regs = tuple(f"A{i}" for i in range(n))
    b_regs = tuple(f"B{i}" for i in range(n))
    carry = "C"
    work = ("M0", "M1", "M2", "M3")

    body: list[Instruction] = []
    steps_per_bit = 0
    for i in range(n):
        frag = gen_full_adder_1bit(SliceRegs(a_regs[i], b_regs[i], carry, work))
        steps_per_bit = frag.steps
        body.extend(frag.body)

    registers = a_regs + b_regs + (carry,) + work
    prog = Program(
        registers=registers,
        inputs=a_regs + b_regs + (carry,),
        outputs=a_regs + (carry,),
        body=tuple(body),
    )
    plan = AdderPlan(
        width=n,
        a_regs=a_regs,
        b_regs=b_regs,
        carry=carry,
        work=work,
        sum_regs=a_regs,
        steps_per_bit=steps_per_bit,
        total_steps=count_steps(prog),
        total_registers=len(registers),
    )
    return prog, plan
