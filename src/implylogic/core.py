"""Deterministic logical machine for FALSE/IMPLY microcode.

Registers hold binary logic levels: 0 encodes the high-resistance state
(R_OFF) and 1 the low-resistance state (R_ON).  FALSE and IMPLY each cost
one computational step; LOAD directives initialize inputs and cost nothing.
One interpreter loop walks a body for both machines, each passing it its
own FALSE/LOAD and IMPLY semantics.  The logical ones run one assignment on
scalar levels (``run_program``) or many at once, one case per bit of
unsigned-integer words (``run_vectorized``): 64 cases to a ``uint64``,
evaluated bitwise.  The device model (``analog.execute_analog``) passes
pulse-table lookups, with a logical run in lockstep for nominal levels.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from typing import NamedTuple


#: a register name: a letter, then letters, digits or underscores (the parser's rule too)
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Opcode(Enum):
    FALSE = "FALSE"
    IMPLY = "IMPLY"
    LOAD = "LOAD"


class ImplyLogicError(Exception):
    """Base of the toolchain's own errors; the CLI reports each as one ``error:`` line."""


class ExecutionError(ImplyLogicError):
    """Raised when the inputs handed to a machine do not fit the program:
    an assignment that does not give 0 or 1 to exactly its declared
    inputs, or lane columns for an unknown register, of unequal length or
    not of one unsigned integer dtype."""


class Instruction(namedtuple("Instruction", "op target source value")):
    """One microcode statement.

    FALSE(target) resets target to 0.  IMPLY(source, target) stores
    source -> target into target.  LOAD(target, value) is a non-counted
    input-initialization directive.  Building one, ``_replace`` included,
    raises ``ValueError`` unless its operands fit its opcode.
    """

    __slots__ = ()

    def __new__(cls, op: Opcode, target: str, source: str | None = None, value: int | None = None):
        if op is Opcode.IMPLY:
            if source is None:
                raise ValueError("IMPLY requires a source register")
            if source == target:
                raise ValueError("IMPLY operands must differ")
        elif source is not None:
            raise ValueError(f"{op.value} takes no source register")
        if op is Opcode.LOAD:
            if value not in (0, 1):
                raise ValueError("LOAD value must be 0 or 1")
        elif value is not None:
            raise ValueError(f"{op.value} takes no value")
        return tuple.__new__(cls, (op, target, source, value))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace checks too

    @property
    def is_step(self) -> bool:
        """True for the instructions that count as computational steps."""
        return self.op is not Opcode.LOAD

    def __str__(self) -> str:
        if self.op is Opcode.FALSE:
            return f"FALSE {self.target}"
        if self.op is Opcode.IMPLY:
            return f"IMPLY {self.source} {self.target}"
        return f"LOAD {self.target} {self.value}"


def false_(target: str) -> Instruction:
    return Instruction(Opcode.FALSE, target)


def imply(source: str, target: str) -> Instruction:
    return Instruction(Opcode.IMPLY, target, source)


def load(target: str, value: int) -> Instruction:
    return Instruction(Opcode.LOAD, target, value=value)


class Program(namedtuple("Program", "registers inputs outputs body")):
    """Ordered microcode over named registers.

    Building one, ``_replace`` included, raises ``ValueError`` unless every
    register name is an identifier, no register is declared twice, every
    ``.in``/``.out`` register is declared and listed once, every
    instruction names declared registers only, and all LOADs precede all
    FALSE/IMPLY instructions.  The machines rely on these invariants.
    """

    __slots__ = ()

    def __new__(cls, registers: tuple[str, ...], inputs: tuple[str, ...] = (),
                outputs: tuple[str, ...] = (), body: tuple[Instruction, ...] = ()):
        declared: set[str] = set()
        for name in registers:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid identifier '{name}'")
            if name in declared:
                raise ValueError(f"register '{name}' declared twice")
            declared.add(name)
        for group, directive in ((inputs, ".in"), (outputs, ".out")):
            listed: set[str] = set()
            for name in group:
                if name not in declared:
                    raise ValueError(f"{directive} register '{name}' not declared")
                if name in listed:
                    raise ValueError(f"register '{name}' listed twice in {directive}")
                listed.add(name)
        ops, targets, sources, _ = tuple(zip(*body)) or ((),) * 4
        if {*targets, *sources} - declared - {None} or Opcode.LOAD in ops[ops.count(Opcode.LOAD):]:
            seen_compute = False  # a fault: find the first, in body order
            for instr in body:
                for name in (instr.target, instr.source):
                    if name is not None and name not in declared:
                        raise ValueError(f"unknown register '{name}'")
                if instr.is_step:
                    seen_compute = True
                elif seen_compute:
                    raise ValueError(f"LOAD must precede all FALSE/IMPLY instructions: '{instr}'")
        return tuple.__new__(cls, (registers, inputs, outputs, body))

    _make = classmethod(lambda cls, iterable: cls(*iterable))


class RunResult(NamedTuple):
    """The final register file, and in ``trace[i]`` the level of instruction
    i's target after instruction i: the one register it can change."""

    final: dict[str, int]
    trace: list[int]


def eval_imply(p, q, one=1):
    """Material implication: p IMP q = (NOT p) OR q, on 0/1 ints or, with
    ``one`` the all-ones word, bitwise on packed lanes."""
    return (one ^ p) | q


def _execute(body, state: dict, write, imply):
    """The machine: apply each instruction of ``body`` to ``state`` in place,
    then yield it.  FALSE/LOAD set the target to ``write(level, value)``
    (value None for FALSE), IMPLY the source and target to ``imply(p, q)``."""
    for instr in body:
        s, t = instr.source, instr.target
        if s is None:
            state[t] = write(state[t], instr.value)
        else:
            state[s], state[t] = imply(state[s], state[t])
        yield instr


def logic(zero, one):
    """The logical semantics for :func:`_execute`: FALSE/LOAD write ``zero``
    or ``one``; IMPLY keeps its source and writes :func:`eval_imply`."""
    return (lambda level, value: one if value else zero,
            lambda p, q: (p, eval_imply(p, q, one)))


def check_inputs(prog: Program, inputs: dict[str, int]) -> None:
    """The input contract of the logical and the analog machine alike:
    ``inputs`` assigns 0 or 1 to exactly the program's declared inputs."""
    declared = set(prog.inputs)
    for name in inputs:
        if name not in declared:
            raise ExecutionError(
                f"unmapped register '{name}' in input assignment: not a declared input")
    for name in prog.inputs:
        if name not in inputs:
            raise ExecutionError(f"missing input assignment for register '{name}'")
    for name, value in inputs.items():
        if value not in (0, 1):
            raise ExecutionError(f"input '{name}' must be 0 or 1")


def run_program(prog: Program, inputs: dict[str, int] | None = None) -> RunResult:
    """Execute a program from an all-zero register file.

    ``inputs`` must assign a level to exactly the program's declared input
    registers; LOAD directives in the body then run as part of execution.
    """
    inputs = inputs or {}
    check_inputs(prog, inputs)
    state = {**dict.fromkeys(prog.registers, 0), **inputs}
    trace = [state[instr.target] for instr in _execute(prog.body, state, *logic(0, 1))]
    return RunResult(final=state, trace=trace)


def all_assignments(names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Every assignment of ``names`` as packed ``uint64`` columns of
    max(1, 2^k/64) words: lane i, bit i % 64 of word i // 64, holds the
    binary digits of i with ``names[0]`` as the most significant bit, so
    lane order is lexicographic order over the names.  For k < 6 the one
    word repeats the 2^k assignments: bit i holds assignment i mod 2^k."""
    import numpy as np  # on first use: compile and run never load it
    k = len(names)
    words = np.arange(max(1, (1 << k) >> 6), dtype=np.uint64)
    return {name: -((words >> np.uint64(s - 6)) & np.uint64(1)) if s >= 6  # all-0 or all-1 words
            else np.full(len(words), ((1 << 64) - 1) // ((1 << (1 << s)) + 1) << (1 << s),
                         np.uint64)  # 2^s zero bits, then 2^s one bits, repeated
            for name, s in zip(names, range(k - 1, -1, -1))}


def run_vectorized(prog: Program, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute the program once per lane: every bit of the given columns,
    which share one unsigned integer dtype and length, is one lane setting
    the initial level of its register (others start at 0); every column
    names a register of the program.  Registers holding a constant column
    (never written, or last written by FALSE or LOAD) share one read-only array;
    every other returned column is a fresh array of its register alone.

    Negation is free: in the run a register holds ``(column, negated)``, so IMPLY
    takes no pass into a just-FALSEd target, else one if the signs differ, or two."""
    import numpy as np
    first = next(iter(inputs.values()), np.zeros(1, np.uint64))
    words, dtype = len(first), first.dtype
    for name, col in inputs.items():
        if name not in prog.registers:
            raise ExecutionError(f"unknown register '{name}'")
        if col.dtype.kind != "u" or col.dtype != dtype:
            raise ExecutionError(f"input column '{name}' has dtype {col.dtype}: lanes are the "
                                 f"bits of one unsigned integer dtype")
        if len(col) != words:
            raise ExecutionError(f"input column '{name}' has {len(col)} words, not {words}")
    zero, one = np.zeros(words, dtype), np.full(words, np.iinfo(dtype).max, dtype)
    zero.flags.writeable = one.flags.writeable = False
    ZERO, ONE = (zero, False), (one, False)

    def imply_(p, t):
        P, negp = p
        if t is ZERO:
            return p, (P, not negp)
        T, negt = t
        if negp != negt:
            return p, ((P | T, False) if negp else (P & T, True))
        return p, ((P | ~T) if negp else (~P | T), False)

    state = dict.fromkeys(prog.registers, ZERO)
    state.update((name, (col, False)) for name, col in inputs.items())
    for _ in _execute(prog.body, state, lambda level, value: ONE if value else ZERO, imply_):
        pass
    taken = {id(zero), id(one), *map(id, inputs.values())}  # and then each column returned
    for name, value in state.items():
        col, negated = value
        if negated or value is ZERO or value is ONE:
            state[name] = ~col if negated else col
        else:
            state[name] = col.copy() if id(col) in taken else col
            taken.add(id(col))
    return state


def count_steps(prog: Program) -> int:
    """Number of FALSE plus IMPLY instructions in the program's body; LOADs
    are excluded."""
    return len(prog.body) - [instr.op for instr in prog.body].count(Opcode.LOAD)
