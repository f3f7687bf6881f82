"""Deterministic logical machine for FALSE/IMPLY microcode.

Registers hold binary logic levels: 0 encodes the high-resistance state
(R_OFF) and 1 the low-resistance state (R_ON).  FALSE and IMPLY each cost
one computational step; LOAD directives initialize inputs and cost nothing.
One interpreter loop runs either one assignment on scalar levels
(``run_program``) or many at once, one case per bit of unsigned-integer
words (``run_vectorized``): 64 cases to a ``uint64``, evaluated bitwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np


#: a register name: a letter, then letters, digits or underscores (the parser's rule too)
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Opcode(Enum):
    FALSE = "FALSE"
    IMPLY = "IMPLY"
    LOAD = "LOAD"


class ExecutionError(Exception):
    """Raised when the inputs handed to a machine do not fit the program:
    an assignment that does not give 0 or 1 to exactly its declared
    inputs, or lane columns for an unknown register, of unequal length or
    not of one unsigned integer dtype."""


@dataclass(frozen=True)
class Instruction:
    """One microcode statement.

    FALSE(target) resets target to 0.  IMPLY(source, target) stores
    source -> target into target.  LOAD(target, value) is a non-counted
    input-initialization directive.
    """

    op: Opcode
    target: str
    source: str | None = None
    value: int | None = None

    def __post_init__(self):
        if self.op is Opcode.IMPLY:
            if self.source is None:
                raise ValueError("IMPLY requires a source register")
            if self.source == self.target:
                raise ValueError("IMPLY operands must differ")
        elif self.source is not None:
            raise ValueError(f"{self.op.value} takes no source register")
        if self.op is Opcode.LOAD:
            if self.value not in (0, 1):
                raise ValueError("LOAD value must be 0 or 1")
        elif self.value is not None:
            raise ValueError(f"{self.op.value} takes no value")

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
    return Instruction(Opcode.IMPLY, target, source=source)


def load(target: str, value: int) -> Instruction:
    return Instruction(Opcode.LOAD, target, value=value)


@dataclass(frozen=True)
class Program:
    """Ordered microcode over named registers.

    Building one raises ``ValueError`` unless every register name is an
    identifier, no register is declared twice, every ``.in``/``.out``
    register is declared and listed once, every instruction names declared
    registers only, and all LOADs precede all FALSE/IMPLY instructions.
    The machines rely on these invariants.
    """

    registers: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    body: tuple[Instruction, ...] = ()

    def __post_init__(self):
        declared: set[str] = set()
        for name in self.registers:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid identifier '{name}'")
            if name in declared:
                raise ValueError(f"register '{name}' declared twice")
            declared.add(name)
        for group, directive in ((self.inputs, ".in"), (self.outputs, ".out")):
            for i, name in enumerate(group):
                if name not in declared:
                    raise ValueError(f"{directive} register '{name}' not declared")
                if name in group[:i]:
                    raise ValueError(f"register '{name}' listed twice in {directive}")
        seen_compute = False
        for instr in self.body:
            for name in (instr.target, instr.source):
                if name is not None and name not in declared:
                    raise ValueError(f"unknown register '{name}'")
            if instr.is_step:
                seen_compute = True
            elif seen_compute:
                raise ValueError(f"LOAD must precede all FALSE/IMPLY instructions: '{instr}'")


@dataclass
class RunResult:
    final: dict[str, int]
    trace: list[tuple[int, Instruction, dict[str, int]]]
    steps: int


def eval_imply(p, q, one=1):
    """Material implication: p IMP q = (NOT p) OR q, on 0/1 ints or, with
    ``one`` the all-ones word, bitwise on packed lanes."""
    return (one ^ p) | q


def _execute(prog: Program, state: dict, zero, one):
    """The machine: apply each body instruction to ``state`` in place,
    yielding after each one.  FALSE writes ``zero``, LOAD writes ``zero``
    or ``one`` and IMPLY writes :func:`eval_imply` of its operands."""
    for instr in prog.body:
        if instr.op is Opcode.IMPLY:
            state[instr.target] = eval_imply(state[instr.source], state[instr.target], one)
        else:
            state[instr.target] = one if instr.value else zero
        yield instr


def check_inputs(prog: Program, inputs: dict[str, int],
                 error: type[Exception] = ExecutionError) -> None:
    """The input contract of the logical and the analog machine alike:
    ``inputs`` assigns 0 or 1 to exactly the program's declared inputs."""
    declared = set(prog.inputs)
    for name in inputs:
        if name not in declared:
            raise error(f"unmapped register '{name}' in input assignment: not a declared input")
    for name in prog.inputs:
        if name not in inputs:
            raise error(f"missing input assignment for register '{name}'")
    for name, value in inputs.items():
        if value not in (0, 1):
            raise error(f"input '{name}' must be 0 or 1")


def run_program(prog: Program, inputs: dict[str, int] | None = None) -> RunResult:
    """Execute a program from an all-zero register file.

    ``inputs`` must assign a level to exactly the program's declared input
    registers; LOAD directives in the body then run as part of execution.
    """
    inputs = inputs or {}
    check_inputs(prog, inputs)
    state = {r: 0 for r in prog.registers}
    state.update(inputs)
    trace = [(i, instr, dict(state)) for i, instr in enumerate(_execute(prog, state, 0, 1))]
    return RunResult(final=state, trace=trace, steps=count_steps(prog))


def all_assignments(names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Every assignment of ``names`` as packed ``uint64`` columns of
    max(1, 2^k/64) words: lane i, bit i % 64 of word i // 64, holds the
    binary digits of i with ``names[0]`` as the most significant bit, so
    lane order is lexicographic order over the names.  For k < 6 the one
    word repeats the 2^k assignments: bit i holds assignment i mod 2^k."""
    k = len(names)
    words = np.arange(max(1, (1 << k) >> 6), dtype=np.uint64)
    return {name: -((words >> np.uint64(s - 6)) & np.uint64(1)) if s >= 6  # all-0 or all-1 words
            else np.full(len(words), sum(1 << b for b in range(64) if b >> s & 1), np.uint64)
            for name, s in zip(names, range(k - 1, -1, -1))}


def run_vectorized(prog: Program, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute the program once per lane: every bit of the given columns,
    which share one unsigned integer dtype and length, is one lane setting
    the initial level of its register (others start at 0); every column
    names a register of the program.  Registers holding a constant column
    (unwritten, or last written by FALSE or LOAD) share one read-only array."""
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
    state = dict.fromkeys(prog.registers, zero)
    state.update((name, col.copy()) for name, col in inputs.items())
    for _ in _execute(prog, state, zero, one):
        pass
    return state


def count_steps(prog: Program) -> int:
    """Number of FALSE plus IMPLY instructions; LOADs are excluded."""
    return sum(1 for instr in prog.body if instr.is_step)
