"""Deterministic logical machine for FALSE/IMPLY microcode.

Registers hold binary logic levels: 0 encodes the high-resistance state
(R_OFF) and 1 the low-resistance state (R_ON).  FALSE and IMPLY each cost
one computational step; LOAD directives initialize inputs and cost nothing.
The machine runs either one assignment on scalar levels (``run_program``)
or many assignments at once, one numpy lane each (``run_vectorized``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Opcode(Enum):
    FALSE = "FALSE"
    IMPLY = "IMPLY"
    LOAD = "LOAD"


class ExecutionError(Exception):
    """Raised when an instruction references an unknown register or an
    input assignment does not cover the program's inputs."""


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

    Invariants (checked by :func:`implylogic.ir.validate`): every
    instruction references declared registers only, and all LOADs precede
    all FALSE/IMPLY instructions.
    """

    registers: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    body: tuple[Instruction, ...] = ()


@dataclass
class RunResult:
    final: dict[str, int]
    trace: list[tuple[int, Instruction, dict[str, int]]]
    steps: int


def eval_imply(p: int, q: int) -> int:
    """Material implication: p IMP q = (NOT p) OR q."""
    return (1 - p) | q


def exec_instruction(state: dict[str, int], instr: Instruction) -> dict[str, int]:
    """Apply one instruction to a register file, returning a new state."""
    if instr.target not in state:
        raise ExecutionError(f"unknown register '{instr.target}'")
    out = dict(state)
    if instr.op is Opcode.FALSE:
        out[instr.target] = 0
    elif instr.op is Opcode.LOAD:
        out[instr.target] = instr.value
    else:
        if instr.source not in state:
            raise ExecutionError(f"unknown register '{instr.source}'")
        out[instr.target] = eval_imply(state[instr.source], state[instr.target])
    return out


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

    trace: list[tuple[int, Instruction, dict[str, int]]] = []
    steps = 0
    for i, instr in enumerate(prog.body):
        state = exec_instruction(state, instr)
        if instr.is_step:
            steps += 1
        trace.append((i, instr, dict(state)))
    return RunResult(final=state, trace=trace, steps=steps)


def all_assignments(names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """One uint8 lane per assignment of ``names``, lane i holding the
    binary digits of i with ``names[0]`` as the most significant bit, so
    lane order is lexicographic order over the names."""
    k = len(names)
    bit = np.array([0, 1], dtype=np.uint8)
    return {name: np.tile(np.repeat(bit, 1 << (k - 1 - i)), 1 << i)
            for i, name in enumerate(names)}


def run_vectorized(prog: Program, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute the program once per lane of the given uint8 arrays, which
    set the initial levels of any registers (others start at 0)."""
    lanes = len(next(iter(inputs.values()))) if inputs else 1
    state = {r: np.zeros(lanes, dtype=np.uint8) for r in prog.registers}
    for name, col in inputs.items():
        state[name] = col.astype(np.uint8)
    for instr in prog.body:
        if instr.op is Opcode.FALSE:
            state[instr.target] = np.zeros(lanes, dtype=np.uint8)
        elif instr.op is Opcode.LOAD:
            state[instr.target] = np.full(lanes, instr.value, dtype=np.uint8)
        else:
            state[instr.target] = (state[instr.source] ^ 1) | state[instr.target]
    return state


def count_steps(prog: Program) -> int:
    """Number of FALSE plus IMPLY instructions; LOADs are excluded."""
    return sum(1 for instr in prog.body if instr.is_step)
