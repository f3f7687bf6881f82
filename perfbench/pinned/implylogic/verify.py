"""Exhaustive oracle-equivalence checking and metrics reporting.

The sweep executes all input assignments bit-parallel on packed numpy
arrays (one array per register, one lane per input case), then compares
output registers against a scalar oracle.  Counterexamples are reported
in lexicographic order over the program's input registers, so failures
are reproducible regardless of how the sweep is evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Opcode, Program, count_steps

MAX_INPUT_BITS = 24

#: Step/register counts of the two prior serial 8-bit adder designs used
#: as comparison baselines.
BASELINES: tuple[tuple[str, int, int], ...] = (
    ("serial-712", 712, 29),
    ("serial-232", 232, 27),
)


class VerificationError(Exception):
    pass


@dataclass(frozen=True)
class Counterexample:
    assignment: dict[str, int]
    expected: dict[str, int]
    actual: dict[str, int]


@dataclass(frozen=True)
class Verdict:
    passed: bool
    cases: int
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class BaselineComparison:
    name: str
    steps: int
    registers: int
    improvement: float  # (baseline steps - program steps) / baseline steps


@dataclass(frozen=True)
class MetricsReport:
    steps: int
    registers: int
    false_count: int
    imply_count: int
    baselines: tuple[BaselineComparison, ...]


def run_vectorized(prog: Program, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute the program once per lane of the given uint8 input arrays."""
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


def exhaustive_check(prog: Program, oracle) -> Verdict:
    """Check the program against ``oracle`` over every input assignment.

    ``oracle`` maps an input assignment (register name -> level) to the
    expected levels of the registers it constrains; only those registers
    are compared.  The first counterexample, if any, is the
    lexicographically smallest failing assignment over ``prog.inputs``.
    """
    names = prog.inputs
    k = len(names)
    if k > MAX_INPUT_BITS:
        raise VerificationError(f"input space too large: 2^{k} cases")
    cases = 1 << k

    idx = np.arange(cases, dtype=np.uint32)
    bits = {name: ((idx >> (k - 1 - i)) & 1).astype(np.uint8) for i, name in enumerate(names)}
    state = run_vectorized(prog, bits)

    probe = oracle(dict(zip(names, itertools.repeat(0))))
    out_cols = {name: state[name].tolist() for name in probe}

    for i, assignment_bits in enumerate(itertools.product((0, 1), repeat=k)):
        assignment = dict(zip(names, assignment_bits))
        expected = oracle(assignment)
        for name, want in expected.items():
            if out_cols[name][i] != want:
                actual = {o: out_cols[o][i] for o in expected}
                return Verdict(False, cases, Counterexample(assignment, dict(expected), actual))
    return Verdict(True, cases)


def adder_oracle(a: int, b: int, cin: int, n: int) -> tuple[int, int]:
    """Arithmetic reference: (a + b + cin) split into n sum bits and a
    carry-out bit."""
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        raise ValueError(f"operands must be {n}-bit integers")
    if cin not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")
    total = a + b + cin
    return total & ((1 << n) - 1), total >> n


def make_adder_oracle(plan) -> "callable":
    """Oracle over an :class:`~implylogic.synthesis.AdderPlan`'s register
    names, comparing sum bits and carry-out against :func:`adder_oracle`."""

    def oracle(assignment: dict[str, int]) -> dict[str, int]:
        a = sum(assignment[r] << i for i, r in enumerate(plan.a_regs))
        b = sum(assignment[r] << i for i, r in enumerate(plan.b_regs))
        s, cout = adder_oracle(a, b, assignment[plan.carry], plan.width)
        expected = {r: (s >> i) & 1 for i, r in enumerate(plan.sum_regs)}
        expected[plan.carry] = cout
        return expected

    return oracle


def metrics(prog: Program) -> MetricsReport:
    """Step/register counts plus improvement ratios vs the baselines."""
    false_count = sum(1 for i in prog.body if i.op is Opcode.FALSE)
    imply_count = sum(1 for i in prog.body if i.op is Opcode.IMPLY)
    steps = count_steps(prog)
    comparisons = tuple(
        BaselineComparison(name, base_steps, base_regs, (base_steps - steps) / base_steps)
        for name, base_steps, base_regs in BASELINES
    )
    return MetricsReport(
        steps=steps,
        registers=len(prog.registers),
        false_count=false_count,
        imply_count=imply_count,
        baselines=comparisons,
    )
