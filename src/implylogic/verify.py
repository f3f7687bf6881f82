"""Exhaustive oracle-equivalence checking and metrics reporting.

The sweep runs all input assignments at once on the lane-parallel logical
machine (one numpy array per register, one lane per case), then compares
whole output columns against the columns the oracle expects, which it
computes in one call over the same input columns.  Counterexamples are
reported in lexicographic order over the program's input registers, so
failures are reproducible regardless of how the sweep is evaluated.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Opcode, Program, all_assignments, count_steps, run_vectorized

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


def exhaustive_check(prog: Program, oracle) -> Verdict:
    """Check the program against ``oracle`` over every input assignment.

    ``oracle`` is called once with ``{input: uint8 column}``, lane i
    holding the i-th assignment in lexicographic order (as
    :func:`~implylogic.core.all_assignments` builds it), and returns the
    expected column of each register it constrains; only those registers
    are compared, and a scalar answer stands for every lane.  The first
    counterexample, if any, is the lexicographically smallest failing
    assignment over ``prog.inputs``.
    """
    names = prog.inputs
    k = len(names)
    if k > MAX_INPUT_BITS:
        raise VerificationError(f"input space too large: 2^{k} cases")
    cases = 1 << k
    inputs = all_assignments(names)
    state = run_vectorized(prog, inputs)
    expected = oracle(inputs)
    unknown = sorted(expected.keys() - state.keys())
    if unknown:
        raise VerificationError(f"oracle names unknown register '{unknown[0]}'")

    mismatch = np.zeros(cases, dtype=bool)
    for name, want in expected.items():
        if np.shape(want) not in ((), (cases,)):
            raise VerificationError(
                f"oracle column for register '{name}' has shape {np.shape(want)}, not ({cases},)")
        mismatch |= state[name] != want
    if not mismatch.any():
        return Verdict(True, cases)
    i = int(mismatch.argmax())
    return Verdict(False, cases, Counterexample(
        {name: int(inputs[name][i]) for name in names},
        {name: int(np.broadcast_to(want, cases)[i]) for name, want in expected.items()},
        {name: int(state[name][i]) for name in expected}))


def adder_oracle(a: int, b: int, cin: int, n: int) -> tuple[int, int]:
    """Arithmetic reference: (a + b + cin) split into n sum bits and a
    carry-out bit."""
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        raise ValueError(f"operands must be {n}-bit integers")
    if cin not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")
    total = a + b + cin
    return total & ((1 << n) - 1), total >> n


def make_adder_oracle(plan) -> Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]]:
    """Oracle over an :class:`~implylogic.synthesis.AdderPlan`'s
    register names: the sum bits and carry-out of a + b + cin, computed in
    the narrowest unsigned dtype that holds width + 1 bits (the lane form
    of :func:`adder_oracle`)."""
    dtype = np.min_scalar_type((1 << (plan.width + 1)) - 1)

    def oracle(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        total = cols[plan.carry].astype(dtype)
        for i, (a, b) in enumerate(zip(plan.a_regs, plan.b_regs)):
            total += (cols[a].astype(dtype) + cols[b]) << i
        expected = {r: (total >> i) & 1 for i, r in enumerate(plan.sum_regs)}
        expected[plan.carry] = total >> plan.width
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
