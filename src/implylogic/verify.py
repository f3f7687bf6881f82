"""Exhaustive oracle-equivalence checking and metrics reporting.

The sweep runs all input assignments at once on the lane-parallel logical
machine (one numpy array per register, one lane per case), then compares
output registers against a scalar oracle.  Counterexamples are reported
in lexicographic order over the program's input registers, so failures
are reproducible regardless of how the sweep is evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    state = run_vectorized(prog, all_assignments(names))

    probe = oracle(dict(zip(names, itertools.repeat(0))))
    if probe.keys() - state.keys():
        raise _oracle_key_error(probe, probe, state)
    out_cols = {name: state[name].tolist() for name in probe}

    for i, assignment_bits in enumerate(itertools.product((0, 1), repeat=k)):
        assignment = dict(zip(names, assignment_bits))
        expected = oracle(assignment)
        if len(expected) != len(out_cols):
            raise _oracle_key_error(expected, out_cols, state)
        try:
            for name, want in expected.items():
                if out_cols[name][i] != want:
                    actual = {o: out_cols[o][i] for o in expected}
                    return Verdict(False, cases, Counterexample(assignment, dict(expected), actual))
        except KeyError:
            raise _oracle_key_error(expected, out_cols, state) from None
    return Verdict(True, cases)


def _oracle_key_error(expected: dict, constrained: dict, state: dict) -> VerificationError:
    """Name the register that makes an oracle's answer unusable: one the
    program does not have, or one constrained on some assignments only."""
    unknown = sorted(expected.keys() - state.keys())
    if unknown:
        return VerificationError(f"oracle names unknown register '{unknown[0]}'")
    varying = sorted(expected.keys() ^ constrained.keys())
    return VerificationError(f"oracle constrains register '{varying[0]}' on some assignments only")


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
