"""Exhaustive oracle-equivalence checking and metrics reporting.

The sweep runs all input assignments at once on the lane-parallel logical
machine (one packed ``uint64`` column per register, one bit per case), then
compares whole output columns against the columns the oracle expects, which
it computes bitwise in one call over the same input columns.  Counterexamples
are reported in lexicographic order over the program's input registers, so
failures are reproducible regardless of how the sweep is evaluated.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .core import ImplyLogicError, Opcode, Program, all_assignments, count_steps, run_vectorized
from .synthesis import GATES, GateKind

MAX_INPUT_BITS = 24

#: Step/register counts of the two prior serial 8-bit adder designs used
#: as comparison baselines.
BASELINES: tuple[tuple[str, int, int], ...] = (("serial-712", 712, 29), ("serial-232", 232, 27))


class VerificationError(ImplyLogicError):
    pass


class Counterexample(NamedTuple):
    assignment: dict[str, int]
    expected: dict[str, int]
    actual: dict[str, int]


class Verdict(NamedTuple):
    passed: bool
    cases: int
    counterexample: Counterexample | None = None


class BaselineComparison(NamedTuple):
    name: str
    steps: int
    registers: int
    improvement: float  # (baseline steps - program steps) / baseline steps


class MetricsReport(NamedTuple):
    steps: int
    registers: int
    false_count: int
    imply_count: int
    baselines: tuple[BaselineComparison, ...]


def exhaustive_check(prog: Program, oracle) -> Verdict:
    """Check the program against ``oracle`` over every input assignment.

    ``oracle`` is called once with ``{input: packed uint64 column}`` as
    :func:`~implylogic.core.all_assignments` builds them and returns, for
    each register it constrains, the expected column computed bitwise: an
    ndarray of the dtype and shape of that register's column in the run
    (one ``uint64`` word when the program has no inputs).  Only those
    registers are compared.  The first counterexample, if any, is the
    lexicographically smallest failing assignment over ``prog.inputs``.
    """
    import numpy as np  # on first use: compile and run never load it
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

    mismatch = 0  # the OR of the compared columns' XORs: an array once one is compared
    for name, want in expected.items():
        have = state[name]
        if not (isinstance(want, np.ndarray) and want.shape == have.shape
                and want.dtype == have.dtype):
            raise VerificationError(
                f"oracle column for register '{name}' has shape {np.shape(want)} and dtype "
                f"{getattr(want, 'dtype', type(want).__name__)}, not {have.shape} and {have.dtype}")
        mismatch |= have ^ want
    if not np.any(mismatch):
        return Verdict(True, cases)
    w = int((mismatch != 0).argmax())  # the case: the lowest set bit of the first nonzero word
    b = (int(mismatch[w]) & -int(mismatch[w])).bit_length() - 1
    return Verdict(False, cases, Counterexample(*(
        {name: int(col[w]) >> b & 1 for name, col in cols.items()}
        for cols in (inputs, expected, {name: state[name] for name in expected}))))


def make_adder_oracle(plan) -> Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]]:
    """Oracle over an :class:`~implylogic.synthesis.AdderPlan`'s
    register names: the sum bits and carry-out of a + b + cin as a
    bit-sliced ripple carry over packed columns."""
    def oracle(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        expected, c = {}, cols[plan.carry]
        for a, b, s in zip(plan.a_regs, plan.b_regs, plan.sum_regs):
            half = cols[a] ^ cols[b]
            expected[s] = half ^ c
            c = (cols[a] & cols[b]) | (c & half)
        expected[plan.carry] = c
        return expected

    return oracle


def make_gate_oracle(prog: Program, kind: GateKind) -> Callable:
    """Oracle of gate ``kind`` for ``prog``'s first ``.out`` register, its inputs the
    gate's operands in order: the gate table's truth function on the packed columns."""
    spec = GATES[kind]
    if len(prog.inputs) != spec.arity:
        raise VerificationError(
            f"oracle '{kind.value}' arity does not match {len(prog.inputs)} program inputs")
    if not prog.outputs:
        raise VerificationError(
            f"oracle '{kind.value}' checks the first .out register; none is declared")
    import numpy as np
    ins, out = prog.inputs, prog.outputs[0]
    return lambda cols: {out: spec.truth(*(cols[r] for r in ins), one=~np.uint64(0))}


def metrics(prog: Program) -> MetricsReport:
    """Step/register counts plus improvement ratios vs the baselines."""
    steps = count_steps(prog)
    false_count = [instr.op for instr in prog.body].count(Opcode.FALSE)
    comparisons = tuple(BaselineComparison(name, base, regs, (base - steps) / base)
                        for name, base, regs in BASELINES)
    return MetricsReport(steps=steps, registers=len(prog.registers), false_count=false_count,
                         imply_count=steps - false_count, baselines=comparisons)
