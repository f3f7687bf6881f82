"""Logical references for the benchmark, written apart from ``implylogic``.

The benchmark reads ``.imply`` text with its own small parser, runs every
input lane at once with numpy, and compares the outputs with integer
arithmetic (adders) or a truth function (gates).  Nothing here imports the
program under test, so a fault in the toolchain cannot hide in its own
reference.
"""

from __future__ import annotations

import collections
import functools
import random
from dataclasses import dataclass

import numpy as np

#: Step counts of the two earlier serial 8-bit adders the paper compares with.
BASELINE_STEPS = {"serial-712": 712, "serial-232": 232}

#: Truth function of each gate program that ``compile --gate`` emits.
GATE_TRUTH = {
    "not": lambda a, b: ~a,
    "nand": lambda a, b: ~(a & b),
    "and": lambda a, b: a & b,
    "nor": lambda a, b: ~(a | b),
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "xor9": lambda a, b: a ^ b,
    "xor11": lambda a, b: a ^ b,
}

MUTANT_KINDS = ("operand", "target", "opcode", "drop")


@dataclass(frozen=True)
class RefProgram:
    """Declarations and body of one ``.imply`` file.

    Each body entry is ``(op, a, b)``: ``("FALSE", t, None)``,
    ``("IMPLY", source, target)`` or ``("LOAD", t, level)``.
    """

    regs: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    body: tuple[tuple, ...]

    @property
    def steps(self) -> int:
        return sum(1 for op, _, _ in self.body if op != "LOAD")

    def count(self, op: str) -> int:
        return sum(1 for o, _, _ in self.body if o == op)

    def text(self) -> str:
        lines = [".regs " + " ".join(self.regs)]
        if self.inputs:
            lines.append(".in " + " ".join(self.inputs))
        if self.outputs:
            lines.append(".out " + " ".join(self.outputs))
        for op, a, b in self.body:
            lines.append(f"{op} {a}" if b is None else f"{op} {a} {b}")
        return "\n".join(lines) + "\n"


def parse_imply(text: str) -> RefProgram:
    decl = {".regs": (), ".in": (), ".out": ()}
    body = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head, args = toks[0], toks[1:]
        if head in decl:
            decl[head] = tuple(args)
        elif head == "FALSE" and len(args) == 1:
            body.append(("FALSE", args[0], None))
        elif head == "IMPLY" and len(args) == 2:
            body.append(("IMPLY", args[0], args[1]))
        elif head == "LOAD" and len(args) == 2 and args[1] in ("0", "1"):
            body.append(("LOAD", args[0], int(args[1])))
        else:
            raise ValueError(f"reference parser: cannot read line {raw!r}")
    known = set(decl[".regs"])
    for op, a, b in body:
        if a not in known or (op == "IMPLY" and b not in known):
            raise ValueError(f"reference parser: undeclared register in {op} {a} {b}")
    return RefProgram(decl[".regs"], decl[".in"], decl[".out"], tuple(body))


@functools.lru_cache(maxsize=4)
def input_columns(k: int) -> tuple[np.ndarray, ...]:
    """Lane ``i`` holds assignment ``i`` in MSB-first order over the k
    inputs, i.e. the lexicographic order of ``itertools.product``.

    Columns are bit-packed (``np.packbits``: lane 0 is the high bit of
    byte 0), so one byte operation evaluates eight lanes.  Callers must
    not write to the cached columns."""
    idx = np.arange(1 << k, dtype=np.int64)
    return tuple(np.packbits((idx >> (k - 1 - j)) & 1) for j in range(k))


def lane_bit(packed: np.ndarray, lane: int) -> int:
    return int(packed[lane >> 3] >> (7 - (lane & 7))) & 1


def evaluate(prog: RefProgram) -> dict[str, np.ndarray]:
    """Final level of every register on every input lane (packed bits)."""
    cols = input_columns(len(prog.inputs))
    width = len(cols[0]) if cols else 1
    state = {r: np.zeros(width, dtype=np.uint8) for r in prog.regs}
    state.update(zip(prog.inputs, cols))
    for op, a, b in prog.body:
        if op == "FALSE":
            state[a] = np.zeros(width, dtype=np.uint8)
        elif op == "LOAD":
            state[a] = np.full(width, 0xFF if b else 0, dtype=np.uint8)
        else:
            state[b] = ~state[a] | state[b]
    return state


def adder_expected(prog: RefProgram) -> dict[str, np.ndarray]:
    """Expected outputs of an n-bit adder whose inputs are declared A (LSB
    first), B, then carry-in, and whose outputs are the sum bits, then
    carry-out: a + b + cin in integer arithmetic on every lane."""
    k = len(prog.inputs)
    n = (k - 1) // 2
    if k != 2 * n + 1 or len(prog.outputs) != n + 1:
        raise ValueError("not an adder interface: need 2n+1 inputs and n+1 outputs")
    idx = np.arange(1 << k, dtype=np.int64)
    bit = [(idx >> (k - 1 - j)) & 1 for j in range(k)]
    a = sum(bit[i] << i for i in range(n))
    b = sum(bit[n + i] << i for i in range(n))
    total = a + b + bit[2 * n]
    return {reg: np.packbits((total >> i) & 1) for i, reg in enumerate(prog.outputs)}


def gate_expected(prog: RefProgram, gate: str) -> dict[str, np.ndarray]:
    cols = input_columns(len(prog.inputs))
    a = cols[0]
    b = cols[1] if len(cols) > 1 else np.zeros_like(a)
    return {prog.outputs[0]: GATE_TRUTH[gate](a, b)}


@dataclass(frozen=True)
class RefVerdict:
    passed: bool
    cases: int
    lane: int | None = None  # index of the first failing assignment
    assignment: dict[str, int] | None = None
    expected: dict[str, int] | None = None
    actual: dict[str, int] | None = None


def check_against(prog: RefProgram, expected: dict[str, np.ndarray]) -> RefVerdict:
    """Verdict over every lane; the counterexample is the first failing lane."""
    k = len(prog.inputs)
    cases = 1 << k
    state = evaluate(prog)
    bad = np.zeros_like(next(iter(expected.values())))
    for reg, want in expected.items():
        bad |= state[reg] ^ want
    if cases < 8:  # packbits pads the last byte with zero lanes
        bad[-1] &= (0xFF << (8 - cases)) & 0xFF
    nonzero = np.flatnonzero(bad)
    if not len(nonzero):
        return RefVerdict(True, cases)
    byte = int(nonzero[0])
    lane = 8 * byte + 7 - int(bad[byte]).bit_length() + 1
    return RefVerdict(
        False, cases, lane,
        assignment={name: (lane >> (k - 1 - j)) & 1 for j, name in enumerate(prog.inputs)},
        expected={reg: lane_bit(want, lane) for reg, want in expected.items()},
        actual={reg: lane_bit(state[reg], lane) for reg in expected},
    )


def mutant_pool(prog: RefProgram, seed: int) -> list[tuple[str, int, RefProgram]]:
    """Every single-instruction mutant of ``prog``, one per (position, kind):

    - ``operand``: an IMPLY's source becomes another register;
    - ``target``: the written register becomes another register;
    - ``opcode``: IMPLY s t becomes FALSE t, FALSE t becomes IMPLY r t;
    - ``drop``: the instruction is deleted.

    The seed draws each replacement register from the declared registers,
    never equal to the other operand.  Returns ``(kind, position, mutant)``.
    """
    rng = random.Random(seed)
    body = list(prog.body)
    regs = prog.regs
    out = []
    for pos, (op, a, b) in enumerate(body):
        if op == "LOAD":
            continue
        for kind in MUTANT_KINDS:
            mutated = list(body)
            if kind == "drop":
                del mutated[pos]
            elif kind == "operand":
                if op != "IMPLY":
                    continue
                mutated[pos] = ("IMPLY", rng.choice([r for r in regs if r not in (a, b)]), b)
            elif kind == "target":
                if op == "FALSE":
                    mutated[pos] = ("FALSE", rng.choice([r for r in regs if r != a]), None)
                else:
                    mutated[pos] = ("IMPLY", a, rng.choice([r for r in regs if r not in (a, b)]))
            elif op == "IMPLY":
                mutated[pos] = ("FALSE", b, None)
            else:
                mutated[pos] = ("IMPLY", rng.choice([r for r in regs if r != a]), a)
            out.append((kind, pos, RefProgram(prog.regs, prog.inputs, prog.outputs,
                                              tuple(mutated))))
    return out


def failure_bin(verdict: RefVerdict) -> str:
    """``"pass"`` for an equivalent mutant, else the bit length of the first
    failing lane: the verifier's scan reaches that lane before it stops, so
    the bin fixes the cost of the verdict to within a factor of two."""
    return "pass" if verdict.passed else str(verdict.lane.bit_length())


def bin_quota(verdicts: list[RefVerdict], total: int) -> dict[str, int]:
    """Mutants per failure bin in a round of ``total``: each bin's share of
    the pool, rounded by largest remainder, with at least one per bin so
    that late failures and equivalent mutants always appear."""
    counts = collections.Counter(failure_bin(v) for v in verdicts)
    share = {b: total * counts[b] / len(verdicts) for b in sorted(counts)}
    quota = {b: max(1, int(s)) for b, s in share.items()}
    short = max(0, total - sum(quota.values()))
    for b in sorted(share, key=lambda b: quota[b] - share[b])[:short]:
        quota[b] += 1
    return quota


def draw_mutants(pool: list, verdicts: list[RefVerdict], seed: int,
                 quota: dict[str, int]) -> list[int]:
    """Indices into ``pool``: ``quota[bin]`` mutants drawn at random from
    each failure bin, returned in pool order.  A bin with fewer candidates
    than its quota is an error, so every seed gets the same mix of early
    failures, late failures and equivalent mutants."""
    rng = random.Random(seed)
    by_bin: dict[str, list[int]] = {}
    for i, v in enumerate(verdicts):
        by_bin.setdefault(failure_bin(v), []).append(i)
    chosen = []
    for name, count in quota.items():
        have = by_bin.get(name, [])
        if len(have) < count:
            raise ValueError(f"mutant bin {name} has {len(have)} candidates, quota {count}")
        chosen += rng.sample(have, count)
    return sorted(chosen)
