#!/usr/bin/env python3
"""Time one statement against two checkouts of implylogic in one process.

Loads ``PARENT/src/implylogic`` and ``CHANGE/src/implylogic`` side by side,
as the packages ``ab_parent`` and ``ab_change`` with every module of each
imported, and binds each in turn to the name ``implylogic`` for the setup
and the statement.  Each round times a batch of runs of the statement (at
least 2 ms of the parent's) on both sides in thread CPU time, alternating
which side goes first, so that drift in the machine's speed falls on both.  Prints the
interpreter (the first line of ``sys.version``: a gain may hold on one CPython
release only), each side's median time per run with its quartiles, the ratio
of the medians and the number of rounds the change won.  Standard library only.

    python scripts/ab.py PARENT CHANGE --setup SETUP --stmt STMT [--rounds N]

For example, the parser on the 8-bit adder's text:

    python scripts/ab.py ../parent . --rounds 200 \\
        --setup "text = implylogic.ir.format_program(implylogic.synthesis.gen_adder_serial(8)[0])" \\
        --stmt "implylogic.ir.parse_program(text)"

Or write-time calibration at the default parameters, which every ``simulate``
without ``--pulse-width`` runs first, on a fresh ``PulseTable`` each run:

    python scripts/ab.py ../parent . --rounds 100 \\
        --stmt "implylogic.analog.CircuitParams().resolved()"

Or the eight gate ``simulate --csv`` commands of the ``analog-gates``
workload, in one statement, their programs compiled first into ``gates/``.
The setup makes one ``contextlib.redirect_stdout`` that the statement
enters, so the commands print nothing and this script's report still
reaches the terminal:

    mkdir -p gates
    for g in not nand and nor or xor xor9 xor11; do
        PYTHONPATH=src python -m implylogic.cli compile --gate $g -o gates/$g.imply
    done
    python scripts/ab.py ../parent . --rounds 40 \\
        --setup "import contextlib, io; quiet = contextlib.redirect_stdout(io.StringIO()); \\
                 gates = 'not nand and nor or xor xor9 xor11'.split()" \\
        --stmt "with quiet: [implylogic.cli.main(['simulate', f'gates/{g}.imply', \\
                '--csv', f'gates/{g}.csv']) for g in gates]"

Or one operation of the ``debug-mutants`` workload: ``verify --report`` of an
adder8 mutant (here, one instruction deleted), then ``run --trace`` of its
counterexample.  The setup reads the report that a first ``verify`` wrote and
turns the counterexample into ``--set`` flags:

    PYTHONPATH=src python -m implylogic.cli compile --adder 8 -o mut.imply
    sed -i 40d mut.imply
    PYTHONPATH=src python -m implylogic.cli verify mut.imply --oracle adder --report mut.json
    python scripts/ab.py ../parent . --rounds 200 \\
        --setup "import contextlib, io, json; quiet = contextlib.redirect_stdout(io.StringIO()); \\
                 ce = json.load(open('mut.json'))['verdict']['counterexample']['assignment']; \\
                 sets = [flag for r, v in ce.items() for flag in ('--set', f'{r}={v}')]" \\
        --stmt "with quiet: implylogic.cli.main(['verify', 'mut.imply', '--oracle', 'adder', \\
                '--report', 'mut.json']); implylogic.cli.main(['run', 'mut.imply', *sets, '--trace'])"

Or one operation of the ``verify-adder8`` workload: ``compile --adder 8`` to a
file, then ``verify --report`` of that file, printing nothing as above:

    python scripts/ab.py ../parent . --rounds 100 \\
        --setup "import contextlib, io; quiet = contextlib.redirect_stdout(io.StringIO())" \\
        --stmt "with quiet: implylogic.cli.main(['compile', '--adder', '8', '-o', 'a8.imply']); \\
                implylogic.cli.main(['verify', 'a8.imply', '--oracle', 'adder', \\
                '--report', 'a8.json'])"
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
import timeit
from types import ModuleType

#: least thread CPU time of one side's batch of runs in a round
MIN_BATCH_S = 0.002


def load_tree(root: str, name: str) -> ModuleType:
    """``root/src/implylogic`` imported as the package ``name``, with every module."""
    src = os.path.join(root, "src", "implylogic")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for file in sorted(os.listdir(src)):
        if file.endswith(".py") and file != "__init__.py":
            importlib.import_module(f"{name}.{file[:-3]}")
    return package


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout whose src/implylogic is the baseline")
    parser.add_argument("change", help="checkout whose src/implylogic is measured against it")
    parser.add_argument("--setup", default="pass", help="run once per batch, before timing")
    parser.add_argument("--stmt", required=True, help="the statement timed")
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    timers = {}
    for side, root in (("parent", args.parent), ("change", args.change)):
        namespace = {"implylogic": load_tree(root, f"ab_{side}")}
        timers[side] = timeit.Timer(args.stmt, args.setup, timer=time.thread_time,
                                    globals=namespace)
    number = 1  # runs per batch, doubled as timeit.Timer.autorange does, on the parent
    while timers["parent"].timeit(number) < MIN_BATCH_S:
        number *= 2
    times: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(timers[side].timeit(number) / number)

    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"python: {sys.version.splitlines()[0]}")
    medians = {}
    for side, series in times.items():
        q1, medians[side], q3 = statistics.quantiles(series, n=4)
        print(f"{side}: median {medians[side] * 1e6:.3f} us per run "
              f"(quartiles {q1 * 1e6:.3f}-{q3 * 1e6:.3f} us)")
    print(f"change/parent: {medians['change'] / medians['parent']:.3f}")
    print(f"change faster in {wins} of {args.rounds} rounds ({number} runs per round and side)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
