import contextlib
import random
import string
import sys

import pytest

from implylogic.analog import CircuitParams
from implylogic.core import Program, false_, imply, load


@pytest.fixture(scope="session")
def default_params():
    """Default parameters with the write time calibrated once per session."""
    return CircuitParams().resolved()


def random_program(rng: random.Random) -> Program:
    """Deterministic random valid program for round-trip testing."""
    n_regs = rng.randint(1, 8)
    names = []
    while len(names) < n_regs:
        name = rng.choice(string.ascii_uppercase) + "".join(
            rng.choice(string.ascii_letters + string.digits + "_")
            for _ in range(rng.randint(0, 3)))
        if name not in names:
            names.append(name)

    inputs = [r for r in names if rng.random() < 0.4]
    outputs = [r for r in names if rng.random() < 0.4]

    body = []
    for _ in range(rng.randint(0, 3)):
        body.append(load(rng.choice(names), rng.randint(0, 1)))
    for _ in range(rng.randint(0, 10)):
        if len(names) >= 2 and rng.random() < 0.7:
            src, dst = rng.sample(names, 2)
            body.append(imply(src, dst))
        else:
            body.append(false_(rng.choice(names)))
    return Program(tuple(names), tuple(inputs), tuple(outputs), tuple(body))


@contextlib.contextmanager
def tracing(code, see):
    """While the block runs, call ``see(frame, event, arg)`` on each line, return and
    exception event of a frame running ``code``.  The trace function installed before
    (``sys.gettrace()``, such as scripts/uncovered.py's) stays chained: it gets every
    other frame, and each of ``code``'s frames' events after ``see``, so that what it
    records is whole."""
    outer = sys.gettrace()

    def call(frame, event, arg):
        after = outer(frame, event, arg) if outer is not None else None
        if frame.f_code is not code:
            return after

        def both(frame, event, arg):
            nonlocal after
            see(frame, event, arg)
            after = after(frame, event, arg) if after is not None else None
            return both
        return both

    sys.settrace(call)
    try:
        yield
    finally:
        sys.settrace(outer)
