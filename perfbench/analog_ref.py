"""Checks of ``simulate`` waveforms, written apart from ``implylogic.analog``.

Every formula here is derived again from the device model the README
states: linear memristance M(x) = R_ON*x + R_OFF*(1-x), drift
dx/dt = g*i with g = mu_v*R_ON/D^2, a FALSE/LOAD/input pulse that drives
one device alone through R_G, and an IMPLY pulse that drives the source
with V_cond and the target with V_set into a shared node grounded by R_G.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

#: Default circuit parameters of the simulator (ohm, volt, metre, m^2/(V*s)).
DEFAULTS = dict(r_on=1e3, r_off=100e3, r_g=10e3, v_set=1.0, v_cond=0.5, v_clear=-1.0,
                d=10e-9, mu_v=1e-14)

#: Rows recorded per pulse: the default dt is one thousandth of the pulse width.
ROWS_PER_PULSE = 1000

# Tolerances, from the 10 significant digits of the CSV's "%.9e" cells.
OHM_ABS_TOL = 1e-4        # ohm: (R_OFF - R_ON) * 5e-10 from the rounded x, plus margin
OHM_REL_TOL = 1e-9        # the rounded ohm cell itself
NODE_V_TOL = 1e-7         # volt
DT_REL_TOL = 1e-4         # row spacing against pulse_width / 1000
CLOSED_FORM_TOL = 1e-6    # x of a single-device pulse against the exact solution


@dataclass(frozen=True)
class Pulse:
    label: str            # text after "# step N: "
    rows: np.ndarray      # (rows, 2 + 2*regs): time, node_v, then x and ohm per register


def memristance(x, p=DEFAULTS):
    return p["r_on"] * x + p["r_off"] * (1.0 - x)


def read_csv(text: str) -> tuple[list[str], list[Pulse]]:
    """Register names from the header and the rows of every pulse."""
    lines = text.split("\n")
    header = lines[0].split(",")
    if header[:2] != ["time_s", "node_v"] or len(header) % 2:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    regs = [h[:-2] for h in header[2::2]]
    if header[2:] != [c for r in regs for c in (f"{r}_x", f"{r}_ohm")]:
        raise ValueError(f"unexpected CSV columns {lines[0]!r}")
    labels, counts = [], []
    for line in lines[1:]:
        if line.startswith("# step "):
            labels.append(line.split(": ", 1)[1])
            counts.append(0)
        elif line:
            counts[-1] += 1
    data = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError("row width differs from the header")
    bounds = np.cumsum([0] + counts)
    return regs, [Pulse(lab, data[lo:hi]) for lab, lo, hi in zip(labels, bounds, bounds[1:])]


def single_pulse_x(x0: float, volts: float, elapsed: np.ndarray, p=DEFAULTS) -> np.ndarray:
    """Exact state of one device driven alone through R_G, ``elapsed``
    seconds into the pulse.

    i = V/(M(x)+R_G), so (M(x)+R_G) dx = g V dt.  With
    F(x) = (R_OFF+R_G) x - (R_OFF-R_ON) x^2 / 2, which rises on [0, 1],
    F(x) = F(x0) + g V t, clamped at the rails."""
    g = p["mu_v"] * p["r_on"] / p["d"] ** 2
    a, span = p["r_off"] + p["r_g"], p["r_off"] - p["r_on"]

    def f(x):
        return a * x - span * x * x / 2

    goal = f(x0) + g * volts * np.asarray(elapsed, dtype=float)
    inside = (a - np.sqrt(np.maximum(a * a - 2 * span * goal, 0.0))) / span
    return np.where(goal <= 0.0, 0.0, np.where(goal >= f(1.0), 1.0, inside))


def pulse_drive(label: str, p=DEFAULTS) -> tuple[str, str | None, float | None]:
    """``("imply", source, target)`` or ``("single", register, volts)``."""
    words = label.split()
    if words[0] == "IMPLY":
        return "imply", words[1], words[2]
    if words[0] == "FALSE":
        return "single", words[1], p["v_clear"]
    if words[0] == "LOAD":
        return "single", words[1], p["v_set"] if words[2] == "1" else p["v_clear"]
    if words[0] == "input":
        name, level = words[1].split("=")
        return "single", name, p["v_set"] if level == "1" else p["v_clear"]
    raise ValueError(f"unknown pulse label {label!r}")


def check_case(text: str, write_time: float, labels: list[str],
               p=DEFAULTS) -> tuple[list[str], dict[str, float]]:
    """All waveform checks of one simulated case whose pulses should carry
    ``labels`` in order.

    Returns the problems found and the final x of every register.
    """
    problems: list[str] = []
    regs, pulses = read_csv(text)
    if [pulse.label for pulse in pulses] != labels:
        problems.append("pulse sequence differs from the program's inputs and body")
    col = {r: 2 + 2 * i for i, r in enumerate(regs)}
    x_prev = {r: 0.0 for r in regs}  # every device starts fully OFF
    t_prev = 0.0
    for n, pulse in enumerate(pulses):
        rows = pulse.rows
        where = f"pulse {n} ({pulse.label})"
        if len(rows) != ROWS_PER_PULSE:
            problems.append(f"{where}: {len(rows)} rows, expected {ROWS_PER_PULSE}")
            continue
        times = np.concatenate([[t_prev], rows[:, 0]])
        h = write_time / ROWS_PER_PULSE
        if np.max(np.abs(np.diff(times) - h)) > DT_REL_TOL * h:
            problems.append(f"{where}: row spacing differs from pulse_width/{ROWS_PER_PULSE}")
        xs = {r: rows[:, col[r]] for r in regs}
        for r in regs:
            x, ohm = xs[r], rows[:, col[r] + 1]
            if x.min() < 0.0 or x.max() > 1.0:
                problems.append(f"{where}: {r}_x leaves [0, 1]")
            err = np.abs(ohm - memristance(x, p))
            if np.any(err > OHM_ABS_TOL + OHM_REL_TOL * np.abs(ohm)):
                problems.append(f"{where}: {r}_ohm differs from R_ON*x + R_OFF*(1-x)")
        kind, a, b = pulse_drive(pulse.label, p)
        driven = {a, b} if kind == "imply" else {a}
        for r in regs:
            if r not in driven and np.any(xs[r] != x_prev[r]):
                problems.append(f"{where}: undriven register {r} moved")
        if kind == "imply":
            rp, rq = memristance(xs[a], p), memristance(xs[b], p)
            node = p["r_g"] * (p["v_cond"] * rq + p["v_set"] * rp) / (rp * rq + p["r_g"] * (rp + rq))
            if np.any(np.diff(np.concatenate([[x_prev[b]], xs[b]])) < 0):
                problems.append(f"{where}: IMPLY target {b} decreased")
        else:
            node = b * p["r_g"] / (memristance(xs[a], p) + p["r_g"])
            want = single_pulse_x(x_prev[a], b, rows[:, 0] - t_prev, p)
            if np.max(np.abs(xs[a] - want)) > CLOSED_FORM_TOL:
                problems.append(f"{where}: {a}_x departs from the closed form")
        if np.any(np.abs(rows[:, 1] - node) > NODE_V_TOL):
            problems.append(f"{where}: node_v differs from the nodal formula")
        x_prev = {r: xs[r][-1] for r in regs}
        t_prev = rows[-1, 0]
    return problems, x_prev


def read_level(x: float, p=DEFAULTS) -> int:
    """Logic 1 iff memristance is below the geometric mean of the rails."""
    return 1 if memristance(x, p) < math.sqrt(p["r_on"] * p["r_off"]) else 0
