"""Linear-ion-drift execution of IMPLY microcode.

Each register maps to one memristor whose state is the normalized dopant
position x in [0, 1]; memristance is linear between the rails,
M(x) = R_ON*x + R_OFF*(1-x).  An IMPLY pulse drives the two-device cell
(V_cond on the source, V_set on the target, shared ground resistor R_G)
for one pulse width, co-integrating both device states with fixed-step
RK4 and re-solving the resistive cell at every stage.  FALSE and LOAD
pulses drive a single device alone through R_G.

The model is threshold-free: any nonzero voltage drop moves the state.
Conditional (source-high, target-low) pulses therefore leave partial
state drift on the target, which this module measures and reports but
does not correct.  Accumulated drift across consecutive conditional
pulses can flip a readout relative to the ideal logical machine; the
drift report makes that visible.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cache
from itertools import chain
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .core import Opcode, Program, check_inputs, load, run_program

#: RK4 steps per pulse where dt is unset: dt defaults to pulse_width/DEFAULT_STEPS_PER_PULSE
DEFAULT_STEPS_PER_PULSE = 1000
#: most RK4 steps one pulse may take (pulse_width/dt); 100x the default
MAX_STEPS_PER_PULSE = 100_000
#: relative width of the bracket at which the write-time bisection stops
CALIBRATION_REL_TOL = 1e-3
#: longest write time (s) the calibration tries before it gives up
MAX_WRITE_TIME = 1e9


class AnalogError(Exception):
    pass


class CalibrationError(AnalogError):
    pass


@dataclass(frozen=True)
class CircuitParams:
    """Electrical and integration parameters of the IMPLY cell.

    Resistances in ohms, voltages in volts, lengths in meters, mobility
    in m^2/(V*s), times in seconds.  ``pulse_width`` and ``dt`` default to
    the calibrated write time and pulse_width/``DEFAULT_STEPS_PER_PULSE``;
    ``read_threshold`` defaults to the geometric mean of the rails.
    """

    r_on: float = 1e3
    r_off: float = 100e3
    r_g: float = 10e3
    v_set: float = 1.0
    v_cond: float = 0.5
    v_clear: float = -1.0
    d: float = 10e-9
    mu_v: float = 1e-14
    pulse_width: float | None = None
    dt: float | None = None
    read_threshold: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise AnalogError(f"{f.name} must be finite, got {value}")
        thr = self.read_threshold
        if thr is None:  # sqrt(R_ON*R_OFF), as two roots where that product over- or underflows
            product = self.r_on * self.r_off
            if not sys.float_info.min <= product < math.inf and min(self.r_on, self.r_off) > 0:
                thr = math.sqrt(self.r_on) * math.sqrt(self.r_off)
            else:  # abs: a rail <= 0 fails the check below whatever the threshold
                thr = math.sqrt(abs(product))
            object.__setattr__(self, "read_threshold", thr)
        if not (0 < self.r_on < thr < self.r_off):
            raise AnalogError("require 0 < R_ON < read_threshold < R_OFF")
        if self.r_g <= 0:
            raise AnalogError("R_G must be positive")
        if not 0 < self.v_cond < self.v_set:
            raise AnalogError("require 0 < V_cond < V_set")
        if self.v_clear >= 0:
            raise AnalogError("V_clear must be negative so that FALSE resets the device")
        if self.d <= 0 or self.mu_v <= 0:
            raise AnalogError("device length and mobility must be positive")
        try:  # D**2 may overflow, or underflow to a zero divisor
            scales = self.drift_gain, self.drift_time
        except (OverflowError, ZeroDivisionError):
            scales = (math.inf,)
        if not all(0 < s < math.inf for s in scales):
            raise AnalogError("drift gain mu_v*R_ON/D^2 and drift time scale D^2/(mu_v*V_set) "
                              "must be positive and finite")
        if self.pulse_width is not None and self.pulse_width <= 0:
            raise AnalogError("pulse width must be positive")
        if self.dt is not None:
            if self.dt <= 0:
                raise AnalogError("dt must be positive")
            if self.pulse_width is not None and self.dt > self.pulse_width:
                raise AnalogError("require dt <= pulse_width")
            ratio = 0.0 if self.pulse_width is None else self.pulse_width / self.dt
            if (steps := round(ratio) if ratio < math.inf else ratio) > MAX_STEPS_PER_PULSE:
                raise AnalogError(  # the ratio overflows to inf, which round() refuses
                    f"pulse_width/dt = {self.pulse_width:.6e}/{self.dt:.6e} gives {steps} RK4 "
                    f"steps per pulse, more than MAX_STEPS_PER_PULSE = {MAX_STEPS_PER_PULSE}")

    @property
    def drift_gain(self) -> float:
        """mu_v * R_ON / D^2, the state-velocity per ampere."""
        return self.mu_v * self.r_on / self.d**2

    @property
    def drift_time(self) -> float:
        """D^2 / (mu_v * |V_set|), the characteristic drift time scale."""
        return self.d**2 / (self.mu_v * abs(self.v_set))

    @property
    def grid(self) -> tuple[int, float]:
        """RK4 steps per pulse, pulse_width/dt rounded, and the step size."""
        if self.pulse_width is None or self.dt is None:
            raise AnalogError("a pulse needs resolved parameters (pulse_width and dt)")
        steps = round(self.pulse_width / self.dt)
        return steps, self.pulse_width / steps

    def resolved(self) -> "CircuitParams":
        """Fill in pulse_width (by calibration) and dt where unset."""
        p = self
        if p.pulse_width is None:
            p = replace(p, pulse_width=calibrate_write_time(p))
        if p.dt is None:
            p = replace(p, dt=p.pulse_width / DEFAULT_STEPS_PER_PULSE)
        return p


@dataclass(frozen=True)
class DeviceState:
    """Normalized dopant position w/D, clamped to [0, 1]."""

    x: float

    def __post_init__(self):
        object.__setattr__(self, "x", min(max(self.x, 0.0), 1.0))


def memristance(dev: DeviceState | float, params: CircuitParams) -> float:
    """M(x) = R_ON*x + R_OFF*(1-x)."""
    x = dev.x if isinstance(dev, DeviceState) else dev
    return params.r_on * x + params.r_off * (1.0 - x)


def readout(dev: DeviceState, params: CircuitParams) -> int:
    """Logic 1 iff memristance is strictly below the read threshold."""
    return 1 if memristance(dev, params) < params.read_threshold else 0


class CellSolution(NamedTuple):
    node_v: float
    drop_p: float
    drop_q: float
    current_q: float


def solve_cell(rp: float, rq: float, params: CircuitParams) -> CellSolution:
    """Nodal analysis of the two-memristor cell: V_cond drives P, V_set
    drives Q, both returning to ground through R_G."""
    if rp <= 0 or rq <= 0:
        raise AnalogError("resistances must be positive")
    node = (params.v_cond / rp + params.v_set / rq) / (1 / rp + 1 / rq + 1 / params.r_g)
    return CellSolution(
        node_v=node,
        drop_p=params.v_cond - node,
        drop_q=params.v_set - node,
        current_q=(params.v_set - node) / rq,
    )


def closed_form_check(case_id: int, params: CircuitParams) -> float:
    """Evaluate the closed-form common-node voltage for one of the four
    truth-table cases at its initial (unswitched) resistances.

    All four forms are the exact node voltage
    V_G = R_G(V_cond*R_q + V_set*R_p) / (R_p*R_q + R_G(R_p + R_q))
    multiplied out at the case's rails (case 1: both R_OFF; case 2:
    P=R_OFF, Q=R_ON; case 3: P=R_ON, Q=R_OFF; case 4: both R_ON).  They
    are written out independently of ``solve_cell`` so that each checks
    the other.
    """
    r_on, r_off, r_g = params.r_on, params.r_off, params.r_g
    v_set, v_cond = params.v_set, params.v_cond
    if case_id == 1:
        return r_g / (r_off + 2 * r_g) * (v_set + v_cond)
    if case_id == 2:
        return r_g * (v_cond * r_on + v_set * r_off) / (r_off * r_on + r_g * (r_off + r_on))
    if case_id == 3:
        return r_g * (v_cond * r_off + v_set * r_on) / (r_on * r_off + r_g * (r_on + r_off))
    if case_id == 4:
        return r_g / (r_on + 2 * r_g) * (v_set + v_cond)
    raise AnalogError(f"invalid case id {case_id}")


def _pulse(params: CircuitParams, xp: float, xq: float | None = None, volts: float = 0.0,
           rows: tuple[Callable, Callable, Callable] | None = None) -> tuple[float, float | None]:
    """One pulse of fixed-step RK4 on ``params.grid``, every state clamped
    to [0, 1] at each stage and step.  With ``xq`` None, device ``xp`` is
    driven alone through R_G by ``volts`` (FALSE/LOAD); otherwise ``xp``
    and ``xq`` are the IMPLY cell's source and target, the cell re-solved
    at every stage.  ``rows`` (appenders for the node volts, the xp and the
    xq column) gets one row per step.  Returns the final (xp, xq).
    """
    steps, h = params.grid
    h6, stages = h / 6, ((h / 2, 2), (h / 2, 2), (h, 1))  # (stage offset, weight in the sum)
    gain, r_on, r_off, r_g = params.drift_gain, params.r_on, params.r_off, params.r_g
    v_cond, v_set, inv_rg = params.v_cond, params.v_set, 1 / r_g
    if rows is not None:
        add_v, add_p, add_q = rows
    isfinite = math.isfinite
    # each clamp is written out as "0.0 if v < 0.0 else 1.0 if v > 1.0 else v",
    # which is min(max(v, 0.0), 1.0) for every float, NaN and -0.0 included
    p = 0.0 if xp < 0.0 else 1.0 if xp > 1.0 else xp
    if xq is None:
        i = volts / (r_on * p + r_off * (1.0 - p) + r_g)
        for _ in range(steps):
            k = acc = gain * i
            for c, w in stages:
                y = p + c * k
                y = 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
                k = gain * (volts / (r_on * y + r_off * (1.0 - y) + r_g))
                acc = acc + w * k
            p = p + h6 * acc
            p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
            i = volts / (r_on * p + r_off * (1.0 - p) + r_g)
            if rows is not None:
                add_v(i * r_g)
                add_p(p)
            if not isfinite(p):
                raise AnalogError("non-finite device state during integration")
        return p, None

    q = 0.0 if xq < 0.0 else 1.0 if xq > 1.0 else xq
    rp, rq = r_on * p + r_off * (1.0 - p), r_on * q + r_off * (1.0 - q)
    node = (v_cond / rp + v_set / rq) / (1 / rp + 1 / rq + inv_rg)
    for _ in range(steps):
        kp = acc_p = gain * (v_cond - node) / rp
        kq = acc_q = gain * ((v_set - node) / rq)
        for c, w in stages:
            a = p + c * kp
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = q + c * kq
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            ra, rb = r_on * a + r_off * (1.0 - a), r_on * b + r_off * (1.0 - b)
            n = (v_cond / ra + v_set / rb) / (1 / ra + 1 / rb + inv_rg)
            kp = gain * (v_cond - n) / ra
            kq = gain * ((v_set - n) / rb)
            acc_p = acc_p + w * kp
            acc_q = acc_q + w * kq
        p = p + h6 * acc_p
        p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
        q = q + h6 * acc_q
        q = 0.0 if q < 0.0 else 1.0 if q > 1.0 else q
        rp, rq = r_on * p + r_off * (1.0 - p), r_on * q + r_off * (1.0 - q)
        node = (v_cond / rp + v_set / rq) / (1 / rp + 1 / rq + inv_rg)
        if rows is not None:
            add_v(node)
            add_p(p)
            add_q(q)
        if not (isfinite(p) and isfinite(q)):
            raise AnalogError("non-finite device state during integration")
    return p, q


def integrate_imply(p: DeviceState, q: DeviceState, duration: float,
                    params: CircuitParams) -> tuple[DeviceState, DeviceState]:
    """Co-integrate both devices of the IMPLY cell for one pulse of ``duration``."""
    dt = params.dt if params.dt is not None else duration / DEFAULT_STEPS_PER_PULSE
    xp, xq = _pulse(replace(params, pulse_width=duration, dt=dt), p.x, q.x)
    return DeviceState(xp), DeviceState(xq)


def calibrate_write_time(params: CircuitParams) -> float:
    """Smallest pulse duration for which a case-1 drive (both devices at
    R_OFF) brings the target within 1% of R_ON, bisected to
    ``CALIBRATION_REL_TOL``."""
    target = 1.01 * params.r_on

    def switched(duration: float) -> bool:
        try:  # a probe's step may underflow to 0.0
            probe = replace(params, pulse_width=duration, dt=duration / DEFAULT_STEPS_PER_PULSE)
        except AnalogError as exc:
            raise CalibrationError(f"write-time probe of {duration:.6e} s: {exc}") from None
        _, q = _pulse(probe, 0.0, 0.0)
        return memristance(q, params) <= target

    hi, lo = params.drift_time, 0.0
    while not switched(hi):
        lo, hi = hi, hi * 2
        if hi > MAX_WRITE_TIME:
            raise CalibrationError("case-1 drive does not switch the target (write time diverges)")
    for _ in range(200):
        if (hi - lo) <= CALIBRATION_REL_TOL * hi:
            break
        mid = (lo + hi) / 2
        if switched(mid):
            hi = mid
        else:
            lo = mid
    else:
        raise CalibrationError("write-time bisection did not converge")
    return hi


class PulseTable:
    """Each distinct pulse integrated once.  A pulse depends only on the
    resolved parameters, its start state and, for FALSE/LOAD, its drive
    voltage: the parameters and the exact bits of the rest (so ``-0.0`` and
    ``0.0`` stay apart) key one :func:`_pulse` run.  A pulse that raises
    stores nothing.  The table lives as long as its owner keeps it:
    ``simulate`` builds one per command."""

    def __init__(self):
        self.entries: dict[tuple[CircuitParams, bytes], tuple] = {}

    def pulse(self, params: CircuitParams, xp: float, xq: float | None, volts: float) -> tuple:
        """The final (xp, xq), then per RK4 step the node voltage and the xp
        and xq columns, each an ``array('d')`` that every trace of this
        pulse shares."""
        imply = xq is not None
        key = params, struct.pack("<?dd", imply, xp, xq if imply else volts)
        if (entry := self.entries.get(key)) is None:
            cols = [], [], []  # list appends in the kernel, packed once it is done
            final = _pulse(params, xp, xq, volts, tuple(c.append for c in cols))
            entry = self.entries[key] = (*final, *(array("d", c) for c in cols))
        return entry


class Pulse(NamedTuple):
    """One pulse: first row, ``# step`` number and text, node and driven columns, held levels."""

    row: int
    step: int
    text: str
    node_v: array
    driven: dict[str, array]
    held: dict[str, float]


@dataclass
class AnalogTrace:
    """Time of each RK4 step; a :class:`Pulse` per pulse."""

    registers: tuple[str, ...]
    times: array = field(default_factory=lambda: array("d"))
    boundaries: list[Pulse] = field(default_factory=list)

    def to_csv(self, params: CircuitParams, fh: TextIO | None = None) -> str | None:
        """Write the trace as CSV to ``fh``: a header, then each pulse's
        ``# step`` comment line and its rows, every value as ``"%.9e"``.
        Each block is written as soon as it is formatted, so memory holds
        one pulse's block.  With ``fh`` None the text is returned instead."""
        out = io.StringIO() if fh is None else fh
        out.write("time_s,node_v," + ",".join(f"{r}_x,{r}_ohm" for r in self.registers) + "\n")
        rows = [pulse.row for pulse in self.boundaries] + [len(self.times)]
        for pulse, a, b in zip(self.boundaries, rows, rows[1:]):
            out.write(f"# step {pulse.step}: {pulse.text}\n")
            out.write(self._csv_block(params, pulse, a, b))
        return out.getvalue() if fh is None else None

    def _csv_block(self, params: CircuitParams, pulse: Pulse, a: int, b: int) -> str:
        """The pulse's rows ``a:b`` as CSV lines, built as one byte row per
        sample.  A held device's two fields are formatted once and
        broadcast; every other column gets a slot as wide as its widest
        field, and the NUL pad of its shorter fields is dropped at the end."""
        texts: list[bytes | None] = [None, None]  # per column: a held device's text, or None
        varying = [np.frombuffer(self.times)[a:b], np.frombuffer(pulse.node_v)]
        for r in self.registers:
            if (x0 := pulse.held.get(r)) is not None:
                texts += [b"%.9e" % x0, b"%.9e" % memristance(x0, params)]
            else:
                x = np.frombuffer(pulse.driven[r])
                texts += [None, None]
                with np.errstate(all="ignore"):  # as Python floats: inf and nan, no warning
                    varying += [x, memristance(x, params)]
        fields, lengths = _format_e9(np.stack(varying, axis=1))
        widths = lengths.max(axis=0)
        varying_at = [i for i, text in enumerate(texts) if text is None]
        for i, width in zip(varying_at, widths):
            texts[i] = bytes(int(width))
        row = b",".join(texts) + b"\n"
        buf = np.empty((b - a, len(row)), np.uint8)
        buf[:] = np.frombuffer(row, np.uint8)
        offsets = np.cumsum([0] + [len(text) + 1 for text in texts])
        for j, (i, width) in enumerate(zip(varying_at, widths)):
            buf[:, offsets[i]:offsets[i] + width] = fields[:, j, _FIELD - width:]
        text = buf.tobytes()
        if (lengths != widths).any():  # fields of two widths in one column: drop the pad
            text = text.translate(None, b"\0")
        return text.decode("ascii")


#: bytes of the widest "%.9e" field, sign and three-digit exponent: "-1.000000000e-100"
_FIELD = 17


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ASCII digits "000".."999"; the ASCII exponents "e-13".."e+31",
    9 - k for a mantissa scaled by 10^k, |k| <= 22; and those 10^k, each
    exact in a double.  Built on first use, so importing costs nothing."""
    return (np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), np.uint8).reshape(-1, 3),
            np.frombuffer(b"".join(b"e%+03d" % e for e in range(-13, 32)), np.uint8).reshape(-1, 4),
            np.array([float(10**k) for k in range(23)]))


def _format_e9(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.9e" % x`` of every x in ``v`` as ASCII, right-aligned and
    NUL-padded in the last axis of ``_FIELD`` bytes, and the length of
    each.

    |x| is scaled by an exact 10^k (|k| <= 22) to a 10-digit mantissa:
    one correctly rounded multiply or divide, so off by at most 2^-53
    relative, under 1.2e-6 below 1e10.  ``rint`` then rounds as the exact
    product would unless the fraction is within 1e-4 of .5.  Values near
    such a tie, non-finite values and those with a mantissa outside
    [1e9 - 0.5, 1e10 - 0.5) or |k| > 22 (three-digit exponents among them)
    are formatted by ``%`` one by one, so every field is exact.
    """
    digits, exponents, pow10 = _tables()
    a = np.abs(v)
    finite = np.isfinite(a)
    with np.errstate(all="ignore"):  # log10 of 0, and nan/inf in the scaled mantissa
        e = np.floor(np.log10(np.where(finite & (a > 0), a, 1.0))).astype(np.int64)
        k = 9 - e
        scaled = a * pow10[np.clip(k, 0, 22)]
        down = k < 0
        if down.any():
            scaled[down] = a[down] / pow10[np.minimum(-k[down], 22)]
        exact = (finite & (k >= -22) & (k <= 22)
                 & (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-4)
                 & ((a == 0) | ((scaled >= 1e9 - 0.5) & (scaled < 1e10 - 0.5))))
        mantissa = np.where(exact, np.rint(scaled), 0.0).astype(np.int64)
    lead, millions, thousands = mantissa // 10**9, mantissa // 10**6, mantissa // 1000
    sign = np.signbit(v)
    out = np.zeros(v.shape + (_FIELD,), np.uint8)
    out[..., 1] = sign * ord("-")
    out[..., 2] = lead + ord("0")
    out[..., 3] = ord(".")
    out[..., 4:7] = digits.take(millions - lead * 1000, axis=0)
    out[..., 7:10] = digits.take(thousands - millions * 1000, axis=0)
    out[..., 10:13] = digits.take(mantissa - thousands * 1000, axis=0)
    out[..., 13:] = exponents.take(np.clip(e, -13, 31) + 13, axis=0)
    lengths = 15 + sign
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [b"%.9e" % x for x in v.ravel()[slow].tolist()]
        lengths.reshape(-1)[slow] = [len(text) for text in texts]
        out.reshape(-1, _FIELD)[slow] = np.frombuffer(
            b"".join(text.rjust(_FIELD, b"\0") for text in texts), np.uint8).reshape(-1, _FIELD)
    return out, lengths


@dataclass
class DriftReport:
    """Per-instruction distance of every device from its nominal rail,
    where the nominal level is tracked by the ideal logical machine."""

    per_instruction: list[tuple[int, str, dict[str, float]]]
    max_drift: float


@dataclass
class AnalogResult:
    readouts: dict[str, int]
    trace: AnalogTrace
    drift: DriftReport
    final_states: dict[str, DeviceState]
    params: CircuitParams  # resolved parameters actually used


def execute_analog(prog: Program, params: CircuitParams, inputs: dict[str, int] | None = None,
                   table: PulseTable | None = None) -> AnalogResult:
    """Run a program on the device model.

    ``inputs`` assigns 0 or 1 to exactly the declared inputs, as for
    :func:`~implylogic.core.run_program`.  Input registers are initialized
    with V_set / V_clear pulses from that assignment; LOAD directives in
    the body do the same.  Every FALSE costs one V_clear pulse, every
    IMPLY one two-device cell pulse.  Pulses come from ``table``, a fresh
    one when None.
    """
    inputs = inputs or {}
    check_inputs(prog, inputs, AnalogError)
    nominal = run_program(prog, inputs).trace  # logical levels
    params = params.resolved()
    table = table if table is not None else PulseTable()
    steps, h = params.grid
    offsets = np.full(steps, h).cumsum()  # a pulse's times from its start, as t += h would sum them

    xs = {r: 0.0 for r in prog.registers}
    samples = AnalogTrace(registers=prog.registers)
    drift_rows: list[tuple[int, str, dict[str, float]]] = []
    max_drift, step_no, t_base = 0.0, 0, 0.0

    # each input is written like a LOAD, labelled as an input and left out of the drift report
    n_inputs = len(prog.inputs)
    pulses = chain((load(name, inputs[name]) for name in prog.inputs), prog.body)
    for k, instr in enumerate(pulses):
        imply = instr.op is Opcode.IMPLY
        src, dst = (instr.source, instr.target) if imply else (instr.target, None)
        volts = params.v_set if instr.value else params.v_clear  # LOAD 1, else FALSE/LOAD 0
        step_no += instr.is_step
        label = f"input {src}={instr.value:d}" if k < n_inputs else str(instr)
        held = {r: x for r, x in xs.items() if r != src and r != dst}
        xs[src], xq, v, p, q = table.pulse(params, xs[src], xs[dst] if imply else None, volts)
        driven = {src: p}
        if imply:
            xs[dst], driven[dst] = xq, q
        samples.boundaries.append(Pulse(len(samples.times), step_no, label, v, driven, held))
        samples.times.frombytes((t_base + offsets).tobytes())
        t_base += params.pulse_width
        if k >= n_inputs:
            logical = nominal[k - n_inputs][2]
            drifts = {r: abs(xs[r] - logical[r]) for r in prog.registers}
            max_drift = max(max_drift, max(drifts.values()))
            drift_rows.append((step_no, label, drifts))

    return AnalogResult(
        readouts={r: readout(DeviceState(xs[r]), params) for r in prog.registers},
        trace=samples,
        drift=DriftReport(drift_rows, max_drift),
        final_states={r: DeviceState(x) for r, x in xs.items()},
        params=params,
    )
