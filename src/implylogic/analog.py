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
pulses can flip a readout relative to the ideal logical machine; a
run's ``max_drift`` makes that visible.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from array import array
from collections import namedtuple
from functools import cache
from itertools import accumulate, islice, repeat
from typing import BinaryIO, Callable, NamedTuple

from .core import ImplyLogicError, Program, _execute, check_inputs, load, logic

#: RK4 steps per pulse where dt is unset: dt defaults to pulse_width/DEFAULT_STEPS_PER_PULSE
DEFAULT_STEPS_PER_PULSE = 1000
#: most RK4 steps one pulse may take (pulse_width/dt); 100x the default
MAX_STEPS_PER_PULSE = 100_000
#: relative width of the bracket at which the write-time bisection stops
CALIBRATION_REL_TOL = 1e-3
#: longest write time (s) the calibration tries before it gives up
MAX_WRITE_TIME = 1e9


class AnalogError(ImplyLogicError):
    pass


class CalibrationError(AnalogError):
    pass


class CircuitParams(namedtuple("CircuitParams", "r_on r_off r_g v_set v_cond v_clear d mu_v "
                                                "pulse_width dt read_threshold")):
    """Electrical and integration parameters of the IMPLY cell.

    Resistances in ohms, voltages in volts, lengths in meters, mobility
    in m^2/(V*s), times in seconds.  ``pulse_width`` and ``dt`` default to
    the calibrated write time and pulse_width/``DEFAULT_STEPS_PER_PULSE``;
    ``read_threshold`` defaults to the geometric mean of the rails.
    Building one, ``_replace`` included, raises ``AnalogError`` unless every
    value is finite and physically sensible.
    """

    __slots__ = ()

    def __new__(cls, r_on: float = 1e3, r_off: float = 100e3, r_g: float = 10e3,
                v_set: float = 1.0, v_cond: float = 0.5, v_clear: float = -1.0, d: float = 10e-9,
                mu_v: float = 1e-14, pulse_width: float | None = None, dt: float | None = None,
                read_threshold: float | None = None):
        values = r_on, r_off, r_g, v_set, v_cond, v_clear, d, mu_v, pulse_width, dt, read_threshold
        for name, value in zip(cls._fields, values):
            if value is not None and not math.isfinite(value):
                raise AnalogError(f"{name} must be finite, got {value}")
        thr = read_threshold
        if thr is None:  # sqrt(R_ON*R_OFF), as two roots where that product over- or underflows
            product = r_on * r_off
            if not sys.float_info.min <= product < math.inf and min(r_on, r_off) > 0:
                thr = math.sqrt(r_on) * math.sqrt(r_off)
            else:  # abs: a rail <= 0 fails the check below whatever the threshold
                thr = math.sqrt(abs(product))
        self = tuple.__new__(cls, (*values[:-1], thr))
        if not (0 < r_on < thr < r_off):
            raise AnalogError("require 0 < R_ON < read_threshold < R_OFF")
        if r_g <= 0:
            raise AnalogError("R_G must be positive")
        if not 0 < v_cond < v_set:
            raise AnalogError("require 0 < V_cond < V_set")
        if v_clear >= 0:
            raise AnalogError("V_clear must be negative so that FALSE resets the device")
        if d <= 0 or mu_v <= 0:
            raise AnalogError("device length and mobility must be positive")
        try:  # D**2 may overflow, or underflow to a zero divisor
            scales = self.drift_gain, self.drift_time
        except (OverflowError, ZeroDivisionError):
            scales = (math.inf,)
        if not all(0 < s < math.inf for s in scales):
            raise AnalogError("drift gain mu_v*R_ON/D^2 and drift time scale D^2/(mu_v*V_set) "
                              "must be positive and finite")
        if pulse_width is not None and pulse_width <= 0:
            raise AnalogError("pulse width must be positive")
        if dt is not None:
            if dt <= 0:
                raise AnalogError("dt must be positive")
            if pulse_width is not None and dt > pulse_width:
                raise AnalogError("require dt <= pulse_width")
            ratio = 0.0 if pulse_width is None else pulse_width / dt
            if ratio == math.inf or round(ratio) > MAX_STEPS_PER_PULSE:  # round(inf) raises
                raise AnalogError(
                    f"pulse_width/dt = {pulse_width:.6e}/{dt:.6e} gives {ratio:.6e} RK4 "
                    f"steps per pulse, more than MAX_STEPS_PER_PULSE = {MAX_STEPS_PER_PULSE}")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace checks too

    @property
    def drift_gain(self) -> float:
        """mu_v * R_ON / D^2, the state-velocity per ampere."""
        return self.mu_v * self.r_on / self.d**2

    @property
    def drift_time(self) -> float:
        """D^2 / (mu_v * V_set), the characteristic drift time scale."""
        return self.d**2 / (self.mu_v * self.v_set)

    @property
    def grid(self) -> tuple[int, float]:
        """RK4 steps per pulse, pulse_width/dt rounded, and the step size."""
        if self.pulse_width is None or self.dt is None:
            raise AnalogError("a pulse needs resolved parameters (pulse_width and dt)")
        steps = round(self.pulse_width / self.dt)
        return steps, self.pulse_width / steps

    def resolved(self, table: "PulseTable | None" = None) -> "CircuitParams":
        """Fill in pulse_width (by calibration, its probes in ``table``) and dt where unset."""
        p = self
        if p.pulse_width is None:
            p = p._replace(pulse_width=calibrate_write_time(p, table))
        if p.dt is None:
            p = p._replace(dt=p.pulse_width / DEFAULT_STEPS_PER_PULSE)
        return p


def memristance(x: float, params: CircuitParams) -> float:
    """M(x) = R_ON*x + R_OFF*(1-x) of a device at normalized dopant position x."""
    return params.r_on * x + params.r_off * (1.0 - x)


def readout(x: float, params: CircuitParams) -> int:
    """Logic 1 iff memristance is strictly below the read threshold."""
    return 1 if memristance(x, params) < params.read_threshold else 0


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


def _pulse(params: CircuitParams, xp: float, xq: float | None = None, volts: float = 0.0) -> tuple:
    """One pulse of fixed-step RK4 on ``params.grid``, every state clamped
    to [0, 1] at each stage and step.  With ``xq`` None, device ``xp`` is
    driven alone through R_G by ``volts`` (FALSE/LOAD); otherwise ``xp``
    and ``xq`` are the IMPLY cell's source and target, the cell re-solved
    at every stage.  Each step appends its device states to lists.  A step
    depends only on the state, so once one leaves its bits unchanged (not
    ``==``: -0.0 == 0.0) the loop stops, its last state standing for each step
    left.  Returns the final (xp, xq), then per driven device its state after
    each step, packed once into a ``steps``-long ``array('d')``.
    """
    steps, h = params.grid
    h2, h6 = h / 2, h / 6
    gain, r_on, r_off, r_g = params.drift_gain, params.r_on, params.r_off, params.r_g
    v_cond, v_set, inv_rg, pack = params.v_cond, params.v_set, 1.0 / r_g, struct.pack
    xs_p, xs_q = [], []
    add_p, add_q = xs_p.append, xs_q.append
    # the RK4 stages written out, summed left to right as the tests' reference RK4 sums them,
    # k1 + 2.0 * k2 + 2.0 * k3 + k4; each clamp written out as "0.0 if v < 0.0 else 1.0 if
    # v > 1.0 else v", which is min(max(v, 0.0), 1.0) for every float, NaN and -0.0 included
    p, q = 0.0 if xp < 0.0 else 1.0 if xp > 1.0 else xp, xq
    if xq is None:
        i = volts / (r_on * p + r_off * (1.0 - p) + r_g)
        for _ in range(steps):
            k1 = gain * i
            y = p + h2 * k1
            y = 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
            k2 = gain * (volts / (r_on * y + r_off * (1.0 - y) + r_g))
            y = p + h2 * k2
            y = 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
            k3 = gain * (volts / (r_on * y + r_off * (1.0 - y) + r_g))
            y = p + h * k3
            y = 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
            k4 = gain * (volts / (r_on * y + r_off * (1.0 - y) + r_g))
            p, p0 = p + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), p
            p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
            if p == p0 and pack("<d", p) == pack("<d", p0):
                break
            i = volts / (r_on * p + r_off * (1.0 - p) + r_g)
            add_p(p)
    else:
        q = 0.0 if xq < 0.0 else 1.0 if xq > 1.0 else xq
        rp, rq = r_on * p + r_off * (1.0 - p), r_on * q + r_off * (1.0 - q)
        node = (v_cond / rp + v_set / rq) / (1.0 / rp + 1.0 / rq + inv_rg)
        # a device at its ON rail whose drop is >= 0 at every stage is held there: each of its
        # stages gives 1.0 + h*k >= 1.0, clamped to 1.0, and memristance r1, so a held step
        # computes the other device's stages alone with the same operands in the same order;
        # where a stage's check fails, or a value is NaN, the general step redoes that step
        r1 = r_on * 1.0 + r_off * (1.0 - 1.0)
        inv_r1, vc_r1, vs_r1 = 1.0 / r1, v_cond / r1, v_set / r1
        for _ in range(steps):
            if p == 1.0 and node <= v_cond:  # source held
                kq1 = gain * ((v_set - node) / rq)
                b = q + h2 * kq1
                b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
                rb = r_on * b + r_off * (1.0 - b)
                n2 = (vc_r1 + v_set / rb) / (inv_r1 + 1.0 / rb + inv_rg)
                kq2 = gain * ((v_set - n2) / rb)
                b = q + h2 * kq2
                b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
                rb = r_on * b + r_off * (1.0 - b)
                n3 = (vc_r1 + v_set / rb) / (inv_r1 + 1.0 / rb + inv_rg)
                kq3 = gain * ((v_set - n3) / rb)
                b = q + h * kq3
                b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
                rb = r_on * b + r_off * (1.0 - b)
                n4 = (vc_r1 + v_set / rb) / (inv_r1 + 1.0 / rb + inv_rg)
                if n2 <= v_cond and n3 <= v_cond and n4 <= v_cond:
                    kq4 = gain * ((v_set - n4) / rb)
                    q, q0 = q + h6 * (kq1 + 2.0 * kq2 + 2.0 * kq3 + kq4), q
                    q = 0.0 if q < 0.0 else 1.0 if q > 1.0 else q
                    if q == q0 and pack("<d", q) == pack("<d", q0):
                        break
                    rq = r_on * q + r_off * (1.0 - q)
                    node = (vc_r1 + v_set / rq) / (inv_r1 + 1.0 / rq + inv_rg)
                    add_p(p)
                    add_q(q)
                    continue
            elif q == 1.0 and node <= v_set:  # target held
                kp1 = gain * (v_cond - node) / rp
                a = p + h2 * kp1
                a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
                ra = r_on * a + r_off * (1.0 - a)
                n2 = (v_cond / ra + vs_r1) / (1.0 / ra + inv_r1 + inv_rg)
                kp2 = gain * (v_cond - n2) / ra
                a = p + h2 * kp2
                a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
                ra = r_on * a + r_off * (1.0 - a)
                n3 = (v_cond / ra + vs_r1) / (1.0 / ra + inv_r1 + inv_rg)
                kp3 = gain * (v_cond - n3) / ra
                a = p + h * kp3
                a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
                ra = r_on * a + r_off * (1.0 - a)
                n4 = (v_cond / ra + vs_r1) / (1.0 / ra + inv_r1 + inv_rg)
                if n2 <= v_set and n3 <= v_set and n4 <= v_set:
                    kp4 = gain * (v_cond - n4) / ra
                    p, p0 = p + h6 * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4), p
                    p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
                    if p == p0 and pack("<d", p) == pack("<d", p0):
                        break
                    rp = r_on * p + r_off * (1.0 - p)
                    node = (v_cond / rp + vs_r1) / (1.0 / rp + inv_r1 + inv_rg)
                    add_p(p)
                    add_q(q)
                    continue
            kp1, kq1 = gain * (v_cond - node) / rp, gain * ((v_set - node) / rq)
            a, b = p + h2 * kp1, q + h2 * kq1
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            ra, rb = r_on * a + r_off * (1.0 - a), r_on * b + r_off * (1.0 - b)
            n = (v_cond / ra + v_set / rb) / (1.0 / ra + 1.0 / rb + inv_rg)
            kp2, kq2 = gain * (v_cond - n) / ra, gain * ((v_set - n) / rb)
            a, b = p + h2 * kp2, q + h2 * kq2
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            ra, rb = r_on * a + r_off * (1.0 - a), r_on * b + r_off * (1.0 - b)
            n = (v_cond / ra + v_set / rb) / (1.0 / ra + 1.0 / rb + inv_rg)
            kp3, kq3 = gain * (v_cond - n) / ra, gain * ((v_set - n) / rb)
            a, b = p + h * kp3, q + h * kq3
            a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
            b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
            ra, rb = r_on * a + r_off * (1.0 - a), r_on * b + r_off * (1.0 - b)
            n = (v_cond / ra + v_set / rb) / (1.0 / ra + 1.0 / rb + inv_rg)
            kp4, kq4 = gain * (v_cond - n) / ra, gain * ((v_set - n) / rb)
            p, p0 = p + h6 * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4), p
            p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
            q, q0 = q + h6 * (kq1 + 2.0 * kq2 + 2.0 * kq3 + kq4), q
            q = 0.0 if q < 0.0 else 1.0 if q > 1.0 else q
            if p == p0 and q == q0 and pack("<dd", p, q) == pack("<dd", p0, q0):
                break
            rp, rq = r_on * p + r_off * (1.0 - p), r_on * q + r_off * (1.0 - q)
            node = (v_cond / rp + v_set / rq) / (1.0 / rp + 1.0 / rq + inv_rg)
            add_p(p)
            add_q(q)
    if math.isnan(p) or q is not None and math.isnan(q):  # clamped, never inf; NaN stays NaN
        raise AnalogError("non-finite device state during integration")
    # each column: the steps taken, then the last state for each step not taken
    cols = [array("d", pack(f"{len(xs)}d", *xs) + pack("d", x) * (steps - len(xs)))
            for xs, x in zip((xs_p, xs_q), (p,) if q is None else (p, q))]
    return (p, q, *cols)


def integrate_imply(xp: float, xq: float, duration: float,
                    params: CircuitParams) -> tuple[float, float]:
    """Co-integrate both devices of the IMPLY cell for one pulse of ``duration``."""
    return _pulse(params._replace(pulse_width=duration).resolved(), xp, xq)[:2]


def _switched(params: CircuitParams, duration: float, table: PulseTable) -> bool:
    """Whether a case-1 drive of ``duration``, in DEFAULT_STEPS_PER_PULSE RK4 steps, switches
    the target."""
    try:  # a probe's step may underflow to 0.0
        probe = params._replace(pulse_width=duration, dt=duration / DEFAULT_STEPS_PER_PULSE)
    except AnalogError as exc:
        raise CalibrationError(f"write-time probe of {duration:.6e} s: {exc}") from None
    return memristance(table.pulse(probe, 0.0, 0.0, 0.0)[1], params) <= 1.01 * params.r_on


def _estimate_write_time(params: CircuitParams, table: PulseTable) -> float:
    """The case-1 write time from one trajectory in ``table``: with T0 = 1/(the target's initial
    rate), 60 RK4 steps of T0/30 from (0.0, 0.0), 40 of T0/300 from three before the first that
    reads as switched, then from the sub-step before that the closed form at a held source
    (M = M(x_q), dM/dt = -(R_OFF - R_ON)*gain*a/(b*M + 1)).  Raises where none switches."""
    r_on, r_off, r_g, gain = params.r_on, params.r_off, params.r_g, params.drift_gain
    target, t, p, q = 1.01 * r_on, 0.0, 0.0, 0.0
    h = 1.0 / (gain * solve_cell(r_off, r_off, params).current_q * 30)
    for dt, steps, back in ((h, 60, 3), (h / 10, 40, 1)):
        _, _, ps, qs = table.pulse(params._replace(pulse_width=steps * dt, dt=dt), p, q, 0.0)
        if (i := next((j for j, x in enumerate(qs) if memristance(x, params) <= target), -1)) < 0:
            raise CalibrationError(f"the estimate's {steps} steps do not switch the target")
        if (i := i - back) >= 0:
            t, p, q = t + (i + 1) * dt, ps[i], qs[i]
    rp, m = memristance(p, params), memristance(q, params)
    a, b = params.v_set / r_g + (params.v_set - params.v_cond) / rp, 1.0 / rp + 1.0 / r_g
    return t + (b * (m * m - target * target) / 2 + m - target) / ((r_off - r_on) * gain * a)


def _bisect_write_time(params: CircuitParams, switched: Callable) -> tuple[float, float]:
    """The final (lo, hi) of the write-time bisection, ``switched(duration)`` its probe."""
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
    return lo, hi


def calibrate_write_time(params: CircuitParams, table: PulseTable | None = None) -> float:
    """Smallest pulse duration for which a case-1 drive (both devices at R_OFF) brings the
    target within 1% of R_ON, bisected to ``CALIBRATION_REL_TOL`` with probes of
    ``DEFAULT_STEPS_PER_PULSE`` steps.  The bisection runs first on ``estimate <= duration``
    (:func:`_estimate_write_time`); if two probes confirm its bracket (``hi`` switches,
    ``lo`` is 0.0 or does not), its ``hi`` is returned.  Otherwise, or if the estimate
    raises, the bisection runs on the probes and gives the result or the error.  Probes are
    looked up in ``table`` (a fresh one if None), which the cases may then share."""
    if params.r_off <= 1.01 * params.r_on:  # _switched's test of x = 0, M(0) = R_OFF: always true
        raise CalibrationError(
            f"R_OFF = {params.r_off:.6e} ohm is within 1% of R_ON = {params.r_on:.6e} ohm, so an "
            "unwritten target already reads as switched; set the pulse width (--pulse-width)")
    table = table if table is not None else PulseTable()
    try:
        estimate = _estimate_write_time(params, table)
        lo, hi = _bisect_write_time(params, lambda duration: estimate <= duration)
        if _switched(params, hi, table) and not (lo and _switched(params, lo, table)):
            return hi  # outcomes monotone in the duration: the probes' bisection's hi too
    except (AnalogError, ArithmeticError):  # ZeroDivisionError where a rate underflows
        pass
    return _bisect_write_time(params, lambda duration: _switched(params, duration, table))[1]


class PulseTable:
    """Each distinct pulse integrated once.  A pulse depends only on the
    resolved parameters, its start state and, for FALSE/LOAD, its drive
    voltage: the parameters and the exact bits of the rest (so ``-0.0`` and
    ``0.0`` stay apart) key one :func:`_pulse` run.  A pulse that raises
    stores nothing.  ``simulate`` builds one table per command, calibration's probes
    included; its ``texts``, the CSV export's memo (:meth:`slabs`), live as long."""

    def __init__(self):
        self.entries: dict[tuple[CircuitParams, bytes], tuple] = {}
        self.clocks: dict[tuple[CircuitParams, int], array] = {}
        self.traces = 0  # traces served: each calls clock once
        self.texts: dict[tuple, tuple[np.ndarray, bool]] = {}

    def pulse(self, params: CircuitParams, xp: float, xq: float | None, volts: float) -> tuple:
        """The final (xp, xq), then the state column of each driven device (xp's,
        then xq's for IMPLY), one ``array('d')`` row per RK4 step that every trace
        of this pulse shares."""
        imply = xq is not None
        key = params, struct.pack("<?dd", imply, xp, xq if imply else volts)
        if (entry := self.entries.get(key)) is None:
            entry = self.entries[key] = _pulse(params, xp, xq, volts)
        return entry

    def clock(self, params: CircuitParams, pulses: int) -> array:
        """The times of ``pulses`` pulses in a row, shared by every trace that
        long: each pulse's start plus its steps' offsets, each summed in order, packed once
        per pulse so that no list of every time is built."""
        self.traces += 1
        if (params, pulses) not in self.clocks:
            steps, h = params.grid
            offsets, fmt = list(accumulate(repeat(h, steps))), f"{steps}d"
            times = array("d")
            for t0 in islice(accumulate(repeat(params.pulse_width), initial=0.0), pulses):
                times.frombytes(struct.pack(fmt, *[t0 + t for t in offsets]))
            self.clocks[params, pulses] = times
        return self.clocks[params, pulses]

    def slabs(self, columns: list[tuple[tuple, Callable[[], np.ndarray]]]) -> list[tuple]:
        """Per ``(key, make)`` column, its fields as ``V<width>`` items NUL-padded to the widest,
        and whether any is padded.  What ``texts`` lacks is formatted and kept, but a time
        block (the first), reread only by other traces, only once two traces are served."""
        import numpy as np  # on first use: simulate without --csv never loads it
        found = {key: self.texts.get(key) for key, _ in columns}
        if missing := {key: make for key, make in columns if found[key] is None}:
            with np.errstate(all="ignore"):  # as Python floats: inf and nan, no warning
                fields, lengths = _format_e9(np.stack([make() for make in missing.values()], 1))
            for j, key in enumerate(missing):
                width = lengths[:, j].max()
                found[key] = (np.ascontiguousarray(fields[:, j, _FIELD - width:].view(f"V{width}")),
                              bool((lengths[:, j] != width).any()))
                if self.traces > 1 or key != columns[0][0]:
                    self.texts[key] = found[key]
        return [found[key] for key, _ in columns]


class Pulse(NamedTuple):
    """One pulse: ``# step`` number and text, drive voltage (FALSE/LOAD; None for
    IMPLY) and driven columns, the IMPLY source's first.  A driven column's last row
    is the device's final state (:func:`_pulse` pads skipped steps with it)."""

    step: int
    text: str
    volts: float | None
    driven: dict[str, array]


class AnalogTrace(NamedTuple):
    """Time of each RK4 step; a :class:`Pulse` per pulse; the table whose arrays these are."""

    registers: tuple[str, ...]
    times: array
    boundaries: list[Pulse]
    table: PulseTable

    def to_csv(self, params: CircuitParams, fh: BinaryIO | None = None) -> str | None:
        """Write the trace as ASCII CSV bytes to the binary ``fh``: a header, then each pulse's
        ``# step`` comment line and its rows, every value as ``"%.9e"``.  Each block is
        written from one buffer per call, grown as needed, that the next block reuses, so
        ``fh.write`` must consume the bytes before it returns (files and ``io.BytesIO`` do).
        Memory holds the buffer and what :meth:`PulseTable.slabs` keeps.  With ``fh`` None
        the text is returned as a ``str`` instead."""
        import numpy as np
        out = io.BytesIO() if fh is None else fh
        out.write(f"time_s,node_v{''.join(f',{r}_x,{r}_ohm' for r in self.registers)}\n".encode())
        rows = [0, *accumulate(len(next(iter(p.driven.values()))) for p in self.boundaries)]
        buf, levels = np.empty(0, np.uint8), dict.fromkeys(self.registers, 0.0)
        for pulse, a, b in zip(self.boundaries, rows, rows[1:]):
            out.write(f"# step {pulse.step}: {pulse.text}\n".encode())
            buf, block = self._csv_block(params, pulse, levels, a, b, buf)
            out.write(block)
            levels.update((r, x[-1]) for r, x in pulse.driven.items())
        return out.getvalue().decode() if fh is None else None

    def _csv_block(self, params: CircuitParams, pulse: Pulse, levels: dict[str, float], a: int,
                   b: int, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray | bytes]:
        """The buffer (``buf``, or a new one where too small) and in its prefix the pulse's rows
        ``a:b`` as CSV lines, one byte row per sample: a view, or its bytes unpadded if padded.
        A held device's two fields, of its level in ``levels``, are formatted once and
        broadcast; every other column is the table's slab for its array's id (an ohm
        column's with ``params``, a time block's with ``a``, the node column's, which
        :func:`_node_volts` derives, with ``params`` and the first driven array's id)."""
        import numpy as np
        cells: list[bytes | None] = [None, None]  # per column: a held device's text, or None
        first = next(iter(pulse.driven.values()))
        columns = [((id(self.times), a), lambda: np.frombuffer(self.times)[a:b]),
                   ((id(first), params, "node_v"), lambda: _node_volts(params, pulse))]
        for r in self.registers:
            if (x := pulse.driven.get(r)) is None:
                cells += [b"%.9e" % levels[r], b"%.9e" % memristance(levels[r], params)]
            else:
                cells += [None, None]
                columns += [((id(x), None), lambda x=x: np.frombuffer(x)),
                            ((id(x), params), lambda x=x: memristance(np.frombuffer(x), params))]
        slabs = self.table.slabs(columns)
        varying_at = [i for i, cell in enumerate(cells) if cell is None]
        for i, (slab, _) in zip(varying_at, slabs):
            cells[i] = bytes(slab.itemsize)
        row = b",".join(cells) + b"\n"
        if buf.size < (size := (b - a) * len(row)):
            buf = np.empty(size, np.uint8)
        block = buf[:size].reshape(b - a, len(row))
        block[:] = np.frombuffer(row, np.uint8)
        offsets = [0, *accumulate(len(cell) + 1 for cell in cells)]
        for i, (slab, _) in zip(varying_at, slabs):
            block[:, offsets[i]:offsets[i] + slab.itemsize].view(slab.dtype)[:] = slab
        if any(padded for _, padded in slabs):  # fields of two widths in one column
            return buf, block.tobytes().translate(None, b"\0")
        return buf, buf[:size]


def _node_volts(params: CircuitParams, pulse: Pulse) -> np.ndarray:
    """The node voltage after each RK4 step of ``pulse``, from its state columns with
    the kernel's IEEE operations in the kernel's order, so bit for bit the node that
    :func:`_pulse` solves from those states.  Its held-rail forms are this general
    form at x = 1.0, where M(1.0) is R_ON exactly."""
    import numpy as np
    rp, *rq = (memristance(np.frombuffer(x), params) for x in pulse.driven.values())
    if pulse.volts is not None:  # FALSE/LOAD: the current through the device and R_G
        return pulse.volts / (rp + params.r_g) * params.r_g
    (rq,) = rq
    return (params.v_cond / rp + params.v_set / rq) / (1.0 / rp + 1.0 / rq + 1.0 / params.r_g)


#: bytes of the widest "%.9e" field, sign and three-digit exponent: "-1.000000000e-100"
_FIELD = 17


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.dtype]:
    """The ASCII digits "000".."999", each a ``<u4`` whose fourth byte the next field of a
    record overwrites; the ASCII exponents "e-13".."e+31" as ``<u4``, 9 - k for a mantissa
    scaled by 10^k, |k| <= 22; those 10^k, each exact in a double; the record of one field."""
    import numpy as np
    record = np.dtype({"names": ["sign", "lead", "dot", "g1", "g2", "g3", "exp"],
                       "formats": ["u1", "u1", "u1", "<u4", "<u4", "<u4", "<u4"],
                       "offsets": [1, 2, 3, 4, 7, 10, 13], "itemsize": _FIELD})
    return (np.frombuffer(b"".join(b"%03d\0" % i for i in range(1000)), "<u4"),
            np.frombuffer(b"".join(b"e%+03d" % e for e in range(-13, 32)), "<u4"),
            np.array([float(10**k) for k in range(23)]), record)


def _format_e9(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.9e" % x`` of every x in ``v`` as ASCII, right-aligned and
    NUL-padded in the last axis of ``_FIELD`` bytes, and the length of
    each.

    |x| is scaled by an exact 10^k (|k| <= 22) to a 10-digit mantissa:
    one correctly rounded multiply or divide, so within half an ulp of the
    exact product and, rounding being monotone and every m + 0.5 below 1e10
    a double, on its side of each tie or on the tie.  So ``rint`` rounds as
    the exact product would unless the fraction is exactly .5.  Those,
    non-finite values and those with a mantissa outside [1e9 - 0.5,
    1e10 - 0.5) or |k| > 22 (three-digit exponents among them) are
    formatted by ``%`` one by one, so every field is exact.

    The output is viewed as one ``_tables()`` record per value, and each part
    of every field is filled by one assignment: the sign, lead and dot bytes,
    then each digit group and the exponent from a 1-D ``take`` of a ``<u4``
    table, in field order, so that each overwrites the pad byte before it.
    """
    import numpy as np
    digits, exponents, pow10, record = _tables()
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
                 & (scaled - np.floor(scaled) != 0.5)
                 & ((a == 0) | ((scaled >= 1e9 - 0.5) & (scaled < 1e10 - 0.5))))
        mantissa = np.where(exact, np.rint(scaled), 0.0).astype(np.int64)
    lead, millions, thousands = mantissa // 10**9, mantissa // 10**6, mantissa // 1000
    sign = np.signbit(v)
    out = np.zeros(v.shape + (_FIELD,), np.uint8)
    records = out.view(record)[..., 0]
    records["sign"] = sign * ord("-")
    records["lead"] = lead + ord("0")
    records["dot"] = ord(".")
    records["g1"] = digits.take(millions - lead * 1000)
    records["g2"] = digits.take(thousands - millions * 1000)
    records["g3"] = digits.take(mantissa - thousands * 1000)
    records["exp"] = exponents.take(np.clip(e, -13, 31) + 13)
    lengths = 15 + sign
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [b"%.9e" % x for x in v.ravel()[slow].tolist()]
        lengths.reshape(-1)[slow] = [len(text) for text in texts]
        out.reshape(-1, _FIELD)[slow] = np.frombuffer(
            b"".join(text.rjust(_FIELD, b"\0") for text in texts), np.uint8).reshape(-1, _FIELD)
    return out, lengths


class AnalogResult(NamedTuple):
    readouts: dict[str, int]
    trace: AnalogTrace
    max_drift: float
    final_states: dict[str, float]


def execute_analog(prog: Program, params: CircuitParams, inputs: dict[str, int] | None = None,
                   table: PulseTable | None = None) -> AnalogResult:
    """Run a program on the device model.

    ``inputs`` assigns 0 or 1 to exactly the declared inputs, as for
    :func:`~implylogic.core.run_program`.  Input registers are initialized
    with V_set / V_clear pulses from that assignment; LOAD directives in
    the body do the same.  Every FALSE costs one V_clear pulse, every
    IMPLY one two-device cell pulse.  Pulses and times come from ``table``
    (a fresh one when None; its clock counts the trace, and it takes any
    calibration probes).  The pulses run on ``core._execute``; a logical run
    in lockstep gives the nominal levels, and ``max_drift`` is the largest distance
    of a device from its nominal level after a body instruction (0.0 if none).
    """
    inputs = inputs or {}
    check_inputs(prog, inputs)
    table = table if table is not None else PulseTable()
    params = params.resolved(table)
    entries: list[tuple] = []  # each pulse's drive voltage (None for IMPLY) and entry, in order

    def pulse(xp: float, xq: float | None = None, volts: float = 0.0) -> tuple:
        entries.append((volts if xq is None else None, table.pulse(params, xp, xq, volts)))
        return entries[-1][1][:2]

    def write(x: float, value: int | None) -> float:  # LOAD 1, else FALSE/LOAD 0
        return pulse(x, None, params.v_set if value else params.v_clear)[0]

    # each input is written like a LOAD, labelled as an input and left out of max_drift
    n_inputs = len(prog.inputs)
    instrs = (*(load(name, inputs[name]) for name in prog.inputs), *prog.body)
    xs, nominal = dict.fromkeys(prog.registers, 0.0), dict.fromkeys(prog.registers, 0)
    samples = AnalogTrace(prog.registers, table.clock(params, len(instrs)), [], table)
    max_drift, step_no = 0.0, 0
    for k, (instr, _) in enumerate(zip(_execute(instrs, xs, write, pulse),
                                       _execute(instrs, nominal, *logic(0, 1)))):
        step_no += instr.is_step
        label = f"input {instr.target}={instr.value:d}" if k < n_inputs else str(instr)
        volts, (_, _, *cols) = entries[k]
        regs = (instr.target,) if instr.source is None else (instr.source, instr.target)
        samples.boundaries.append(Pulse(step_no, label, volts, dict(zip(regs, cols))))
        if k >= n_inputs:
            moved = xs if k == n_inputs else regs  # a device no pulse drives keeps its drift
            max_drift = max(max_drift, *(abs(xs[r] - nominal[r]) for r in moved))

    return AnalogResult(
        readouts={r: readout(xs[r], params) for r in prog.registers},
        trace=samples,
        max_drift=max_drift,
        final_states=xs,
    )
