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

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

from .core import Instruction, Opcode, Program, check_inputs, exec_instruction


class AnalogError(Exception):
    pass


class CalibrationError(AnalogError):
    pass


@dataclass(frozen=True)
class CircuitParams:
    """Electrical and integration parameters of the IMPLY cell.

    Resistances in ohms, voltages in volts, lengths in meters, mobility
    in m^2/(V*s), times in seconds.  ``pulse_width`` and ``dt`` default to
    the calibrated write time and pulse_width/1000; ``read_threshold``
    defaults to the geometric mean of the rails.
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
        if thr is None:
            thr = math.sqrt(self.r_on * self.r_off)
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
        if self.pulse_width is not None and self.pulse_width <= 0:
            raise AnalogError("pulse width must be positive")
        if self.dt is not None:
            if self.dt <= 0:
                raise AnalogError("dt must be positive")
            if self.pulse_width is not None and self.dt > self.pulse_width:
                raise AnalogError("require dt <= pulse_width")

    @property
    def drift_gain(self) -> float:
        """mu_v * R_ON / D^2, the state-velocity per ampere."""
        return self.mu_v * self.r_on / self.d**2

    def resolved(self) -> "CircuitParams":
        """Fill in pulse_width (by calibration) and dt where unset."""
        p = self
        if p.pulse_width is None:
            p = replace(p, pulse_width=calibrate_write_time(p))
        if p.dt is None:
            p = replace(p, dt=p.pulse_width / 1000)
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


def _clamp(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _rk4(deriv: Callable[[list[float]], list[float]], state: list[float],
         duration: float, dt: float,
         observe: Callable[[float, list[float]], None] | None = None) -> list[float]:
    """Fixed-step RK4 with state clamping to [0, 1] after each step."""
    steps = max(1, round(duration / dt))
    h = duration / steps
    t = 0.0
    s = [_clamp(v) for v in state]
    for _ in range(steps):
        k1 = deriv(s)
        k2 = deriv([a + h / 2 * b for a, b in zip(s, k1)])
        k3 = deriv([a + h / 2 * b for a, b in zip(s, k2)])
        k4 = deriv([a + h * b for a, b in zip(s, k3)])
        s = [_clamp(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4))
             for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
        t += h
        if observe is not None:
            observe(t, s)
        if not all(math.isfinite(v) for v in s):
            raise AnalogError("non-finite device state during integration")
    return s


def integrate_pulse(dev: DeviceState, current: Callable[[float], float],
                    duration: float, params: CircuitParams) -> DeviceState:
    """Integrate dx/dt = (mu_v*R_ON/D^2) * i(x) for one device, where
    ``current`` gives the instantaneous current as a function of x."""
    if duration <= 0:
        raise AnalogError("duration must be positive")
    dt = params.dt if params.dt is not None else duration / 1000
    gain = params.drift_gain

    def deriv(s: list[float]) -> list[float]:
        return [gain * current(_clamp(s[0]))]

    (x,) = _rk4(deriv, [dev.x], duration, dt)
    return DeviceState(x)


def _single_device_current(params: CircuitParams, volts: float) -> Callable[[float], float]:
    """Device driven alone through R_G (the FALSE/LOAD biasing circuit)."""
    return lambda x: volts / (memristance(x, params) + params.r_g)


def _imply_deriv(params: CircuitParams) -> Callable[[list[float]], list[float]]:
    gain = params.drift_gain

    def deriv(s: list[float]) -> list[float]:
        rp = memristance(_clamp(s[0]), params)
        rq = memristance(_clamp(s[1]), params)
        sol = solve_cell(rp, rq, params)
        return [gain * sol.drop_p / rp, gain * sol.current_q]

    return deriv


def integrate_imply(p: DeviceState, q: DeviceState, duration: float,
                    params: CircuitParams,
                    observe: Callable[[float, list[float]], None] | None = None
                    ) -> tuple[DeviceState, DeviceState]:
    """Co-integrate both devices of the IMPLY cell for one pulse."""
    dt = params.dt if params.dt is not None else duration / 1000
    xp, xq = _rk4(_imply_deriv(params), [p.x, q.x], duration, dt, observe)
    return DeviceState(xp), DeviceState(xq)


def calibrate_write_time(params: CircuitParams, rel_tol: float = 1e-3,
                         max_duration: float = 1e9) -> float:
    """Smallest pulse duration for which a case-1 drive (both devices at
    R_OFF) brings the target within 1% of R_ON, bisected to ``rel_tol``."""
    target = 1.01 * params.r_on
    probe = replace(params, pulse_width=None, dt=None)

    def switched(duration: float) -> bool:
        local = replace(probe, dt=duration / 1000)
        _, q = integrate_imply(DeviceState(0.0), DeviceState(0.0), duration, local)
        return memristance(q, params) <= target

    hi = params.d**2 / (params.mu_v * abs(params.v_set))  # characteristic drift time scale
    lo = 0.0
    while not switched(hi):
        lo, hi = hi, hi * 2
        if hi > max_duration:
            raise CalibrationError("case-1 drive does not switch the target (write time diverges)")
    for _ in range(200):
        if (hi - lo) <= rel_tol * hi:
            break
        mid = (lo + hi) / 2
        if switched(mid):
            hi = mid
        else:
            lo = mid
    else:
        raise CalibrationError("write-time bisection did not converge")
    return hi


@dataclass
class AnalogTrace:
    """Sampled waveforms: one row per integration step with the common
    node voltage and every device's state and memristance."""

    registers: tuple[str, ...]
    times: list[float] = field(default_factory=list)
    node_v: list[float] = field(default_factory=list)
    x: dict[str, list[float]] = field(default_factory=dict)
    boundaries: list[tuple[int, int, str]] = field(default_factory=list)  # (row, step no, text)

    def to_csv(self, params: CircuitParams) -> str:
        header = "time_s,node_v," + ",".join(f"{r}_x,{r}_ohm" for r in self.registers)
        lines = [header]
        marks = {row: (step, text) for row, step, text in self.boundaries}
        for i, (t, v) in enumerate(zip(self.times, self.node_v)):
            if i in marks:
                step, text = marks[i]
                lines.append(f"# step {step}: {text}")
            cells = [f"{t:.9e}", f"{v:.9e}"]
            for r in self.registers:
                xv = self.x[r][i]
                cells.append(f"{xv:.9e}")
                cells.append(f"{memristance(xv, params):.9e}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


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


def execute_analog(prog: Program, params: CircuitParams,
                   inputs: dict[str, int] | None = None) -> AnalogResult:
    """Run a program on the device model.

    ``inputs`` assigns 0 or 1 to exactly the declared inputs, as for
    :func:`~implylogic.core.run_program`.  Input registers are initialized
    with V_set / V_clear pulses from that assignment; LOAD directives in
    the body do the same.  Every FALSE costs one V_clear pulse, every
    IMPLY one two-device cell pulse.
    """
    inputs = inputs or {}
    check_inputs(prog, inputs, AnalogError)
    params = params.resolved()
    tw, dt = params.pulse_width, params.dt

    xs = {r: DeviceState(0.0) for r in prog.registers}
    logical = {r: 0 for r in prog.registers}
    trace = AnalogTrace(registers=prog.registers, x={r: [] for r in prog.registers})
    drift_rows: list[tuple[int, str, dict[str, float]]] = []
    max_drift = 0.0
    step_no = 0

    def record(t_abs: float, node_v: float) -> None:
        trace.times.append(t_abs)
        trace.node_v.append(node_v)
        for r in prog.registers:
            trace.x[r].append(xs[r].x)

    t_base = 0.0

    def single_pulse(reg: str, volts: float, label: str, counted_step: int) -> None:
        nonlocal t_base
        trace.boundaries.append((len(trace.times), counted_step, label))
        cur = _single_device_current(params, volts)

        def observe(t: float, s: list[float]) -> None:
            i = cur(_clamp(s[0]))
            xs[reg] = DeviceState(s[0])
            record(t_base + t, i * params.r_g)

        gain = params.drift_gain
        _rk4(lambda s: [gain * cur(_clamp(s[0]))], [xs[reg].x], tw, dt, observe)
        t_base += tw

    def imply_pulse(src: str, dst: str, label: str, counted_step: int) -> None:
        nonlocal t_base
        trace.boundaries.append((len(trace.times), counted_step, label))

        def observe(t: float, s: list[float]) -> None:
            xs[src], xs[dst] = DeviceState(s[0]), DeviceState(s[1])
            sol = solve_cell(memristance(xs[src], params), memristance(xs[dst], params), params)
            record(t_base + t, sol.node_v)

        integrate_imply(xs[src], xs[dst], tw, params, observe)
        t_base += tw

    for name in prog.inputs:
        level = inputs[name]
        single_pulse(name, params.v_set if level else params.v_clear, f"input {name}={level:d}", 0)
        logical[name] = level

    for instr in prog.body:
        if instr.op is Opcode.LOAD:
            volts = params.v_set if instr.value else params.v_clear
            single_pulse(instr.target, volts, str(instr), step_no)
        elif instr.op is Opcode.FALSE:
            step_no += 1
            single_pulse(instr.target, params.v_clear, str(instr), step_no)
        else:
            step_no += 1
            imply_pulse(instr.source, instr.target, str(instr), step_no)
        logical.update(exec_instruction(logical, instr))
        drifts = {r: abs(xs[r].x - logical[r]) for r in prog.registers}
        max_drift = max(max_drift, max(drifts.values()))
        drift_rows.append((step_no, str(instr), drifts))

    readouts = {r: readout(xs[r], params) for r in prog.registers}
    return AnalogResult(
        readouts=readouts,
        trace=trace,
        drift=DriftReport(drift_rows, max_drift),
        final_states=dict(xs),
        params=params,
    )
