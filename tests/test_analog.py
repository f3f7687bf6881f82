import itertools
import math
import random
from array import array
from typing import Callable

import pytest
from hypothesis import given, strategies as st

from implylogic.analog import (MAX_STEPS_PER_PULSE, AnalogError, AnalogTrace, CalibrationError,
                               CircuitParams, DeviceState, Pulse, PulseTable, _pulse,
                               calibrate_write_time, closed_form_check, execute_analog,
                               integrate_imply, memristance, readout, solve_cell)
from implylogic import analog, cli
from implylogic.cli import gate_program
from implylogic.core import ExecutionError, Opcode, run_program
from implylogic.ir import parse_program
from implylogic.synthesis import GateKind, gen_adder_serial
from dataclasses import replace

from conftest import random_program

DEFAULTS = CircuitParams()

# initial (unswitched) resistances for the four truth-table cases (p, q)
CASE_STATES = {1: (0.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 0.0), 4: (1.0, 1.0)}

NAND = parse_program(".regs P Q S\n.in P Q\n.out S\nFALSE S\nIMPLY P S\nIMPLY Q S\n")
XOR9 = parse_program(
    ".regs A B M0 M1\n.in A B\n.out M0\n"
    "FALSE M0\nIMPLY A M0\nFALSE M1\nIMPLY B M1\nIMPLY A B\n"
    "IMPLY M0 M1\nFALSE M0\nIMPLY M1 M0\nIMPLY B M0\n")


class TestParams:
    def test_defaults(self):
        assert DEFAULTS.r_on == 1e3
        assert DEFAULTS.r_off == 100e3
        assert DEFAULTS.r_g == 10e3
        assert DEFAULTS.read_threshold == pytest.approx(math.sqrt(1e3 * 100e3))

    def test_invariant_violations(self):
        with pytest.raises(AnalogError):
            CircuitParams(r_on=200e3)  # R_ON above R_OFF
        with pytest.raises(AnalogError):
            CircuitParams(v_cond=1.5)  # V_cond >= V_set
        with pytest.raises(AnalogError):
            CircuitParams(r_g=0)
        with pytest.raises(AnalogError):
            CircuitParams(pulse_width=1.0, dt=2.0)

    @pytest.mark.parametrize("field, value", [("d", math.nan), ("v_set", math.inf),
                                              ("r_off", math.inf), ("dt", math.nan),
                                              ("read_threshold", math.nan),
                                              ("v_cond", -math.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(AnalogError, match=f"{field} must be finite"):
            CircuitParams(**{field: value})

    @pytest.mark.parametrize("v_cond, v_set", [(0.0, 1.0), (-0.3, 1.0), (-0.5, -1.0),
                                               (0.5, -1.0)])
    def test_non_positive_drive_rejected(self, v_cond, v_set):
        # V_cond <= 0 writes a case-3 target (P=1, Q=0) fully ON in one pulse
        with pytest.raises(AnalogError, match="0 < V_cond < V_set"):
            CircuitParams(v_cond=v_cond, v_set=v_set)

    @pytest.mark.parametrize("v_clear", [0.0, 0.5])
    def test_non_negative_clear_rejected(self, v_clear):
        with pytest.raises(AnalogError, match="V_clear"):
            CircuitParams(v_clear=v_clear)

    def test_steps_per_pulse_capped(self):
        CircuitParams(pulse_width=1.0, dt=1.0 / MAX_STEPS_PER_PULSE)
        with pytest.raises(AnalogError, match="pulse_width/dt .* MAX_STEPS_PER_PULSE = 100000"):
            CircuitParams(pulse_width=1.0, dt=1.0 / (MAX_STEPS_PER_PULSE + 1))

    def test_overflowing_steps_per_pulse_capped(self):
        # both finite, but their ratio overflows to inf, which cannot be rounded
        with pytest.raises(AnalogError, match="gives inf RK4 steps per pulse, more than "
                                              "MAX_STEPS_PER_PULSE = 100000"):
            CircuitParams(pulse_width=1e300, dt=1e-300)

    def test_grid_rounds_the_step_count(self):
        assert CircuitParams(pulse_width=1.0, dt=0.3).grid == (3, 1.0 / 3)
        assert CircuitParams(pulse_width=1.0, dt=0.35).grid == (3, 1.0 / 3)  # 2.86 rounds up
        assert CircuitParams(pulse_width=1e-3, dt=3e-7).grid == (3333, 1e-3 / 3333)
        assert CircuitParams(pulse_width=2.0, dt=2.0).grid == (1, 2.0)

    def test_default_threshold_is_the_rounded_root_of_the_product(self):
        assert DEFAULTS.read_threshold == math.sqrt(1e3 * 100e3) == 10000.0

    @pytest.mark.parametrize("r_on, r_off", [(1e-300, 1e-299), (1e3, 1e308), (1e154, 1e155)],
                             ids=["product-underflows", "product-overflows", "both-large"])
    def test_default_threshold_takes_two_roots_beyond_the_float_range(self, r_on, r_off):
        params = CircuitParams(r_on=r_on, r_off=r_off)
        assert params.read_threshold == math.sqrt(r_on) * math.sqrt(r_off)
        assert r_on < params.read_threshold < r_off

    @pytest.mark.parametrize("r_on, r_off", [(-1.0, 1e5), (0.0, 1e5), (1e3, -1e5)])
    def test_non_positive_rail_rejected(self, r_on, r_off):
        with pytest.raises(AnalogError, match="0 < R_ON < read_threshold < R_OFF"):
            CircuitParams(r_on=r_on, r_off=r_off)

    def test_calibrated_width_checked_before_integration(self):
        # dt alone passes; resolved() fills in the calibrated width and re-checks
        params = CircuitParams(dt=1e-9)
        with pytest.raises(AnalogError, match="MAX_STEPS_PER_PULSE"):
            params.resolved()


class TestMemristance:
    def test_rails_and_midpoint(self):
        assert memristance(DeviceState(1.0), DEFAULTS) == pytest.approx(1e3)
        assert memristance(DeviceState(0.0), DEFAULTS) == pytest.approx(100e3)
        assert memristance(DeviceState(0.5), DEFAULTS) == pytest.approx(50.5e3)

    def test_state_clamped(self):
        assert DeviceState(1.7).x == 1.0
        assert DeviceState(-0.2).x == 0.0


class TestReadout:
    def test_rails(self):
        assert readout(DeviceState(1.0), DEFAULTS) == 1
        assert readout(DeviceState(0.0), DEFAULTS) == 0

    def test_mid_resistance_reads_zero(self):
        # M = 50 kohm, well above the 10 kohm threshold
        x = (DEFAULTS.r_off - 50e3) / (DEFAULTS.r_off - DEFAULTS.r_on)
        assert readout(DeviceState(x), DEFAULTS) == 0

    def test_tie_reads_zero(self):
        x = (DEFAULTS.r_off - DEFAULTS.read_threshold) / (DEFAULTS.r_off - DEFAULTS.r_on)
        assert memristance(DeviceState(x), DEFAULTS) == pytest.approx(DEFAULTS.read_threshold)
        assert readout(DeviceState(x), DEFAULTS) == 0


class TestSolveCell:
    def test_kirchhoff_residual(self):
        for rp, rq in itertools.product((1e3, 7.5e3, 42e3, 100e3), repeat=2):
            sol = solve_cell(rp, rq, DEFAULTS)
            residual = sol.drop_p / rp + sol.drop_q / rq - sol.node_v / DEFAULTS.r_g
            scale = abs(sol.node_v / DEFAULTS.r_g)
            assert abs(residual) <= 1e-12 * scale

    def test_case1_node_voltage(self):
        # independent recompute: R_G*(V_set+V_cond)/(R_OFF+2R_G) = 0.125 V
        sol = solve_cell(100e3, 100e3, DEFAULTS)
        assert sol.node_v == pytest.approx(10e3 * 1.5 / 120e3, rel=1e-12)
        assert sol.node_v == pytest.approx(0.125, rel=1e-12)

    def test_case2_drop_nearly_zero(self):
        sol = solve_cell(100e3, 1e3, DEFAULTS)
        assert abs(sol.drop_q) < 0.1

    def test_case3_node_near_vcond(self):
        sol = solve_cell(1e3, 100e3, DEFAULTS)
        assert sol.node_v == pytest.approx(DEFAULTS.v_cond, rel=0.1)

    def test_positive_resistance_guard(self):
        with pytest.raises(AnalogError):
            solve_cell(0, 1e3, DEFAULTS)


class TestClosedForms:
    def test_case1_value(self):
        assert closed_form_check(1, DEFAULTS) == pytest.approx(0.125, rel=1e-12)

    def test_case4_value(self):
        assert closed_form_check(4, DEFAULTS) == pytest.approx(10e3 * 1.5 / 21e3, rel=1e-12)

    def test_case3_value(self):
        assert closed_form_check(3, DEFAULTS) == pytest.approx(0.5, rel=0.1)

    def test_invalid_case(self):
        with pytest.raises(AnalogError):
            closed_form_check(5, DEFAULTS)

    @pytest.mark.parametrize("case", [1, 4])
    def test_equal_rail_cases_match_node_voltage_exactly(self, case):
        rp, rq = (memristance(DeviceState(x), DEFAULTS) for x in CASE_STATES[case])
        sol = solve_cell(rp, rq, DEFAULTS)
        assert abs(sol.node_v - closed_form_check(case, DEFAULTS)) <= 1e-9 * abs(sol.node_v)

    @pytest.mark.parametrize("case", [2, 3])
    def test_mixed_rail_cases_match_cell_exactly(self, case):
        # the mixed-resistance forms are the exact node voltage at their
        # rails; several parameter sets keep a form tuned to the defaults out
        param_sets = [
            DEFAULTS,
            CircuitParams(r_on=2e3, r_off=500e3, r_g=30e3, v_cond=0.3, v_set=1.2),
            CircuitParams(r_on=500, r_off=20e3, r_g=2e3, v_cond=0.2, v_set=2.0),
        ]
        for params in param_sets:
            rp, rq = (memristance(DeviceState(x), params) for x in CASE_STATES[case])
            sol = solve_cell(rp, rq, params)
            cf = closed_form_check(case, params)
            assert cf == pytest.approx(sol.node_v, rel=1e-9)
            assert params.v_set - cf == pytest.approx(sol.drop_q, rel=1e-9)
            assert params.v_cond - cf == pytest.approx(sol.drop_p, rel=1e-9)


class TestIntegration:
    def test_zero_current_no_drift(self):
        x, _ = _pulse(replace(DEFAULTS, pulse_width=1e-3, dt=1e-6), 0.37, volts=0.0)
        assert x == pytest.approx(0.37, abs=1e-15)

    def test_duration_guard(self):
        # integrate_imply states its pulse as CircuitParams, which check the duration
        for duration in (0.0, -1e-3):
            with pytest.raises(AnalogError, match="pulse width must be positive"):
                integrate_imply(DeviceState(0.0), DeviceState(0.0), duration, DEFAULTS)
        params = CircuitParams(pulse_width=1e-3, dt=1e-6)
        with pytest.raises(AnalogError, match="require dt <= pulse_width"):
            integrate_imply(DeviceState(0.0), DeviceState(0.0), 1e-7, params)

    def test_steps_per_pulse_capped_before_integration(self):
        # the one cap check, in CircuitParams, covers integrate_imply's duration too
        params = CircuitParams(pulse_width=1e-3, dt=1e-6)
        with pytest.raises(AnalogError, match=r"pulse_width/dt = 2\.000000e-01/1\.000000e-06 gives "
                                              r"200000 RK4 steps .* MAX_STEPS_PER_PULSE = 100000"):
            integrate_imply(DeviceState(0.0), DeviceState(0.0), 0.2, params)

    def test_unresolved_parameters_refused_before_integration(self):
        rows = ([], [], [])
        for params in (DEFAULTS, CircuitParams(pulse_width=1e-3), CircuitParams(dt=1e-6)):
            for xq in (None, 0.0):
                with pytest.raises(AnalogError, match=r"a pulse needs resolved parameters "
                                                      r"\(pulse_width and dt\)"):
                    _pulse(params, 0.0, xq, volts=1.0, rows=tuple(col.append for col in rows))
        assert rows == ([], [], [])

    def test_nan_state_reaches_finite_check(self, default_params):
        # the clamp passes NaN through, as min(max(v, 0.0), 1.0) does
        tw = default_params.pulse_width
        with pytest.raises(AnalogError, match="non-finite"):
            _pulse(default_params, math.nan, volts=1.0)
        for xp, xq in ((math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(AnalogError, match="non-finite"):
                integrate_imply(DeviceState(xp), DeviceState(xq), tw, default_params)

    def test_halving_dt_converges(self, default_params):
        tw = default_params.pulse_width
        coarse = replace(default_params, dt=tw / 1000)
        fine = replace(default_params, dt=tw / 2000)
        for xp0, xq0 in CASE_STATES.values():
            _, q1 = integrate_imply(DeviceState(xp0), DeviceState(xq0), tw, coarse)
            _, q2 = integrate_imply(DeviceState(xp0), DeviceState(xq0), tw, fine)
            m1, m2 = memristance(q1, default_params), memristance(q2, default_params)
            assert abs(m1 - m2) / m1 < 1e-4

    def test_drift_direction_matches_drop_sign(self, default_params):
        # one short RK4 step of the cell moves each device along its drop
        one_step = replace(default_params, pulse_width=default_params.dt)
        for xp in (0.0, 0.3, 0.9):
            for xq in (0.1, 0.6, 1.0):
                xp1, xq1 = _pulse(one_step, xp, xq)
                dp, dq = xp1 - xp, xq1 - xq
                sol = solve_cell(memristance(DeviceState(xp), default_params),
                                 memristance(DeviceState(xq), default_params), default_params)
                assert math.copysign(1, dp) == math.copysign(1, sol.drop_p) or dp == 0
                assert math.copysign(1, dq) == math.copysign(1, sol.drop_q) or dq == 0


class TestCalibration:
    def test_positive_finite(self, default_params):
        tw = default_params.pulse_width
        assert tw > 0 and math.isfinite(tw)

    def test_replay_switches_case1(self, default_params):
        tw = default_params.pulse_width
        _, q = integrate_imply(DeviceState(0.0), DeviceState(0.0), tw, default_params)
        assert memristance(q, default_params) <= 1.01 * default_params.r_on

    def test_doubling_mobility_halves_write_time(self, default_params):
        fast = CircuitParams(mu_v=2 * DEFAULTS.mu_v)
        tw_fast = calibrate_write_time(fast)
        assert tw_fast == pytest.approx(default_params.pulse_width / 2, rel=0.01)

    def test_non_switching_drive_errors(self):
        weak = CircuitParams(v_set=1e-12, v_cond=5e-13)
        with pytest.raises(CalibrationError):
            calibrate_write_time(weak)


class TestCaseDynamics:
    def test_case1_switches_to_on(self, default_params):
        _, q = integrate_imply(DeviceState(0.0), DeviceState(0.0),
                               default_params.pulse_width, default_params)
        assert memristance(q, default_params) <= 1.01 * default_params.r_on
        assert readout(q, default_params) == 1

    @pytest.mark.parametrize("case", [2, 4])
    def test_on_target_stays_on(self, default_params, case):
        xp0, xq0 = CASE_STATES[case]
        _, q = integrate_imply(DeviceState(xp0), DeviceState(xq0),
                               default_params.pulse_width, default_params)
        assert memristance(q, default_params) <= 1.01 * default_params.r_on

    def test_case3_drifts_but_reads_zero(self, default_params):
        _, q = integrate_imply(DeviceState(1.0), DeviceState(0.0),
                               default_params.pulse_width, default_params)
        m = memristance(q, default_params)
        assert m < default_params.r_off  # state drift happened
        assert m > default_params.r_on
        assert readout(q, default_params) == 0


class TestExecuteAnalog:
    def test_unmapped_register(self, default_params):
        with pytest.raises(AnalogError, match="unmapped"):
            execute_analog(NAND, default_params, {"Z": 1})

    @pytest.mark.parametrize("inputs, message", [
        ({"P": 1}, "missing input assignment for register 'Q'"),
        ({}, "missing input assignment for register 'P'"),
        ({"P": 1, "Q": 0, "S": 1}, "unmapped register 'S'"),
        ({"P": 1, "Q": 2}, "input 'Q' must be 0 or 1"),
    ])
    def test_same_input_contract_as_logical_machine(self, default_params, inputs, message):
        with pytest.raises(AnalogError, match=message):
            execute_analog(NAND, default_params, inputs)
        with pytest.raises(ExecutionError, match=message):
            run_program(NAND, inputs)

    def test_trace_time_strictly_increasing(self, default_params):
        res = execute_analog(NAND, default_params, {"P": 1, "Q": 0})
        times = res.trace.times
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_trace_memristance_within_rails(self, default_params):
        res = execute_analog(NAND, default_params, {"P": 0, "Q": 1})
        _, _, cols = full_rows(res.trace)
        for reg in NAND.registers:
            for x in cols[reg]:
                m = memristance(DeviceState(x), default_params)
                assert default_params.r_on <= m <= default_params.r_off

    def test_single_imply_case3_records_drift(self, default_params):
        prog = parse_program(".regs P Q\n.in P Q\nIMPLY P Q\n")
        res = execute_analog(prog, default_params, {"P": 1, "Q": 0})
        assert res.readouts["Q"] == 0
        assert memristance(res.final_states["Q"], default_params) < default_params.r_off
        assert res.drift.max_drift > 0.1

    def test_case1_single_imply(self, default_params):
        prog = parse_program(".regs P Q\n.in P Q\nIMPLY P Q\n")
        res = execute_analog(prog, default_params, {"P": 0, "Q": 0})
        assert res.readouts["Q"] == 1

    def test_nand_agreement_pattern(self, default_params):
        # threshold-free linear drift: conditional pulses accumulate drift,
        # so the (1,1) row switches S spuriously; the other rows agree
        agree = {}
        for p, q in itertools.product((0, 1), repeat=2):
            analog = execute_analog(NAND, default_params, {"P": p, "Q": q})
            logical = run_program(NAND, {"P": p, "Q": q})
            agree[(p, q)] = analog.readouts["S"] == logical.final["S"]
        assert agree == {(0, 0): True, (0, 1): True, (1, 0): True, (1, 1): False}

    def test_csv_format_and_stability(self, default_params):
        res1 = execute_analog(XOR9, default_params, {"A": 1, "B": 0})
        res2 = execute_analog(XOR9, default_params, {"A": 1, "B": 0})
        csv1 = res1.trace.to_csv(default_params)
        csv2 = res2.trace.to_csv(default_params)
        assert csv1 == csv2
        lines = csv1.splitlines()
        assert lines[0] == "time_s,node_v," + ",".join(
            f"{r}_x,{r}_ohm" for r in XOR9.registers)
        assert any(line.startswith("# step 1: FALSE M0") for line in lines)
        assert res1.readouts["M0"] == 1

    def test_adder2_trace_stores_no_padding(self, default_params):
        # every row stores its time, every pulse its node voltage, the columns of
        # the one or two devices it drives and one level for each other device
        coarse = replace(default_params, dt=default_params.pulse_width / 20)
        prog, _ = gen_adder_serial(2)
        trace = execute_analog(prog, coarse, {r: 1 for r in prog.inputs}).trace
        rows = len(trace.times)
        assert rows == 20 * (len(prog.inputs) + len(prog.body))
        driven_rows = 20 * (len(prog.inputs) + sum(
            2 if instr.op is Opcode.IMPLY else 1 for instr in prog.body))
        stored = len(trace.times) + sum(len(col) for pulse in trace.boundaries
                                        for col in (pulse.node_v, *pulse.driven.values()))
        assert stored == rows * 2 + driven_rows
        for pulse in trace.boundaries:
            assert pulse.driven.keys() | pulse.held.keys() == set(prog.registers)
            assert not pulse.driven.keys() & pulse.held.keys()


# --- Reference integrator -------------------------------------------------
# The list-based RK4 and derivative closures the engine used before it was
# folded into one scalar kernel, kept verbatim as a plain reference: the
# kernel must reproduce them to the last bit.

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


def reference_integrate_imply(p, q, duration, params, observe=None):
    dt = params.dt if params.dt is not None else duration / 1000
    xp, xq = _rk4(_imply_deriv(params), [p.x, q.x], duration, dt, observe)
    return DeviceState(xp), DeviceState(xq)


def reference_calibrate(params, rel_tol=1e-3, max_duration=1e9):
    target = 1.01 * params.r_on
    probe = replace(params, pulse_width=None, dt=None)

    def switched(duration):
        local = replace(probe, dt=duration / 1000)
        _, q = reference_integrate_imply(DeviceState(0.0), DeviceState(0.0), duration, local)
        return memristance(q, params) <= target

    hi = params.d**2 / (params.mu_v * abs(params.v_set))
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
    return hi


def reference_execute(prog, params, inputs):
    """The pulse sequence of ``execute_analog`` on the reference integrator,
    every register sampled at every step: (times, node_v, x columns, the
    (row, step, text) of each pulse's comment line, final states)."""
    tw, dt = params.pulse_width, params.dt
    xs = {r: DeviceState(0.0) for r in prog.registers}
    times, node_v, cols, marks = [], [], {r: [] for r in prog.registers}, []
    t_base = 0.0

    def record(t_abs, v):
        times.append(t_abs)
        node_v.append(v)
        for r in prog.registers:
            cols[r].append(xs[r].x)

    def single_pulse(reg, volts):
        nonlocal t_base
        cur = _single_device_current(params, volts)

        def observe(t, s):
            i = cur(_clamp(s[0]))
            xs[reg] = DeviceState(s[0])
            record(t_base + t, i * params.r_g)

        gain = params.drift_gain
        _rk4(lambda s: [gain * cur(_clamp(s[0]))], [xs[reg].x], tw, dt, observe)
        t_base += tw

    def imply_pulse(src, dst):
        nonlocal t_base

        def observe(t, s):
            xs[src], xs[dst] = DeviceState(s[0]), DeviceState(s[1])
            sol = solve_cell(memristance(xs[src], params), memristance(xs[dst], params), params)
            record(t_base + t, sol.node_v)

        reference_integrate_imply(xs[src], xs[dst], tw, params, observe)
        t_base += tw

    for name in prog.inputs:
        marks.append((len(times), 0, f"input {name}={inputs[name]}"))
        single_pulse(name, params.v_set if inputs[name] else params.v_clear)
    step = 0
    for instr in prog.body:
        step += instr.op is not Opcode.LOAD
        marks.append((len(times), step, str(instr)))
        if instr.op is Opcode.LOAD:
            single_pulse(instr.target, params.v_set if instr.value else params.v_clear)
        elif instr.op is Opcode.FALSE:
            single_pulse(instr.target, params.v_clear)
        else:
            imply_pulse(instr.source, instr.target)
    return times, node_v, cols, marks, xs


def reference_to_csv(registers, times, node_v, cols, marks, params):
    """Full-width sample rows as CSV, one row at a time, each ``marks``
    entry (row, step, text) a comment line before its row."""
    header = "time_s,node_v," + ",".join(f"{r}_x,{r}_ohm" for r in registers)
    lines = [header]
    marks = {row: (step, text) for row, step, text in marks}
    for i, (t, v) in enumerate(zip(times, node_v)):
        if i in marks:
            step, text = marks[i]
            lines.append(f"# step {step}: {text}")
        cells = [f"{t:.9e}", f"{v:.9e}"]
        for r in registers:
            xv = cols[r][i]
            cells.append(f"{xv:.9e}")
            cells.append(f"{memristance(xv, params):.9e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def full_rows(trace):
    """A trace's pulse records expanded to full width: (times, node_v, a
    column per register with a sample on every row)."""
    node_v, cols = [], {r: [] for r in trace.registers}
    rows = [pulse.row for pulse in trace.boundaries] + [len(trace.times)]
    for pulse, a, b in zip(trace.boundaries, rows, rows[1:]):
        node_v += pulse.node_v
        for r in trace.registers:
            cols[r] += pulse.driven[r] if r in pulse.driven else [pulse.held[r]] * (b - a)
    return list(trace.times), node_v, cols


def signs(*columns):
    return [math.copysign(1.0, x) for col in columns for x in col]


GATE_CASES = [(kind.value, levels) for kind in GateKind
              for levels in itertools.product((0, 1), repeat=len(gate_program(kind.value).inputs))]


class TestKernelAgainstReference:
    """Exact (==) agreement of the scalar pulse kernel with the reference."""

    @pytest.fixture(scope="class")
    def coarse(self, default_params):
        return replace(default_params, dt=default_params.pulse_width / 50)

    @pytest.mark.parametrize("gate, levels", GATE_CASES)
    def test_every_gate_case_bit_identical(self, coarse, gate, levels):
        prog = gate_program(gate)
        inputs = dict(zip(prog.inputs, levels))
        res = execute_analog(prog, coarse, inputs)
        times, node_v, cols, marks, finals = reference_execute(prog, coarse, inputs)
        got_times, got_node_v, got_cols = full_rows(res.trace)
        assert got_times == times
        assert got_node_v == node_v
        assert got_cols == cols
        assert res.final_states == finals
        assert signs(got_times, got_node_v, *got_cols.values()) == \
            signs(times, node_v, *cols.values())
        assert len(res.trace.times) == 50 * (len(prog.inputs) + len(prog.body))
        assert [pulse[:3] for pulse in res.trace.boundaries] == marks
        assert res.trace.to_csv(coarse) == reference_to_csv(prog.registers, times, node_v, cols,
                                                            marks, coarse)

    def test_logical_levels_and_drift_rows(self, coarse):
        res = execute_analog(XOR9, coarse, {"A": 1, "B": 0})
        *_, finals = reference_execute(XOR9, coarse, {"A": 1, "B": 0})
        logical, steps = {"A": 1, "B": 0, "M0": 0, "M1": 0}, 0

        def apply(levels, instr):  # a logical reference apart from the engine's
            if instr.op is Opcode.IMPLY:
                p, q = levels[instr.source], levels[instr.target]
                return {**levels, instr.target: int(not p or q)}
            return {**levels, instr.target: instr.value or 0}

        assert len(res.drift.per_instruction) == len(XOR9.body)
        for (step, text, drifts), instr in zip(res.drift.per_instruction, XOR9.body):
            logical = apply(logical, instr)
            steps += instr.is_step
            assert (step, text) == (steps, str(instr))
            assert set(drifts) == set(XOR9.registers)
        assert drifts == {r: abs(finals[r].x - logical[r]) for r in XOR9.registers}
        assert [(b.step, b.text) for b in res.trace.boundaries[:3]] == [
            (0, "input A=1"), (0, "input B=0"), (1, "FALSE M0")]

    @pytest.mark.parametrize("case", sorted(CASE_STATES))
    def test_integrate_imply_default_dt(self, default_params, case):
        xp, xq = CASE_STATES[case]
        tw = default_params.pulse_width
        got = integrate_imply(DeviceState(xp), DeviceState(xq), tw, default_params)
        assert got == reference_integrate_imply(DeviceState(xp), DeviceState(xq), tw,
                                                default_params)

    @pytest.mark.parametrize("params", [
        CircuitParams(),
        CircuitParams(r_on=2e3, r_off=500e3, r_g=30e3, v_cond=0.3, v_set=1.2),
        CircuitParams(mu_v=3e-14, d=7e-9, v_set=1.5, v_cond=0.8),
    ])
    def test_calibrated_write_time_identical(self, params):
        assert calibrate_write_time(params) == reference_calibrate(params)

    def test_default_write_time_pinned(self, default_params):
        assert default_params.pulse_width == 0.6268750000000002

    def test_csv_keeps_signed_zero_apart(self):
        # both signs of zero in a driven column, in a held level and in the node voltage
        times, node_v = [1e-3, 2e-3, 3e-3, 4e-3], [0.1, -0.0, 0.0, 0.2]
        cols = {"P": [0.0, -0.0, -0.0, -0.0], "Q": [-0.0, -0.0, 0.25, 0.25]}
        marks = [(0, 0, "input P=0"), (2, 1, "FALSE Q")]
        trace = AnalogTrace(registers=("P", "Q"), times=array("d", times), boundaries=[
            Pulse(0, 0, "input P=0", array("d", node_v[:2]), {"P": array("d", [0.0, -0.0])},
                  {"Q": -0.0}),
            Pulse(2, 1, "FALSE Q", array("d", node_v[2:]), {"Q": array("d", [0.25, 0.25])},
                  {"P": -0.0})])
        assert full_rows(trace) == (times, node_v, cols)
        csv = trace.to_csv(DEFAULTS)
        assert csv == reference_to_csv(("P", "Q"), times, node_v, cols, marks, DEFAULTS)
        assert [line.split(",")[2:6] for line in csv.splitlines()[2:4]] == [
            ["0.000000000e+00", "1.000000000e+05", "-0.000000000e+00", "1.000000000e+05"],
            ["-0.000000000e+00", "1.000000000e+05", "-0.000000000e+00", "1.000000000e+05"]]
        assert csv.splitlines()[3].split(",")[1] == "-0.000000000e+00"


class TestUntracedRun:
    """A pulse stores no rows for the devices it does not drive, and that
    changes nothing against the reference, which samples every register
    on every row."""

    @pytest.mark.parametrize("levels", [(0, 1), (1, 1)])
    def test_same_result_without_rows(self, default_params, levels):
        inputs = dict(zip(XOR9.inputs, levels))
        res = execute_analog(XOR9, default_params, inputs)
        times, node_v, cols, marks, finals = reference_execute(XOR9, default_params, inputs)
        assert res.final_states == finals
        assert res.readouts == {r: readout(finals[r], default_params) for r in XOR9.registers}
        assert [pulse[:3] for pulse in res.trace.boundaries] == marks
        assert full_rows(res.trace) == (times, node_v, cols)
        for pulse in res.trace.boundaries:
            assert len(pulse.driven) == (2 if pulse.text.startswith("IMPLY") else 1)
            assert pulse.held == {r: cols[r][pulse.row - 1] if pulse.row else 0.0
                                  for r in XOR9.registers if r not in pulse.driven}


def one_pulse_trace(values):
    """A one-pulse trace whose every column, time and node voltage
    included, is ``values``."""
    column = array("d", values)
    return AnalogTrace(registers=("P",), times=column,
                       boundaries=[Pulse(0, 0, "FALSE P", column, {"P": column}, {})])


def expected_row(v, params=DEFAULTS):
    ohm = params.r_on * v + params.r_off * (1.0 - v)
    return ",".join("%.9e" % f for f in (v, v, v, ohm))


class TestCsvExport:
    """The column-wise export writes exactly what ``"%.9e" %`` writes."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_every_float_formats_as_percent_e(self, values):
        rows = one_pulse_trace(values).to_csv(DEFAULTS).splitlines()
        assert rows[1] == "# step 0: FALSE P"
        assert rows[2:] == [expected_row(v) for v in values]

    def test_edge_values(self):
        edges = ([10.0**k for k in range(-22, 23)] + [9.9999999995, 9.99999999949, 5e-324, 1e-100]
                 # exact ties at the tenth significant digit, half to even: down, up, down, down, up
                 + [12345678905.0, 12345678915.0, 1234567890.5, 2.0**-15, 3 * 2.0**-15])
        values = edges + [-v for v in edges] + [0.0, -0.0, math.inf, -math.inf, math.nan]
        csv = one_pulse_trace(values).to_csv(DEFAULTS)
        assert csv.splitlines()[2:] == [expected_row(v) for v in values]

    def test_coarse_adder2_matches_reference(self, default_params):
        coarse = replace(default_params, dt=default_params.pulse_width / 20)
        prog, _ = gen_adder_serial(2)
        inputs = {r: i % 2 for i, r in enumerate(prog.inputs)}
        csv = execute_analog(prog, coarse, inputs).trace.to_csv(coarse)
        times, node_v, cols, marks, _ = reference_execute(prog, coarse, inputs)
        assert csv == reference_to_csv(prog.registers, times, node_v, cols, marks, coarse)
        assert csv.count("\n# step ") == len(prog.inputs) + len(prog.body)

    def test_writes_each_block_to_the_file(self, default_params):
        # to a file: the header, then per pulse its "# step" line and its block, one write each
        coarse = replace(default_params, dt=default_params.pulse_width / 20)
        trace = execute_analog(NAND, coarse, {"P": 1, "Q": 0}).trace
        writes = []

        class Recorder:
            write = writes.append

        assert trace.to_csv(coarse, Recorder()) is None
        assert "".join(writes) == trace.to_csv(coarse)
        assert len(writes) == 1 + 2 * len(trace.boundaries)
        for pulse, comment, block in zip(trace.boundaries, writes[1::2], writes[2::2]):
            assert comment == f"# step {pulse.step}: {pulse.text}\n"
            assert block.count("\n") == len(pulse.node_v) == 20

    def test_empty_trace_is_the_header(self):
        assert AnalogTrace(registers=("P", "Q")).to_csv(DEFAULTS) == \
            "time_s,node_v,P_x,P_ohm,Q_x,Q_ohm\n"

    @pytest.mark.parametrize("starts", [[0], [0, 2], [0, 1, 3]],
                             ids=["row-0", "two-pulses", "three-pulses"])
    def test_boundaries(self, starts):
        # pulse k drives P over rows starts[k] up to the next start and holds Q at k / 8
        values = [0.25, 0.5, 0.5, 0.75]
        ends = starts[1:] + [len(values)]
        pulses = [Pulse(a, k, f"pulse {k}", array("d", values[a:b]),
                        {"P": array("d", values[a:b])}, {"Q": k / 8})
                  for k, (a, b) in enumerate(zip(starts, ends))]
        trace = AnalogTrace(registers=("P", "Q"), times=array("d", values), boundaries=pulses)
        cols = {"P": values, "Q": [k / 8 for k, (a, b) in enumerate(zip(starts, ends))
                                   for _ in range(a, b)]}
        marks = [pulse[:3] for pulse in pulses]
        csv = trace.to_csv(DEFAULTS)
        assert csv == reference_to_csv(("P", "Q"), values, values, cols, marks, DEFAULTS)
        lines = csv.splitlines()[1:]
        assert [line for line in lines if line.startswith("#")] == [
            f"# step {k}: pulse {k}" for k in range(len(starts))]
        assert [i for i, line in enumerate(lines) if line.startswith("#")] == [
            a + k for k, a in enumerate(starts)]


PARAM_SETS = [CircuitParams(),
              CircuitParams(r_on=2e3, r_off=500e3, r_g=30e3, v_cond=0.3, v_set=1.2),
              CircuitParams(mu_v=3e-14, d=7e-9, v_set=1.5, v_cond=0.8)]


def reference_drift_rows(prog, inputs, cols, marks):
    """(step, text, distance of each register from its logical level) after
    each body pulse, read off the last row of the reference engine's pulse."""
    ends = [row for row, _, _ in marks[1:]] + [len(next(iter(cols.values())))]
    body = zip(marks[len(prog.inputs):], ends[len(prog.inputs):], run_program(prog, inputs).trace)
    return [(step, text, {r: abs(cols[r][end - 1] - levels[r]) for r in prog.registers})
            for (_, step, text), end, (_, _, levels) in body]


class TestPulseTable:
    """Pulses looked up in a table, shared or fresh, are the pulses the
    reference integrator computes, to the last bit and sign."""

    # (parameter set, pulse_width/dt): 10 steps each, but 9.6 rounds to 10 steps of
    # pulse_width/10 and 1 is a one-step pulse, so each time grid is the kernel's own
    @pytest.fixture(scope="class", params=[(0, 10), (1, 10), (2, 10), (0, 9.6), (1, 1)],
                    ids=["defaults", "rails", "mobility", "uneven-dt", "one-step"])
    def coarse(self, request):
        index, per_pulse = request.param
        params = PARAM_SETS[index].resolved()
        return replace(params, dt=params.pulse_width / per_pulse)

    @pytest.mark.parametrize("seed", range(12))
    def test_shared_fresh_and_reference_agree(self, coarse, seed):
        prog = random_program(random.Random(seed))
        cases = [dict(zip(prog.inputs, levels))
                 for levels in itertools.product((0, 1), repeat=len(prog.inputs))]
        shared = PulseTable()
        for inputs in cases:
            got = execute_analog(prog, coarse, inputs, table=shared)
            fresh = execute_analog(prog, coarse, inputs, table=PulseTable())
            times, node_v, cols, marks, finals = reference_execute(prog, coarse, inputs)
            for res in (got, fresh):
                rows = full_rows(res.trace)
                assert rows == (times, node_v, cols)
                assert signs(rows[0], rows[1], *rows[2].values()) == \
                    signs(times, node_v, *cols.values())
                assert [pulse[:3] for pulse in res.trace.boundaries] == marks
                assert res.final_states == finals
                assert res.drift.per_instruction == reference_drift_rows(prog, inputs, cols,
                                                                         marks)
                assert res.trace.to_csv(coarse) == reference_to_csv(
                    prog.registers, times, node_v, cols, marks, coarse)
            assert got.readouts == fresh.readouts
            assert got.drift.max_drift == fresh.drift.max_drift

    def test_gate_tables_integrate_81_of_242_pulses(self, default_params):
        pulses, integrated = 0, 0
        for kind in GateKind:
            prog, table = gate_program(kind.value), PulseTable()
            for levels in itertools.product((0, 1), repeat=len(prog.inputs)):
                res = execute_analog(prog, default_params, dict(zip(prog.inputs, levels)),
                                     table=table)
                pulses += len(res.trace.boundaries)
            integrated += len(table.entries)
        assert (pulses, integrated) == (242, 81)

    def test_traces_share_the_stored_arrays(self, default_params):
        table = PulseTable()
        a = execute_analog(NAND, default_params, {"P": 0, "Q": 0}, table=table)
        b = execute_analog(NAND, default_params, {"P": 0, "Q": 1}, table=table)
        first_a, first_b = a.trace.boundaries[0], b.trace.boundaries[0]  # input P=0, both
        assert first_a.driven["P"] is first_b.driven["P"]
        assert first_a.node_v is first_b.node_v

    def test_one_table_per_command(self, tmp_path, capsys, monkeypatch):
        # simulate builds its table after calibrating: a second identical
        # command integrates every pulse again, so no table outlives a command
        path = tmp_path / "xor9.imply"
        cli.main(["compile", "--gate", "xor9", "-o", str(path)])
        integrated = []

        def counting(params, xp, xq=None, volts=0.0, rows=None):
            integrated[-1] += rows is not None  # calibration probes record no rows
            return _pulse(params, xp, xq, volts, rows)

        monkeypatch.setattr(analog, "_pulse", counting)
        for _ in range(2):
            integrated.append(0)
            assert cli.main(["simulate", str(path)]) == 0
        assert integrated[0] == integrated[1] > 0
        params, table = CircuitParams().resolved(), PulseTable()
        for levels in itertools.product((0, 1), repeat=2):
            execute_analog(XOR9, params, dict(zip(XOR9.inputs, levels)), table=table)
        assert integrated[0] == len(table.entries)
        capsys.readouterr()

    def test_signed_zero_start_states_are_apart(self, default_params):
        table = PulseTable()
        starts = [(0.0, None), (-0.0, None), (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)]
        for xp, xq in starts:
            entry = table.pulse(default_params, xp, xq, default_params.v_clear)
            rows = [], [], []
            final = _pulse(default_params, xp, xq, default_params.v_clear,
                           tuple(col.append for col in rows))
            assert entry[:2] == final and signs(entry[:1]) == signs(final[:1])
            assert [list(col) for col in entry[2:]] == list(rows)
            assert signs(*entry[2:]) == signs(*rows)
        assert len(table.entries) == len(starts)

    def test_drive_voltage_is_part_of_a_single_device_key(self, default_params):
        table = PulseTable()
        on = table.pulse(default_params, 0.0, None, default_params.v_set)
        off = table.pulse(default_params, 0.0, None, default_params.v_clear)
        assert on[0] > 0.99 and off[0] == 0.0 and len(table.entries) == 2

    def test_raising_pulse_stores_nothing(self, default_params):
        table = PulseTable()
        for xp, xq in ((math.nan, None), (0.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(AnalogError, match="non-finite"):
                table.pulse(default_params, xp, xq, default_params.v_set)
        assert table.entries == {}

    def test_one_table_keeps_parameter_sets_apart(self, default_params):
        # the same start states under two parameter sets: one shared table holds
        # both sets' entries, each equal to a fresh table's for that set alone
        coarse = replace(default_params, dt=default_params.pulse_width / 10)
        shared, fresh = PulseTable(), {}
        for params in (default_params, coarse, default_params):  # the third pass only looks up
            fresh[params] = PulseTable()
            for levels in itertools.product((0, 1), repeat=2):
                inputs = dict(zip(NAND.inputs, levels))
                got = execute_analog(NAND, params, inputs, table=shared)
                want = execute_analog(NAND, params, inputs, table=fresh[params])
                assert full_rows(got.trace) == full_rows(want.trace)
                assert got.trace.to_csv(params) == want.trace.to_csv(params)
                assert got.final_states == want.final_states
            assert {key: entry for key, entry in shared.entries.items()
                    if key[0] == params} == fresh[params].entries
        assert len(shared.entries) == sum(len(table.entries) for table in fresh.values())
        starts = [{key[1] for key in table.entries} for table in fresh.values()]
        assert starts[0] & starts[1]  # the input pulses start alike under both sets

    def test_unresolved_parameters_refused(self):
        table = PulseTable()
        with pytest.raises(AnalogError, match="resolved parameters"):
            table.pulse(CircuitParams(), 0.0, None, 1.0)
        assert table.entries == {}
