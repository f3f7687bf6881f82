import itertools
import math

import pytest

from implylogic.analog import (AnalogError, CalibrationError, CircuitParams,
                               DeviceState, calibrate_write_time, closed_form_check,
                               execute_analog, integrate_imply, integrate_pulse,
                               memristance, readout, solve_cell)
from implylogic.core import ExecutionError, run_program
from implylogic.ir import parse_program
from dataclasses import replace

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
            CircuitParams(v_cond=1.5)  # |V_cond| >= |V_set|
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

    @pytest.mark.parametrize("v_clear", [0.0, 0.5])
    def test_non_negative_clear_rejected(self, v_clear):
        with pytest.raises(AnalogError, match="V_clear"):
            CircuitParams(v_clear=v_clear)


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
            CircuitParams(r_on=500, r_off=20e3, r_g=2e3, v_cond=-0.2, v_set=2.0),
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
        dev = DeviceState(0.37)
        out = integrate_pulse(dev, lambda x: 0.0, 1e-3, DEFAULTS)
        assert out.x == pytest.approx(0.37, abs=1e-15)

    def test_duration_guard(self):
        with pytest.raises(AnalogError):
            integrate_pulse(DeviceState(0.0), lambda x: 0.0, 0.0, DEFAULTS)

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
        from implylogic.analog import _imply_deriv
        deriv = _imply_deriv(default_params)
        for xp in (0.0, 0.3, 0.9):
            for xq in (0.1, 0.6, 1.0):
                dp, dq = deriv([xp, xq])
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
        for reg in NAND.registers:
            for x in res.trace.x[reg]:
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
