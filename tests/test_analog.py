import ast
import collections
import functools
import inspect
import itertools
import math
import random
import struct
import sys
import textwrap
import tracemalloc
from array import array
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, strategies as st

from implylogic.analog import (DEFAULT_STEPS_PER_PULSE, MAX_STEPS_PER_PULSE, AnalogError,
                               AnalogTrace, CalibrationError, CircuitParams, Pulse,
                               PulseTable, _format_e9, _pulse, calibrate_write_time,
                               closed_form_check, execute_analog, integrate_imply, memristance,
                               readout, solve_cell)
from implylogic import analog, cli
from implylogic.cli import gate_program
from implylogic.core import ExecutionError, Opcode, run_program
from implylogic.ir import parse_program
from implylogic.synthesis import GATES, gen_adder_serial

from conftest import random_program, tracing

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
        with pytest.raises(AnalogError):  # _replace builds through the checks too
            DEFAULTS._replace(r_g=0)
        with pytest.raises(AnalogError):
            DEFAULTS._replace(v_cond=1.5)

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
        assert memristance(1.0, DEFAULTS) == pytest.approx(1e3)
        assert memristance(0.0, DEFAULTS) == pytest.approx(100e3)
        assert memristance(0.5, DEFAULTS) == pytest.approx(50.5e3)


class TestReadout:
    def test_rails(self):
        assert readout(1.0, DEFAULTS) == 1
        assert readout(0.0, DEFAULTS) == 0

    @pytest.mark.parametrize("x, level", [(1.7, 1), (-0.2, 0), (math.nan, 0)])
    def test_beyond_the_rails_reads_as_clamped(self, x, level):
        # states are plain floats: an unclamped one reads as its clamped value would
        assert readout(x, DEFAULTS) == level == readout(min(max(x, 0.0), 1.0), DEFAULTS)

    def test_mid_resistance_reads_zero(self):
        # M = 50 kohm, well above the 10 kohm threshold
        x = (DEFAULTS.r_off - 50e3) / (DEFAULTS.r_off - DEFAULTS.r_on)
        assert readout(x, DEFAULTS) == 0

    def test_tie_reads_zero(self):
        x = (DEFAULTS.r_off - DEFAULTS.read_threshold) / (DEFAULTS.r_off - DEFAULTS.r_on)
        assert memristance(x, DEFAULTS) == pytest.approx(DEFAULTS.read_threshold)
        assert readout(x, DEFAULTS) == 0


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
        rp, rq = (memristance(x, DEFAULTS) for x in CASE_STATES[case])
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
            rp, rq = (memristance(x, params) for x in CASE_STATES[case])
            sol = solve_cell(rp, rq, params)
            cf = closed_form_check(case, params)
            assert cf == pytest.approx(sol.node_v, rel=1e-9)
            assert params.v_set - cf == pytest.approx(sol.drop_q, rel=1e-9)
            assert params.v_cond - cf == pytest.approx(sol.drop_p, rel=1e-9)


class TestIntegration:
    def test_zero_current_no_drift(self):
        x = _pulse(DEFAULTS._replace(pulse_width=1e-3, dt=1e-6), 0.37, volts=0.0)[0]
        assert x == pytest.approx(0.37, abs=1e-15)

    def test_duration_guard(self):
        # integrate_imply states its pulse as CircuitParams, which check the duration
        for duration in (0.0, -1e-3):
            with pytest.raises(AnalogError, match="pulse width must be positive"):
                integrate_imply(0.0, 0.0, duration, DEFAULTS)
        params = CircuitParams(pulse_width=1e-3, dt=1e-6)
        with pytest.raises(AnalogError, match="require dt <= pulse_width"):
            integrate_imply(0.0, 0.0, 1e-7, params)

    def test_steps_per_pulse_capped_before_integration(self):
        # the one cap check, in CircuitParams, covers integrate_imply's duration too
        params = CircuitParams(pulse_width=1e-3, dt=1e-6)
        with pytest.raises(AnalogError, match=r"pulse_width/dt = 2\.000000e-01/1\.000000e-06 gives "
                                              r"2\.000000e\+05 RK4 steps .* MAX_STEPS_PER_PULSE = "
                                              r"100000"):
            integrate_imply(0.0, 0.0, 0.2, params)

    def test_unresolved_parameters_refused_before_integration(self):
        for params in (DEFAULTS, CircuitParams(pulse_width=1e-3), CircuitParams(dt=1e-6)):
            for xq in (None, 0.0):
                counts = {}
                with pytest.raises(AnalogError, match=r"a pulse needs resolved parameters "
                                                      r"\(pulse_width and dt\)"):
                    traced_pulse(counts, params, 0.0, xq, volts=1.0)
                assert counts["step"] == 0

    def test_nan_state_reaches_finite_check(self, default_params):
        # the clamp passes NaN through, as min(max(v, 0.0), 1.0) does
        tw = default_params.pulse_width
        with pytest.raises(AnalogError, match="non-finite"):
            _pulse(default_params, math.nan, volts=1.0)
        for xp, xq in ((math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(AnalogError, match="non-finite"):
                integrate_imply(xp, xq, tw, default_params)

    def test_halving_dt_converges(self, default_params):
        tw = default_params.pulse_width
        coarse = default_params._replace(dt=tw / 1000)
        fine = default_params._replace(dt=tw / 2000)
        for xp0, xq0 in CASE_STATES.values():
            _, q1 = integrate_imply(xp0, xq0, tw, coarse)
            _, q2 = integrate_imply(xp0, xq0, tw, fine)
            m1, m2 = memristance(q1, default_params), memristance(q2, default_params)
            assert abs(m1 - m2) / m1 < 1e-4

    def test_drift_direction_matches_drop_sign(self, default_params):
        # one short RK4 step of the cell moves each device along its drop
        one_step = default_params._replace(pulse_width=default_params.dt)
        for xp in (0.0, 0.3, 0.9):
            for xq in (0.1, 0.6, 1.0):
                xp1, xq1 = _pulse(one_step, xp, xq)[:2]
                dp, dq = xp1 - xp, xq1 - xq
                sol = solve_cell(memristance(xp, default_params),
                                 memristance(xq, default_params), default_params)
                assert math.copysign(1, dp) == math.copysign(1, sol.drop_p) or dp == 0
                assert math.copysign(1, dq) == math.copysign(1, sol.drop_q) or dq == 0


def entry_rows(params, entry, volts=0.0):
    """A pulse's kernel result as (final (xp, xq), rows): the node column that the CSV
    export derives from its state columns (``volts`` drives a single device), then
    each state column, as lists."""
    final, cols = entry[:2], entry[2:]
    pulse = Pulse(0, "", volts if final[1] is None else None, dict(zip("PQ", cols)))
    return final, [analog._node_volts(params, pulse).tolist(), *map(list, cols)]


def reference_pulse(params, xp, xq=None, volts=0.0):
    """The final (xp, xq) and the (node volts, xp[, xq]) rows of one pulse on
    the reference integrator, every step integrated."""
    rows = [[], [], []] if xq is not None else [[], []]
    if xq is None:
        cur = _single_device_current(params, volts)

        def observe(t, s):
            rows[0].append(cur(s[0]) * params.r_g)
            rows[1].append(s[0])

        (p,) = _rk4(lambda s: [params.drift_gain * cur(_clamp(s[0]))], [xp], params.pulse_width,
                    params.dt, observe)
        return (p, None), rows

    def observe(t, s):
        rows[0].append(solve_cell(memristance(s[0], params), memristance(s[1], params),
                                  params).node_v)
        rows[1].append(s[0])
        rows[2].append(s[1])

    return tuple(_rk4(_imply_deriv(params), [xp, xq], params.pulse_width, params.dt,
                      observe)), rows


class TestFixedPoint:
    """The kernel stops at the first step that leaves the state's bits
    unchanged and repeats that state: the same final state, rows and signs
    as integrating every step."""

    @pytest.mark.parametrize("xp, xq, drive, integrated", [
        (0.0, None, "v_clear", 0),    # FALSE of an OFF device: the first step changes nothing
        (-0.0, None, "v_clear", 1),   # its first step gives 0.0, == -0.0 but another state
        (0.0, None, "v_set", None),   # LOAD 1 saturates at 1.0 within the pulse
        (0.0, 1.0, None, 0),          # IMPLY from (0, 1): both devices pinned at their rails
    ], ids=["false-0", "false-minus-0", "load-1", "imply-0-1"])
    def test_same_as_every_step(self, default_params, xp, xq, drive, integrated):
        volts = getattr(default_params, drive) if drive else 0.0
        counts = {}
        entry = traced_pulse(counts, default_params, xp, xq, volts)
        final, rows = entry_rows(default_params, entry, volts)
        want, want_rows = reference_pulse(default_params, xp, xq, volts)
        n = 1 if xq is None else 2
        assert final == want and signs(final[:n]) == signs(want[:n])
        assert rows == want_rows and signs(*rows) == signs(*want_rows)
        steps = default_params.grid[0]
        assert [len(col) for col in want_rows] == [steps] * (n + 1)
        if integrated is None:
            assert final[0] == 1.0 and 0 < counts["step"] < steps
        else:
            assert counts["step"] == integrated

    def test_state_no_step_moves_stops_in_the_general_step(self, default_params):
        # neither device at a rail, and steps too short to move either by half an ulp
        x, params = 1.0 - 2.0**-53, default_params._replace(pulse_width=1e-17, dt=1e-18)
        counts = {}  # traced for the count, and untraced, as scripts/uncovered.py sees it
        assert traced_pulse(counts, params, x, x)[:2] == (x, x) and counts["step"] == 0
        final, rows = entry_rows(params, _pulse(params, x, x))
        want, want_rows = reference_pulse(params, x, x)
        assert final == want == (x, x) and rows == want_rows

    @pytest.mark.parametrize("xp, xq", [(math.nan, None), (0.0, math.nan), (math.nan, 1.0)])
    def test_nan_start_never_stops_early(self, default_params, xp, xq):
        counts = {}
        with pytest.raises(AnalogError, match="non-finite"):
            traced_pulse(counts, default_params, xp, xq, default_params.v_set)
        assert counts["step"] == default_params.grid[0]


#: the test of each held-rail branch of _pulse's IMPLY loop, by the device it holds
HELD_TESTS = {"p == 1.0 and node <= v_cond": "source", "q == 1.0 and node <= v_set": "target"}


@functools.cache
def counted_lines() -> dict[int, tuple[str, str] | str]:
    """Lines of _pulse to count: each held-rail branch's, as (device, what): "enter"
    (its first line), "continue" (a held step taken) or "break" (the fixed point); and
    each ``add_p(p)``, which records a step taken, as "step"."""
    source, start = inspect.getsourcelines(_pulse)
    lines = {}
    for node in ast.walk(ast.parse(textwrap.dedent("".join(source)))):
        if isinstance(node, ast.Expr) and ast.unparse(node) == "add_p(p)":
            lines[start + node.lineno - 1] = "step"
        if isinstance(node, ast.If) and ast.unparse(node.test) in HELD_TESTS:
            device = HELD_TESTS[ast.unparse(node.test)]
            lines[start + node.body[0].lineno - 1] = device, "enter"
            for end in (n for stmt in node.body for n in ast.walk(stmt)):
                if isinstance(end, (ast.Continue, ast.Break)):
                    lines[start + end.lineno - 1] = device, type(end).__name__.lower()
    return lines


def traced_pulse(counts, params, xp, xq=None, volts=0.0, on_step=None):
    """``_pulse(params, xp, xq, volts)``, counting in ``counts`` how often each line of
    :func:`counted_lines` ran, from the line events in _pulse's frame that
    :func:`conftest.tracing` sees; the counts stand where the kernel raises.  A held step
    that falls back to the general step enters and neither continues nor breaks.
    ``on_step``, if given, gets the kernel's locals as each step is recorded."""
    lines = counted_lines()
    held = [what for what in lines.values() if what != "step"]
    assert sorted(held) == sorted(itertools.product(
        HELD_TESTS.values(), ("break", "continue", "enter")))
    assert len(lines) - len(held) == 4  # the single-device loop, two held branches, general
    counts.update(dict.fromkeys(lines.values(), 0))

    def count(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            counts[lines[frame.f_lineno]] += 1
            if on_step is not None and lines[frame.f_lineno] == "step":
                on_step(frame.f_locals)

    with tracing(_pulse.__code__, count):
        return _pulse(params, xp, xq, volts)


def count_held_steps(params, xp, xq):
    """The IMPLY pulse's final state and how often each held-rail line of
    :func:`counted_lines` ran."""
    counts = {}
    final = traced_pulse(counts, params, xp, xq)[:2]
    del counts["step"]
    return final, counts


def test_traced_pulse_keeps_the_tracer_installed_before(default_params):
    """A tracer installed before :func:`traced_pulse`, as scripts/uncovered.py's is,
    still sees the line events of the traced _pulse frame: its count of the lines
    that traced_pulse counts is traced_pulse's."""
    seen = collections.Counter()

    def local(frame, event, arg):
        if event == "line" and frame.f_code is _pulse.__code__:
            seen[frame.f_lineno] += 1
        return local

    counts, previous = {}, sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        traced_pulse(counts, default_params, 1.0, 0.0)
    finally:
        sys.settrace(previous)
    lines = counted_lines()
    assert counts["step"] > 0
    assert counts == {what: sum(seen[n] for n, w in lines.items() if w == what) for what in counts}


def held_params(rng: random.Random, kind: str, steps: int) -> CircuitParams:
    """A seeded parameter set of ``kind``, and a pulse of 0.1 to 3 times the write-time
    scale (drift time x R_OFF/R_ON) in ``steps`` steps.  Kinds: "random"; V_cond within
    1e-12 of V_set; R_G >= 1e5; R_G small enough that the (1, 1) cell holds both
    devices (R_G (V_set - V_cond) <= V_cond R_ON); and "crossing", an R_G at which the
    (1, 0) cell holds the source until the target's rise lifts the node above V_cond."""
    r_on, v_set = 10 ** rng.uniform(2.5, 3.7), rng.uniform(0.5, 2.0)
    r_off = r_on * 10 ** rng.uniform(1.0, 2.7)
    v_cond = v_set * (1.0 - rng.uniform(1e-13, 1e-12) if kind == "vcond-at-vset"
                      else rng.uniform(0.05, 0.95))
    scale = v_cond / (v_set - v_cond)  # times R_ON: both held; times R_OFF: the source held
    r_g = {"random": 10 ** rng.uniform(2.5, 5), "large-rg": 10 ** rng.uniform(5, 7),
           "small-rg": r_on * scale * rng.uniform(0.1, 1.0),
           "crossing": scale * r_on ** 0.5 * r_off ** 0.5,
           "vcond-at-vset": 10 ** rng.uniform(2.5, 6)}[kind]
    params = CircuitParams(r_on=r_on, r_off=r_off, r_g=r_g, v_set=v_set, v_cond=v_cond,
                           d=10 ** rng.uniform(-8.3, -7.7), mu_v=10 ** rng.uniform(-14.3, -13.5))
    width = params.drift_time * r_off / r_on * rng.uniform(0.1, 3.0)
    return params._replace(pulse_width=width, dt=width / steps)


HELD_KINDS = ["random", "vcond-at-vset", "large-rg", "small-rg", "crossing"]


class TestHeldRails:
    """A device at its ON rail whose drop stays >= 0 is held there: _pulse's IMPLY
    loop then integrates the other device alone, and its rows, final states and
    signs, the node column derived from its states included, are still the reference
    integrator's, bit for bit."""

    STARTS = (0.0, -0.0, 1.0, 1.0 - 2.0**-53)

    @pytest.mark.parametrize("kind", HELD_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_every_start_pair_as_the_reference(self, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        params = held_params(rng, kind, rng.choice((10, 50)))
        starts = (*self.STARTS, rng.random())
        for xp, xq in itertools.product(starts, repeat=2):
            final, rows = entry_rows(params, _pulse(params, xp, xq))
            want, want_rows = reference_pulse(params, xp, xq)
            assert final == want and signs(final) == signs(want), (xp, xq)
            assert rows == want_rows and signs(*rows) == signs(*want_rows), (xp, xq)

    def test_the_start_pairs_take_and_leave_held_steps(self):
        # what the test above compares, in its pulses from a device at 1.0: held steps of
        # both devices, fixed points inside them, and source-held steps that a stage's
        # check sends to the general step
        total = {}
        for kind, seed in itertools.product(HELD_KINDS, range(4)):
            rng = random.Random(f"{kind}-{seed}")
            params = held_params(rng, kind, rng.choice((10, 50)))
            for xp, xq in itertools.product((*self.STARTS, rng.random()), repeat=2):
                if 1.0 not in (xp, xq):
                    continue
                for key, n in count_held_steps(params, xp, xq)[1].items():
                    total[key] = total.get(key, 0) + n
        assert all(total.values()), total
        assert total["source", "enter"] > total["source", "continue"] + total["source", "break"]

    @pytest.mark.parametrize("xp, xq, held, final", [
        (1.0, 1.0, "target", (0.0, 1.0)),  # P falls to its OFF rail under a held Q
        (1.0, 0.0, "source", (1.0, 1.0)),  # at a small R_G, Q rises to its ON rail under P
    ], ids=["target-held", "source-held"])
    def test_fixed_point_inside_a_held_step(self, default_params, xp, xq, held, final):
        # pulses of 3x the write time, so that the moving device reaches its rail
        params = default_params if held == "target" else default_params._replace(r_g=500.0)
        params = params._replace(pulse_width=3.0 * default_params.pulse_width,
                                 dt=default_params.pulse_width / 50.0)
        counts = {}
        got, rows = entry_rows(params, traced_pulse(counts, params, xp, xq))
        want, want_rows = reference_pulse(params, xp, xq)
        assert got == final == want and rows == want_rows
        assert 0 < counts["step"] < params.grid[0] and counts[held, "break"] == 1

    @pytest.mark.parametrize("xp, xq, held", [(1.0, 1.0, "target"), (1.0, 0.0, "source")])
    def test_default_cell_pulse_holds_its_device_on_every_step(self, default_params, xp, xq,
                                                               held):
        # the guard of the fast path: a held-rail branch that never runs fails here
        counts = {}
        final = traced_pulse(counts, default_params, xp, xq)[:2]
        assert final == reference_pulse(default_params, xp, xq)[0]
        steps = default_params.grid[0]
        assert counts[held, "enter"] == counts[held, "continue"] == counts["step"] == steps
        assert sum(counts.values()) == 3 * steps


class TestCalibration:
    def test_positive_finite(self, default_params):
        tw = default_params.pulse_width
        assert tw > 0 and math.isfinite(tw)

    def test_replay_switches_case1(self, default_params):
        tw = default_params.pulse_width
        _, q = integrate_imply(0.0, 0.0, tw, default_params)
        assert memristance(q, default_params) <= 1.01 * default_params.r_on

    def test_doubling_mobility_halves_write_time(self, default_params):
        fast = CircuitParams(mu_v=2 * DEFAULTS.mu_v)
        tw_fast = calibrate_write_time(fast)
        assert tw_fast == pytest.approx(default_params.pulse_width / 2, rel=0.01)

    def test_non_switching_drive_errors(self):
        weak = CircuitParams(v_set=1e-12, v_cond=5e-13)
        with pytest.raises(CalibrationError):
            calibrate_write_time(weak)

    @pytest.mark.parametrize("params, message", [
        (CircuitParams(v_set=1e-12, v_cond=5e-13),
         "case-1 drive does not switch the target (write time diverges)"),
        (CircuitParams(r_on=1e-300, r_off=1e-299, d=1e-161, mu_v=1.0),  # the probe's dt is 0.0
         "write-time probe of 9.881313e-323 s: dt must be positive"),
    ])
    def test_errors_are_the_full_bisections(self, params, message):
        with pytest.raises(CalibrationError) as err:
            calibrate_write_time(params)
        assert str(err.value) == message

    def test_bisection_that_never_narrows_raises(self, monkeypatch):
        # with no tolerance, a bracket of two adjacent doubles is never narrow enough, so
        # the bisection on the estimate and then the one on the probes run their 200
        # halvings out; a threshold stands in for the estimate and a threshold test for
        # the probes, so that no RK4 step runs
        threshold, probes, errors = 1.5 * DEFAULTS.drift_time, [], []
        bisect = analog._bisect_write_time

        def recording(params, switched):
            try:
                return bisect(params, switched)
            except CalibrationError as exc:
                errors.append(str(exc))
                raise

        monkeypatch.setattr(analog, "CALIBRATION_REL_TOL", 0.0)
        monkeypatch.setattr(analog, "_bisect_write_time", recording)
        monkeypatch.setattr(analog, "_estimate_write_time", lambda params, table: threshold)
        monkeypatch.setattr(analog, "_switched", lambda params, duration, table:
                            probes.append(duration) or duration >= threshold)
        monkeypatch.setattr(analog, "_pulse", lambda *args: pytest.fail("an RK4 step ran"))
        with pytest.raises(CalibrationError) as err:
            calibrate_write_time(DEFAULTS)
        assert str(err.value) == "write-time bisection did not converge"
        assert errors == ["write-time bisection did not converge"] * 2
        assert len(probes) == 202

    @pytest.mark.parametrize("r_off", [1.005e3, 1.01e3])
    def test_rails_within_one_percent_refused_before_any_probe(self, monkeypatch, r_off):
        # a target at R_OFF already counts as switched, so both bisections would walk hi to 0
        probes, switched = [], analog._switched
        monkeypatch.setattr(analog, "_switched", lambda *a: probes.append(a) or switched(*a))
        with pytest.raises(CalibrationError, match=r"^R_OFF = .* within 1% of R_ON.*pulse-width"):
            calibrate_write_time(CircuitParams(r_on=1e3, r_off=r_off))
        assert probes == []

    @pytest.mark.parametrize("off", [
        lambda lo, hi: lo,  # the bracket below, whose hi does not switch
        lambda lo, hi: hi + (hi - lo) / 2,  # the bracket above, whose lo switches
    ])
    def test_estimate_one_bracket_off_falls_back(self, monkeypatch, off):
        lo, hi = analog._bisect_write_time(DEFAULTS, lambda duration: analog._switched(
            DEFAULTS, duration, PulseTable()))
        monkeypatch.setattr(analog, "_estimate_write_time", lambda params, table: off(lo, hi))
        runs = recorded_bisections(monkeypatch)
        assert calibrate_write_time(DEFAULTS) == hi == reference_calibrate(DEFAULTS)
        assert len(runs) == 2 and runs[1] == (lo, hi)
        assert runs[0][1] == lo or runs[0][0] == hi  # the adjacent bracket

    def test_step_budget(self, monkeypatch):
        # at the defaults calibration integrates the estimate's 60 steps and 40 sub-steps
        # and the two 1000-step probes that confirm its bracket
        steps = counted_steps(monkeypatch)
        assert calibrate_write_time(DEFAULTS) == 0.6268750000000002
        assert sum(steps) <= 2100

    @pytest.mark.parametrize("params", [
        CircuitParams(r_off=10**2.7 * 1e3, r_g=1e5),  # the generator's widest rails, largest R_G
        CircuitParams(r_g=1e3, v_cond=0.9),  # its smallest R_G, largest V_cond/V_set
    ], ids=["wide-rails", "small-rg"])
    def test_estimate_step_budget(self, monkeypatch, params):
        # away from the defaults too the estimate integrates at most 100 steps, whatever
        # its step, and two probes confirm it
        steps = counted_steps(monkeypatch)
        assert calibrate_write_time(params) == reference_calibrate(params)
        assert steps.count(DEFAULT_STEPS_PER_PULSE) == 2
        assert sum(n for n in steps if n != DEFAULT_STEPS_PER_PULSE) <= 100

    @pytest.mark.parametrize("error", [AnalogError, ZeroDivisionError])
    def test_estimate_that_raises_falls_through(self, monkeypatch, error):
        def raising(params, table):
            raise error("no estimate")

        monkeypatch.setattr(analog, "_estimate_write_time", raising)
        runs = recorded_bisections(monkeypatch)
        assert calibrate_write_time(DEFAULTS) == reference_calibrate(DEFAULTS)
        assert len(runs) == 1  # the bisection on the probes alone

    def test_estimate_that_gives_up_falls_through(self, monkeypatch):
        # trajectories that never read as switched: the estimate raises, and the
        # probes' bisection gives the width
        estimate, errors, probes = analog._estimate_write_time, [], []

        def flat(params, xp, xq=None, volts=0.0):
            steps = params.grid[0]
            if steps == DEFAULT_STEPS_PER_PULSE:
                probes.append(steps)
                return _pulse(params, xp, xq, volts)
            return xp, xq, array("d", [xp]) * steps, array("d", [xq]) * steps

        def spying(params, table):
            try:
                return estimate(params, table)
            except CalibrationError as exc:
                errors.append(str(exc))
                raise

        monkeypatch.setattr(analog, "_pulse", flat)
        monkeypatch.setattr(analog, "_estimate_write_time", spying)
        assert calibrate_write_time(DEFAULTS) == reference_calibrate(DEFAULTS)
        assert errors == ["the estimate's 60 steps do not switch the target"]
        assert len(probes) == 16

    def test_underflowing_rate_is_the_full_bisections_error(self):
        # the target's initial rate underflows to 0.0, so the estimate divides by zero
        params = CircuitParams(v_set=1e-300, v_cond=5e-301, r_off=1e30)
        with pytest.raises(ZeroDivisionError):
            analog._estimate_write_time(params, PulseTable())
        with pytest.raises(CalibrationError, match=r"^case-1 drive does not switch the target"):
            calibrate_write_time(params)

    def test_same_width_with_and_without_a_table(self, monkeypatch):
        # the probes refuse the third set's estimate, so they run the bisection themselves
        params = [DEFAULTS, CircuitParams(mu_v=3e-14, d=7e-9, v_set=1.5, v_cond=0.8),
                  random_params(236)]
        runs, shared = recorded_bisections(monkeypatch), PulseTable()
        for p in params:
            runs.clear()
            alone = calibrate_write_time(p)
            assert len(runs) == (2 if p is params[2] else 1)
            for table in (PulseTable(), shared, shared):  # the second shared run only looks up
                assert calibrate_write_time(p, table).hex() == alone.hex()


class TestCaseDynamics:
    def test_case1_switches_to_on(self, default_params):
        _, q = integrate_imply(0.0, 0.0, default_params.pulse_width, default_params)
        assert memristance(q, default_params) <= 1.01 * default_params.r_on
        assert readout(q, default_params) == 1

    @pytest.mark.parametrize("case", [2, 4])
    def test_on_target_stays_on(self, default_params, case):
        xp0, xq0 = CASE_STATES[case]
        _, q = integrate_imply(xp0, xq0, default_params.pulse_width, default_params)
        assert memristance(q, default_params) <= 1.01 * default_params.r_on

    def test_case3_drifts_but_reads_zero(self, default_params):
        _, q = integrate_imply(1.0, 0.0, default_params.pulse_width, default_params)
        m = memristance(q, default_params)
        assert m < default_params.r_off  # state drift happened
        assert m > default_params.r_on
        assert readout(q, default_params) == 0


class TestExecuteAnalog:
    def test_unmapped_register(self, default_params):
        with pytest.raises(ExecutionError, match="unmapped"):
            execute_analog(NAND, default_params, {"Z": 1})

    @pytest.mark.parametrize("inputs, message", [
        ({"P": 1}, "missing input assignment for register 'Q'"),
        ({}, "missing input assignment for register 'P'"),
        ({"P": 1, "Q": 0, "S": 1}, "unmapped register 'S'"),
        ({"P": 1, "Q": 2}, "input 'Q' must be 0 or 1"),
    ])
    def test_same_input_contract_as_logical_machine(self, default_params, inputs, message):
        with pytest.raises(ExecutionError, match=message):
            execute_analog(NAND, default_params, inputs)
        with pytest.raises(ExecutionError, match=message):
            run_program(NAND, inputs)

    def test_trace_time_strictly_increasing(self, default_params):
        res = execute_analog(NAND, default_params, {"P": 1, "Q": 0})
        times = res.trace.times
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_trace_memristance_within_rails(self, default_params):
        res = execute_analog(NAND, default_params, {"P": 0, "Q": 1})
        _, _, cols = full_rows(res.trace, default_params)
        for reg in NAND.registers:
            for x in cols[reg]:
                m = memristance(x, default_params)
                assert default_params.r_on <= m <= default_params.r_off

    def test_single_imply_case3_records_drift(self, default_params):
        prog = parse_program(".regs P Q\n.in P Q\nIMPLY P Q\n")
        res = execute_analog(prog, default_params, {"P": 1, "Q": 0})
        assert res.readouts["Q"] == 0
        assert memristance(res.final_states["Q"], default_params) < default_params.r_off
        assert res.max_drift > 0.1

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
        # every row stores its time, every pulse the state columns of the one or two
        # devices it drives, and nothing for its node voltage or any other device
        coarse = default_params._replace(dt=default_params.pulse_width / 20)
        prog, _ = gen_adder_serial(2)
        trace = execute_analog(prog, coarse, {r: 1 for r in prog.inputs}).trace
        rows = len(trace.times)
        assert rows == 20 * (len(prog.inputs) + len(prog.body))
        driven_rows = 20 * (len(prog.inputs) + sum(
            2 if instr.op is Opcode.IMPLY else 1 for instr in prog.body))
        stored = len(trace.times) + sum(len(col) for pulse in trace.boundaries
                                        for col in pulse.driven.values())
        assert stored == rows + driven_rows
        for pulse in trace.boundaries:
            assert len(pulse) == 4 and pulse.driven.keys() <= set(prog.registers)

    def test_a_run_keeps_no_record_per_register_per_pulse(self, default_params):
        # a second all-ones adder64 run on a warm table keeps a Pulse, a label and a dict of
        # the table's columns per pulse, about 0.5 MB, where a register-file snapshot per
        # pulse kept about 15 MB
        prog, _ = gen_adder_serial(64)
        table, ones = PulseTable(), dict.fromkeys(prog.inputs, 1)
        execute_analog(prog, default_params, ones, table=table)
        tracemalloc.start()
        try:
            res = execute_analog(prog, default_params, ones, table=table)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.trace.boundaries) == len(prog.inputs) + len(prog.body)
        assert kept < 2_000_000


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
    xp, xq = _rk4(_imply_deriv(params), [p, q], duration, dt, observe)
    return xp, xq


def counted_steps(monkeypatch):
    """The step count of each pulse that ``analog`` integrates from now on, in order."""
    steps = []
    monkeypatch.setattr(analog, "_pulse", lambda params, *args:
                        steps.append(params.grid[0]) or _pulse(params, *args))
    return steps


def recorded_bisections(monkeypatch):
    """The (lo, hi) of each write-time bisection that runs from now on, in order."""
    bisect, runs = analog._bisect_write_time, []
    monkeypatch.setattr(analog, "_bisect_write_time",
                        lambda params, switched: runs.append(bisect(params, switched)) or runs[-1])
    return runs


def random_params(seed):
    """A parameter set drawn around the defaults: rails 10-500x apart, R_G 1-100 kohm."""
    rng = random.Random(seed)
    r_on, v_set = 10 ** rng.uniform(2.5, 3.7), rng.uniform(0.5, 2.0)
    return CircuitParams(r_on=r_on, r_off=r_on * 10 ** rng.uniform(1.0, 2.7),
                         r_g=10 ** rng.uniform(3, 5), v_set=v_set,
                         v_cond=v_set * rng.uniform(0.1, 0.9),
                         d=10 ** rng.uniform(-8.3, -7.7),
                         mu_v=10 ** rng.uniform(-14.3, -13.5))


def reference_calibrate(params, rel_tol=1e-3, max_duration=1e9):
    target = 1.01 * params.r_on
    probe = params._replace(pulse_width=None, dt=None)

    def switched(duration):
        local = probe._replace(dt=duration / 1000)
        _, q = reference_integrate_imply(0.0, 0.0, duration, local)
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
    xs = {r: 0.0 for r in prog.registers}
    times, node_v, cols, marks = [], [], {r: [] for r in prog.registers}, []
    t_base = 0.0

    def record(t_abs, v):
        times.append(t_abs)
        node_v.append(v)
        for r in prog.registers:
            cols[r].append(xs[r])

    def single_pulse(reg, volts):
        nonlocal t_base
        cur = _single_device_current(params, volts)

        def observe(t, s):
            i = cur(_clamp(s[0]))
            xs[reg] = s[0]
            record(t_base + t, i * params.r_g)

        gain = params.drift_gain
        _rk4(lambda s: [gain * cur(_clamp(s[0]))], [xs[reg]], tw, dt, observe)
        t_base += tw

    def imply_pulse(src, dst):
        nonlocal t_base

        def observe(t, s):
            xs[src], xs[dst] = s[0], s[1]
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


def marks_of(trace):
    """Each pulse's (first row, step, text), its first row the sum of the
    earlier pulses' block lengths."""
    rows = itertools.accumulate((len(next(iter(pulse.driven.values())))
                                 for pulse in trace.boundaries), initial=0)
    return [(row, *pulse[:2]) for row, pulse in zip(rows, trace.boundaries)]


def held_levels(trace):
    """Per pulse, the level of every register before it: 0.0, or the last
    row of the latest earlier pulse that drove it (a replayed register file)."""
    levels = dict.fromkeys(trace.registers, 0.0)
    for pulse in trace.boundaries:
        yield dict(levels)
        levels.update((r, x[-1]) for r, x in pulse.driven.items())


def full_rows(trace, params):
    """A trace's pulse records expanded to full width: (times, node_v as the export
    derives it under ``params``, a column per register with a sample on every row, a
    held device at its level in :func:`held_levels`)."""
    node_v, cols = [], {r: [] for r in trace.registers}
    rows = [row for row, _, _ in marks_of(trace)] + [len(trace.times)]
    for pulse, levels, a, b in zip(trace.boundaries, held_levels(trace), rows, rows[1:]):
        node_v += analog._node_volts(params, pulse).tolist()
        for r in trace.registers:
            cols[r] += pulse.driven[r] if r in pulse.driven else [levels[r]] * (b - a)
    return list(trace.times), node_v, cols


def signs(*columns):
    return [math.copysign(1.0, x) for col in columns for x in col]


def scalar_node(params, volts, xp, xq=None):
    """The kernel's node expression on one recorded state, a value at a time: FALSE/LOAD's
    current times R_G, or the IMPLY cell's general solution."""
    rp = params.r_on * xp + params.r_off * (1.0 - xp)
    if xq is None:
        return volts / (rp + params.r_g) * params.r_g
    rq = params.r_on * xq + params.r_off * (1.0 - xq)
    return (params.v_cond / rp + params.v_set / rq) / (1.0 / rp + 1.0 / rq + 1.0 / params.r_g)


GATE_CASES = [(name, levels) for name in GATES
              for levels in itertools.product((0, 1), repeat=len(gate_program(name).inputs))]


class TestKernelAgainstReference:
    """Exact (==) agreement of the scalar pulse kernel with the reference."""

    @pytest.fixture(scope="class")
    def coarse(self, default_params):
        return default_params._replace(dt=default_params.pulse_width / 50)

    @pytest.mark.parametrize("gate, levels", GATE_CASES)
    def test_every_gate_case_bit_identical(self, coarse, gate, levels):
        prog = gate_program(gate)
        inputs = dict(zip(prog.inputs, levels))
        res = execute_analog(prog, coarse, inputs)
        times, node_v, cols, marks, finals = reference_execute(prog, coarse, inputs)
        got_times, got_node_v, got_cols = full_rows(res.trace, coarse)
        assert got_times == times
        assert got_node_v == node_v
        assert got_cols == cols
        assert res.final_states == finals
        assert signs(got_times, got_node_v, *got_cols.values()) == \
            signs(times, node_v, *cols.values())
        assert len(res.trace.times) == 50 * (len(prog.inputs) + len(prog.body))
        assert marks_of(res.trace) == marks
        assert res.trace.to_csv(coarse) == reference_to_csv(prog.registers, times, node_v, cols,
                                                            marks, coarse)

    def test_logical_levels_and_drift_rows(self, coarse):
        res = execute_analog(XOR9, coarse, {"A": 1, "B": 0})
        _, _, cols, marks, finals = reference_execute(XOR9, coarse, {"A": 1, "B": 0})
        logical, steps = {"A": 1, "B": 0, "M0": 0, "M1": 0}, 0

        def apply(levels, instr):  # a logical reference apart from the engine's
            if instr.op is Opcode.IMPLY:
                p, q = levels[instr.source], levels[instr.target]
                return {**levels, instr.target: int(not p or q)}
            return {**levels, instr.target: instr.value or 0}

        rows = reference_drift_rows(XOR9, {"A": 1, "B": 0}, cols, marks)
        body = res.trace.boundaries[len(XOR9.inputs):]
        assert len(body) == len(rows) == len(XOR9.body)
        for pulse, (step, text, drifts), instr in zip(body, rows, XOR9.body):
            logical = apply(logical, instr)
            steps += instr.is_step
            assert (pulse.step, pulse.text) == (step, text) == (steps, str(instr))
            assert set(drifts) == set(XOR9.registers)
        assert drifts == {r: abs(finals[r] - logical[r]) for r in XOR9.registers}
        assert res.max_drift == max(max(d.values()) for *_, d in rows) > 0.1
        assert [(b.step, b.text) for b in res.trace.boundaries[:3]] == [
            (0, "input A=1"), (0, "input B=0"), (1, "FALSE M0")]

    @pytest.mark.parametrize("case", sorted(CASE_STATES))
    def test_integrate_imply_default_dt(self, default_params, case):
        xp, xq = CASE_STATES[case]
        tw = default_params.pulse_width
        got = integrate_imply(xp, xq, tw, default_params)
        assert got == reference_integrate_imply(xp, xq, tw,
                                                default_params)

    @pytest.mark.parametrize("params", [
        CircuitParams(),
        CircuitParams(r_on=2e3, r_off=500e3, r_g=30e3, v_cond=0.3, v_set=1.2),
        CircuitParams(mu_v=3e-14, d=7e-9, v_set=1.5, v_cond=0.8),
    ])
    def test_calibrated_write_time_identical(self, params):
        assert calibrate_write_time(params) == reference_calibrate(params)

    @pytest.mark.parametrize("seed", range(20))
    def test_calibrated_write_time_random_params(self, seed):
        params = random_params(seed)
        assert calibrate_write_time(params) == reference_calibrate(params)

    def test_calibrated_write_time_after_fallback(self, monkeypatch):
        # the probes refuse this set's estimate: its 1000-step switching time lies
        # 3.5e-7 s above its bracket's lo, the estimate 8.5e-6 s below
        params, runs = random_params(236), recorded_bisections(monkeypatch)
        assert calibrate_write_time(params) == reference_calibrate(params)
        assert len(runs) == 2 and runs[0] != runs[1]

    def test_default_write_time_pinned(self, default_params):
        assert default_params.pulse_width == 0.6268750000000002

    def test_loop_constants_are_floats(self):
        # an int literal in the kernel's float arithmetic costs a mixed-type dispatch per use
        tree = ast.parse(textwrap.dedent(inspect.getsource(_pulse)))
        loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
        numbers = [node.value for loop in loops for stmt in loop.body + loop.orelse
                   for node in ast.walk(stmt)
                   if isinstance(node, ast.Constant) and isinstance(node.value, (int, float))]
        assert len(loops) == 2 and numbers  # the single-device and the IMPLY step loop
        assert [type(x) for x in numbers] == [float] * len(numbers)

    def test_csv_keeps_signed_zero_apart(self):
        # both signs of zero in a driven column, in a held level (Q's -0.0 left by its
        # own pulse, then P's) and in the node voltage, derived from drives of -0.0 and 0.0
        times = [1e-3, 2e-3, 3e-3, 4e-3, 5e-3]
        cols = {"P": [0.0, 0.0, -0.0, -0.0, -0.0], "Q": [-0.0, -0.0, -0.0, 0.25, 0.25]}
        marks = [(0, 0, "input Q=0"), (1, 0, "input P=0"), (3, 1, "FALSE Q")]
        drives = [(DEFAULTS.v_clear, "Q", 0, 1), (-0.0, "P", 1, 3), (0.0, "Q", 3, 5)]
        node_v = [scalar_node(DEFAULTS, volts, cols[r][i]) for volts, r, a, b in drives
                  for i in range(a, b)]
        assert signs(node_v) == [-1.0, -1.0, -1.0, 1.0, 1.0] and node_v[1:] == [0.0] * 4
        trace = AnalogTrace(registers=("P", "Q"), times=array("d", times), boundaries=[
            Pulse(0, "input Q=0", DEFAULTS.v_clear, {"Q": array("d", [-0.0])}),
            Pulse(0, "input P=0", -0.0, {"P": array("d", [0.0, -0.0])}),
            Pulse(1, "FALSE Q", 0.0, {"Q": array("d", [0.25, 0.25])})],
            table=PulseTable())
        rows = full_rows(trace, DEFAULTS)
        assert rows == (times, node_v, cols)
        assert signs(rows[1], *rows[2].values()) == signs(node_v, *cols.values())
        csv = trace.to_csv(DEFAULTS)
        assert csv == reference_to_csv(("P", "Q"), times, node_v, cols, marks, DEFAULTS)
        lines = csv.splitlines()
        assert [line.split(",")[2:6] for line in lines[4:6]] == [
            ["0.000000000e+00", "1.000000000e+05", "-0.000000000e+00", "1.000000000e+05"],
            ["-0.000000000e+00", "1.000000000e+05", "-0.000000000e+00", "1.000000000e+05"]]
        assert [line.split(",")[1] for line in (lines[5], lines[7])] == [
            "-0.000000000e+00", "0.000000000e+00"]
        assert [line.split(",")[2] for line in lines[7:9]] == ["-0.000000000e+00"] * 2


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
        assert marks_of(res.trace) == marks
        assert full_rows(res.trace, default_params) == (times, node_v, cols)
        for (row, _, _), pulse, levels in zip(marks, res.trace.boundaries,
                                              held_levels(res.trace)):
            assert len(pulse.driven) == (2 if pulse.text.startswith("IMPLY") else 1)
            assert levels == {r: cols[r][row - 1] if row else 0.0 for r in XOR9.registers}


def one_pulse_trace(values):
    """A one-pulse FALSE trace whose time and driven columns are ``values``."""
    column = array("d", values)
    return AnalogTrace(registers=("P",), times=column, table=PulseTable(),
                       boundaries=[Pulse(0, "FALSE P", DEFAULTS.v_clear, {"P": column})])


def alternating_trace(values, starts):
    """Pulse k, a V_clear drive, drives P (k even) or Q (k odd) over rows ``starts[k]``
    up to the next start, its time and driven column both ``values``; the other device
    holds its previous row's level, 0.0 on row 0.  The trace, its node column, each
    register's full column and the marks."""
    ends = starts[1:] + [len(values)]
    pulses, cols = [], {"P": [], "Q": []}
    for k, (a, b) in enumerate(zip(starts, ends)):
        driven, held = ("P", "Q") if k % 2 == 0 else ("Q", "P")
        pulses.append(Pulse(k, f"pulse {k}", DEFAULTS.v_clear, {driven: array("d", values[a:b])}))
        cols[held] += [cols[held][-1] if a else 0.0] * (b - a)
        cols[driven] += values[a:b]
    marks = [(a, k, f"pulse {k}") for k, a in enumerate(starts)]
    node_v = [scalar_node(DEFAULTS, DEFAULTS.v_clear, v) for v in values]
    return AnalogTrace(registers=("P", "Q"), times=array("d", values), boundaries=pulses,
                       table=PulseTable()), node_v, cols, marks


def expected_row(v, params=DEFAULTS):
    """The CSV row of a :func:`one_pulse_trace` row of ``v``."""
    ohm = params.r_on * v + params.r_off * (1.0 - v)
    with np.errstate(all="ignore"):  # in doubles, as the export: a zero divisor gives inf
        node = float(scalar_node(params, np.float64(params.v_clear), np.float64(v)))
    return ",".join("%.9e" % f for f in (v, node, v, ohm))


def assert_percent_e(values):
    """``_format_e9`` gives each value's ``b"%.9e" %`` text: the same
    lengths, and the same bytes once the NUL pad is dropped."""
    fields, lengths = _format_e9(np.asarray(values, dtype=float))
    want = [b"%.9e" % x for x in np.asarray(values, dtype=float).tolist()]
    assert lengths.tolist() == [len(text) for text in want]
    assert fields.tobytes().translate(None, b"\0") == b"".join(want)


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

    def test_step_multiples_over_200_pulses(self, default_params):
        # the times of 200 pulses at the calibrated step, many of them within 1e-4 of a tie
        assert_percent_e(PulseTable().clock(default_params, 200))

    def test_exact_ties_and_their_neighbours(self):
        # (m + 0.5) * 10^j for ten-digit m: exact ties at j = 0 and wherever the product is
        # exact, near ties elsewhere, and each one ulp away on both sides
        rng = random.Random(18)
        ties = np.array([(m + 0.5) * 10**j if j >= 0 else (m + 0.5) / 10**-j
                         for m in (rng.randrange(10**9, 10**10) for _ in range(100))
                         for j in range(-22, 13)])
        values = np.concatenate([ties, np.nextafter(ties, math.inf), np.nextafter(ties, 0.0)])
        assert_percent_e(np.concatenate([values, -values]))

    def test_finite_values_without_ties_take_the_fast_path(self, monkeypatch):
        # seeded values over the tables' exponents, none of them a tie at the tenth digit:
        # np.flatnonzero picks the ones formatted by "%" one by one, and it picks none
        rng = np.random.default_rng(26)
        n = 20_000
        v = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-12, 31, n) * rng.choice([-1, 1], n)
        v[::97] = 0.0
        slow, flatnonzero = [], np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero",
                            lambda a: slow.append(int(np.count_nonzero(a))) or flatnonzero(a))
        assert_percent_e(v)
        assert slow == [0]

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_stacked_columns_field_by_field(self, k):
        # slabs formats (n, k) stacks: every field of every column, at its own place, is the
        # "%.9e" text right-aligned in _FIELD NUL-padded bytes
        rng = np.random.default_rng(27 + k)
        specials = np.array([0.0, -0.0, 5e-324, 2.5e-310, 1e-100, 1.5e200, 1.7976931348623157e308,
                             1234567890.5, 12345678905.0, 2.0**-15, 3 * 2.0**-15,
                             math.inf, -math.inf, math.nan, -math.nan])
        n = 600
        v = rng.choice(specials, (n, k))
        common = rng.random((n, k)) < 0.6  # most values take the vectorized path
        v[common] = rng.uniform(1.0, 10.0, common.sum()) * 10.0 ** rng.integers(-30, 30,
                                                                                common.sum())
        v *= rng.choice([-1.0, 1.0], (n, k))
        out, lengths = _format_e9(v)
        texts = [b"%.9e" % x for x in v.ravel().tolist()]
        assert out.shape == (n, k, analog._FIELD) and lengths.shape == (n, k)
        assert lengths.ravel().tolist() == [len(text) for text in texts]
        assert out.tobytes() == b"".join(text.rjust(analog._FIELD, b"\0") for text in texts)
        for column in v.T:  # each holds signs, zeros, subnormals, 3-digit exponents, ties, inf, nan
            a = np.abs(column)
            assert (column < 0).any() and (column > 0).any() and (a == 0).any()
            assert (a > 0).any() and (a < 2.2250738585072014e-308).any() and (a >= 1e100).any()
            assert np.isin(a, specials[7:11]).any() and np.isinf(a).any() and np.isnan(a).any()

    def test_coarse_adder2_matches_reference(self, default_params):
        coarse = default_params._replace(dt=default_params.pulse_width / 20)
        prog, _ = gen_adder_serial(2)
        inputs = {r: i % 2 for i, r in enumerate(prog.inputs)}
        csv = execute_analog(prog, coarse, inputs).trace.to_csv(coarse)
        times, node_v, cols, marks, _ = reference_execute(prog, coarse, inputs)
        assert csv == reference_to_csv(prog.registers, times, node_v, cols, marks, coarse)
        assert csv.count("\n# step ") == len(prog.inputs) + len(prog.body)

    def test_writes_each_block_to_the_file(self, default_params):
        # to a file: the header, then per pulse its "# step" line and its block, one write each
        coarse = default_params._replace(dt=default_params.pulse_width / 20)
        trace = execute_analog(NAND, coarse, {"P": 1, "Q": 0}).trace
        writes = []

        class Recorder:
            def write(self, b):  # a copy: to_csv reuses its buffer once write returns
                writes.append(bytes(b))

        assert trace.to_csv(coarse, Recorder()) is None
        assert b"".join(writes) == trace.to_csv(coarse).encode()
        assert len(writes) == 1 + 2 * len(trace.boundaries)
        for pulse, comment, block in zip(trace.boundaries, writes[1::2], writes[2::2]):
            assert comment == f"# step {pulse.step}: {pulse.text}\n".encode()
            assert block.count(b"\n") == len(next(iter(pulse.driven.values()))) == 20

    def test_buffer_grows_for_a_wider_block(self, default_params, tmp_path, monkeypatch):
        # the input write's node voltage is positive; FALSE's is negative, one byte wider
        coarse = default_params._replace(dt=default_params.pulse_width / 20)
        prog = parse_program(".regs P\n.in P\nFALSE P\n")
        trace = execute_analog(prog, coarse, {"P": 1}).trace
        sizes, csv_block = [], AnalogTrace._csv_block
        monkeypatch.setattr(AnalogTrace, "_csv_block", lambda self, *args: sizes.append(
            args[-1].size) or csv_block(self, *args))
        with open(tmp_path / "t.csv", "wb") as fh:
            trace.to_csv(coarse, fh)
        assert sizes == [0, 20 * 64]  # then 20 rows of 65 bytes
        times, node_v, cols, marks, _ = reference_execute(prog, coarse, {"P": 1})
        assert (tmp_path / "t.csv").read_bytes() == reference_to_csv(
            prog.registers, times, node_v, cols, marks, coarse).encode()

    def test_padded_block_between_reused_buffers(self, tmp_path, monkeypatch):
        # the P pulses hold Q at 0, 1/8 and 2/8, left by the one-row Q pulses between
        # them; the middle P pulse's columns mix a sign and none, so its block is padded;
        # all five blocks are formatted in the first one's buffer
        values = [-0.25, -0.5, 0.125, -0.5, 0.125, 0.25, 0.75, 1.0]
        trace, node_v, cols, marks = alternating_trace(values, [0, 2, 3, 5, 6])
        assert cols["Q"] == [0.0, 0.0, 0.125, 0.125, 0.125, 0.25, 0.25, 0.25]
        calls, csv_block = [], AnalogTrace._csv_block

        def recording(self, *args):
            buf, block = csv_block(self, *args)
            calls.append((args[-1].size, buf.size, type(block)))
            return buf, block

        monkeypatch.setattr(AnalogTrace, "_csv_block", recording)
        with open(tmp_path / "t.csv", "wb") as fh:
            trace.to_csv(DEFAULTS, fh)
        assert calls == [(0, 198, np.ndarray), (198, 198, np.ndarray), (198, 198, bytes),
                         (198, 198, np.ndarray), (198, 198, np.ndarray)]
        assert (tmp_path / "t.csv").read_bytes() == reference_to_csv(
            ("P", "Q"), values, node_v, cols, marks, DEFAULTS).encode()

    def test_empty_trace_is_the_header(self):
        assert AnalogTrace(registers=("P", "Q"), times=array("d"), boundaries=[],
                           table=PulseTable()).to_csv(DEFAULTS) == \
            "time_s,node_v,P_x,P_ohm,Q_x,Q_ohm\n"

    @pytest.mark.parametrize("starts", [[0], [0, 2], [0, 1, 3]],
                             ids=["row-0", "two-pulses", "three-pulses"])
    def test_boundaries(self, starts):
        # pulses drive P and Q in turn, each holding the other at the level the
        # pulse before it left
        values = [0.25, 0.5, 0.5, 0.75]
        trace, node_v, cols, marks = alternating_trace(values, starts)
        assert marks_of(trace) == marks
        csv = trace.to_csv(DEFAULTS)
        assert csv == reference_to_csv(("P", "Q"), values, node_v, cols, marks, DEFAULTS)
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
    each body pulse, read off the last row of the reference engine's pulse;
    the logical levels start from ``inputs`` and take each instruction's
    target level from ``run_program``'s trace."""
    ends = [row for row, _, _ in marks[1:]] + [len(next(iter(cols.values())))]
    levels, rows = {**dict.fromkeys(prog.registers, 0), **inputs}, []
    body = zip(marks[len(prog.inputs):], ends[len(prog.inputs):], prog.body,
               run_program(prog, inputs).trace)
    for (_, step, text), end, instr, level in body:
        levels[instr.target] = level
        rows.append((step, text, {r: abs(cols[r][end - 1] - levels[r]) for r in prog.registers}))
    return rows


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
        return params._replace(dt=params.pulse_width / per_pulse)

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
                rows = full_rows(res.trace, coarse)
                assert rows == (times, node_v, cols)
                assert signs(rows[0], rows[1], *rows[2].values()) == \
                    signs(times, node_v, *cols.values())
                assert marks_of(res.trace) == marks
                assert res.final_states == finals
                assert res.max_drift == max(
                    (max(d.values()) for *_, d in reference_drift_rows(prog, inputs, cols, marks)),
                    default=0.0)
                assert res.trace.to_csv(coarse) == reference_to_csv(
                    prog.registers, times, node_v, cols, marks, coarse)
            assert got.readouts == fresh.readouts
            assert got.max_drift == fresh.max_drift

    @pytest.mark.parametrize("seed", range(6))
    def test_clock_is_the_numpy_cumsum_bit_for_bit(self, seed):
        rng = random.Random(seed)
        width = 10.0 ** rng.uniform(-9, 3)
        params = CircuitParams(pulse_width=width, dt=width / rng.uniform(1, 2000))
        steps, h = params.grid
        for pulses in (0, 1, 201, rng.randint(2, 200)):
            want = np.empty((pulses, steps))  # as the clock was built with numpy
            t0 = np.r_[0.0, np.full(pulses, params.pulse_width).cumsum()][:pulses, None]
            np.add(t0, np.full(steps, h).cumsum(), out=want)
            assert PulseTable().clock(params, pulses).tobytes() == want.tobytes()

    def test_clock_builds_no_list_of_every_time(self, default_params):
        # 4 600 pulses, about one adder200 case: a list of every time took 178 MB
        tracemalloc.start()
        try:
            times = PulseTable().clock(default_params, 4600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(times) == 4600 * DEFAULT_STEPS_PER_PULSE
        assert peak < 1.5 * len(times) * times.itemsize

    def test_gate_tables_integrate_81_of_242_pulses(self, default_params):
        pulses, integrated = 0, 0
        for name in GATES:
            prog, table = gate_program(name), PulseTable()
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
        assert first_a.volts == first_b.volts == default_params.v_clear

    def test_one_table_per_command(self, tmp_path, capsys, monkeypatch):
        # simulate calibrates on its own table: a second identical command
        # integrates every pulse again, so no table outlives a command
        path = tmp_path / "xor9.imply"
        cli.main(["compile", "--gate", "xor9", "-o", str(path)])
        integrated = []

        def counting(params, xp, xq=None, volts=0.0):
            integrated[-1] += 1
            return _pulse(params, xp, xq, volts)

        monkeypatch.setattr(analog, "_pulse", counting)
        for _ in range(2):
            integrated.append(0)
            assert cli.main(["simulate", str(path)]) == 0
        assert integrated[0] == integrated[1] > 0
        table = PulseTable()
        params = CircuitParams().resolved(table)  # the calibration probes are entries too
        for levels in itertools.product((0, 1), repeat=2):
            execute_analog(XOR9, params, dict(zip(XOR9.inputs, levels)), table=table)
        assert integrated[0] == len(table.entries)
        capsys.readouterr()

    def test_calibration_and_cases_share_entries(self, tmp_path, capsys, monkeypatch):
        # the probe that confirms the width is the case-1 IMPLY pulse of the resolved
        # parameters, (0.0, 0.0) after FALSE S, so the command integrates it once
        integrated, tables = [], []
        monkeypatch.setattr(analog, "_pulse", lambda *a: integrated.append(a) or _pulse(*a))
        monkeypatch.setattr(analog, "PulseTable", lambda: tables.append(PulseTable()) or tables[-1])
        assert cli.main(["simulate", compile_gate(tmp_path, "nand")]) == 0
        count = len(integrated)
        assert len(tables) == 1 and count == len(tables[0].entries)
        probes, cases = PulseTable(), PulseTable()  # calibrating on a table of its own
        params = CircuitParams().resolved(probes)
        for levels in itertools.product((0, 1), repeat=2):
            execute_analog(NAND, params, dict(zip(NAND.inputs, levels)), table=cases)
        assert len(probes.entries) + len(cases.entries) == count + 1
        assert set(probes.entries) & set(cases.entries) == {
            (params, struct.pack("<?dd", True, 0.0, 0.0))}
        capsys.readouterr()

    def test_signed_zero_start_states_are_apart(self, default_params):
        table = PulseTable()
        starts = [(0.0, None), (-0.0, None), (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)]
        for xp, xq in starts:
            entry = table.pulse(default_params, xp, xq, default_params.v_clear)
            fresh = _pulse(default_params, xp, xq, default_params.v_clear)
            assert entry[:2] == fresh[:2] and signs(entry[:1]) == signs(fresh[:1])
            assert [col.tobytes() for col in entry[2:]] == [col.tobytes() for col in fresh[2:]]
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
        coarse = default_params._replace(dt=default_params.pulse_width / 10)
        shared, fresh = PulseTable(), {}
        for params in (default_params, coarse, default_params):  # the third pass only looks up
            fresh[params] = PulseTable()
            for levels in itertools.product((0, 1), repeat=2):
                inputs = dict(zip(NAND.inputs, levels))
                got = execute_analog(NAND, params, inputs, table=shared)
                want = execute_analog(NAND, params, inputs, table=fresh[params])
                assert full_rows(got.trace, params) == full_rows(want.trace, params)
                assert got.trace.to_csv(params) == want.trace.to_csv(params)
                assert got.final_states == want.final_states
            assert {key: entry for key, entry in shared.entries.items()
                    if key[0] == params} == fresh[params].entries
        assert len(shared.entries) == sum(len(table.entries) for table in fresh.values())
        starts = [{key[1] for key in table.entries} for table in fresh.values()]
        assert starts[0] & starts[1]  # the input pulses start alike under both sets

    def test_equal_parameter_objects_share_an_entry(self, default_params):
        # an equal object built apart hashes alike and finds the same entry, and a
        # _replace() copy hashes as its fields do
        twin = CircuitParams(**default_params._asdict())
        assert twin is not default_params and twin == default_params
        assert hash(twin) == hash(default_params)
        table = PulseTable()
        entry = table.pulse(default_params, 0.0, 0.0, 0.0)
        assert table.pulse(twin, 0.0, 0.0, 0.0) is entry and len(table.entries) == 1
        coarse = default_params._replace(dt=default_params.pulse_width / 10)
        assert hash(coarse) == hash(tuple(getattr(coarse, name) for name in coarse._fields))
        assert hash(coarse) != hash(default_params) and hash(coarse._replace()) == hash(coarse)
        assert table.pulse(coarse, 0.0, 0.0, 0.0) is not entry and len(table.entries) == 2

        class Spy(CircuitParams):  # records every attribute read
            def __getattribute__(self, name):
                reads.append(name)
                return super().__getattribute__(name)

        reads: list[str] = []
        spy = Spy(**coarse._asdict())
        assert hash(spy) == hash(coarse)
        reads.clear()
        assert hash(spy) == hash(coarse)
        assert not set(coarse._fields) & set(reads)  # a later hash reads no field

    def test_calibrates_in_the_given_table(self):
        # unresolved parameters are calibrated on the run's table, which then holds
        # the probes beside the case's pulses, as it would after resolving on it first
        table, resolved = PulseTable(), PulseTable()
        got = execute_analog(NAND, CircuitParams(), {"P": 1, "Q": 1}, table=table)
        params = CircuitParams().resolved(resolved)
        probes = set(resolved.entries)
        want = execute_analog(NAND, params, {"P": 1, "Q": 1}, table=resolved)
        assert probes < set(table.entries) == set(resolved.entries)
        assert len(table.entries) == 8
        assert (got.readouts, got.final_states, got.max_drift) == \
            (want.readouts, want.final_states, want.max_drift)
        assert got.trace.to_csv(params) == want.trace.to_csv(params)

    def test_unresolved_parameters_refused(self):
        table = PulseTable()
        with pytest.raises(AnalogError, match="resolved parameters"):
            table.pulse(CircuitParams(), 0.0, None, 1.0)
        assert table.entries == {}


def compile_gate(tmp_path, gate):
    path = tmp_path / f"{gate}.imply"
    assert cli.main(["compile", "--gate", gate, "-o", str(path)]) == 0
    return str(path)


#: the parameter sets of ``simulate``, its defaults, ``--vcond 0.9``, ``--rg 1000
#: --vcond 0.3`` and ``--ron 500 --roff 50e3``, at which the node column is derived
NODE_PARAMS = {"defaults": {}, "vcond-0.9": {"v_cond": 0.9},
               "rg-1000-vcond-0.3": {"r_g": 1000.0, "v_cond": 0.3},
               "ron-500-roff-50e3": {"r_on": 500.0, "r_off": 50e3}}

#: (xp, xq, drive) of each pulse: IMPLY from states whose steps hold the source, hold
#: the target or are general; FALSE/LOAD at V_clear and V_set; signed-zero starts; and
#: pulses that reach a fixed point early, FALSE of an OFF device and IMPLY from (0, 1)
NODE_PULSES = [(1.0, 0.0, None), (1.0, 1.0, None), (0.0, 0.0, None), (0.3, 0.6, None),
               (0.0, 1.0, None), (-0.0, 0.0, None), (0.0, -0.0, None), (-0.0, 1.0, None),
               (1.0, None, "v_clear"), (0.0, None, "v_set"), (0.0, None, "v_clear"),
               (-0.0, None, "v_clear"), (-0.0, None, "v_set"), (0.5, None, "v_set")]


class TestNodeColumn:
    """A pulse's table entry holds its driven devices' states alone.  The CSV export
    derives the node voltage from them, bit for bit the node the kernel solved, and
    only when it writes a CSV."""

    @pytest.mark.parametrize("name", NODE_PARAMS)
    def test_derived_node_is_the_kernels(self, name):
        params = CircuitParams(**NODE_PARAMS[name]).resolved()
        steps, table, total = params.grid[0], PulseTable(), {}
        r1 = params.r_on * 1.0 + params.r_off * (1.0 - 1.0)  # the held-rail constants
        inv_r1, vc_r1, vs_r1, inv_rg = 1.0 / r1, params.v_cond / r1, params.v_set / r1, \
            1.0 / params.r_g
        for xp, xq, drive in NODE_PULSES:
            volts, counts, solved = getattr(params, drive) if drive else 0.0, {}, []
            entry = traced_pulse(counts, params, xp, xq, volts, lambda f: solved.append(
                f["i"] * params.r_g if xq is None else f["node"]))
            assert table.pulse(params, xp, xq, volts) == entry
            cols = entry[2:]  # one steps-long array per driven device, and nothing else
            assert len(cols) == (1 if xq is None else 2)
            assert all(type(c) is array and c.typecode == "d" and len(c) == steps for c in cols)
            derived = analog._node_volts(params, Pulse(
                0, "", volts if xq is None else None, dict(zip("PQ", cols))))
            rows = list(zip(*cols))
            want = array("d", [scalar_node(params, volts, *row) for row in rows])
            assert derived.tobytes() == want.tobytes(), (xp, xq, drive)
            # the node the kernel solved after each step it took, the last standing after
            taken = counts["step"]
            assert array("d", solved).tobytes() == want[:taken].tobytes()
            tail = want[max(taken - 1, 0):]
            assert tail.tobytes() == tail[:1].tobytes() * len(tail)
            for (p, *q), node in zip(rows, want):  # the held-rail forms where a device is at 1.0
                if q and 1.0 in (p, q[0]):
                    rp, rq = (r1 if x == 1.0 else params.r_on * x + params.r_off * (1.0 - x)
                              for x in (p, q[0]))
                    held = ((vc_r1 + params.v_set / rq) / (inv_r1 + 1.0 / rq + inv_rg)
                            if p == 1.0 else
                            (params.v_cond / rp + vs_r1) / (1.0 / rp + inv_r1 + inv_rg))
                    assert struct.pack("<d", held) == struct.pack("<d", node)
            for key, n in counts.items():
                total[key] = total.get(key, 0) + n
            total["early"] = total.get("early", 0) + (taken < steps)
        # the pulses take source-held, target-held and general steps, and stop early
        assert total["source", "continue"] and total["target", "continue"]
        assert total["step"] > total["source", "continue"] + total["target", "continue"]
        assert total["early"] >= 3

    def test_simulate_without_csv_derives_no_node(self, tmp_path, capsys, monkeypatch):
        nand = compile_gate(tmp_path, "nand")
        capsys.readouterr()
        monkeypatch.setattr(analog, "_node_volts", lambda *args: pytest.fail("node derived"))
        assert cli.main(["simulate", nand]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "write_time_s=6.268750e-01", "[00] S=1 max_drift=0.2143",
            "[01] S=1 max_drift=0.7008", "[10] S=1 max_drift=0.4292",
            "[11] S=1 max_drift=1.0000"]

    def test_csv_derives_each_distinct_pulse_once(self, tmp_path, capsys, monkeypatch):
        derived, node_volts = [], analog._node_volts
        monkeypatch.setattr(analog, "_node_volts", lambda params, pulse: derived.append(
            id(next(iter(pulse.driven.values())))) or node_volts(params, pulse))
        nand = compile_gate(tmp_path, "nand")
        assert cli.main(["simulate", nand, "--csv", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        params, table = CircuitParams().resolved(), PulseTable()
        pulses = [pulse for bits in itertools.product((0, 1), repeat=2)
                  for pulse in execute_analog(gate_program("nand"), params, dict(
                      zip(NAND.inputs, bits)), table=table).trace.boundaries]
        distinct = {id(next(iter(pulse.driven.values()))) for pulse in pulses}
        assert len(derived) == len(set(derived)) == len(distinct) < len(pulses)


class TestCsvMemo:
    """A table memoizes the formatted columns its traces share, and the
    CSVs are the same bytes as without it."""

    def test_simulate_csvs_as_with_fresh_tables_and_in_reverse(self, default_params, tmp_path):
        for name in GATES:
            prog = gate_program(name)
            assert cli.main(["simulate", compile_gate(tmp_path, name),
                             "--csv", str(tmp_path / "t.csv")]) == 0
            levels = list(itertools.product((0, 1), repeat=len(prog.inputs)))
            cases = [dict(zip(prog.inputs, bits)) for bits in levels]
            files = [(tmp_path / f"t_{''.join(map(str, bits))}.csv").read_text()
                     for bits in levels]
            fresh = [execute_analog(prog, default_params, inputs).trace.to_csv(default_params)
                     for inputs in cases]
            table = PulseTable()
            traces = [execute_analog(prog, default_params, inputs, table=table).trace
                      for inputs in cases]
            backwards = [trace.to_csv(default_params) for trace in reversed(traces)][::-1]
            assert files == fresh == backwards

    def test_one_trace_under_two_parameter_sets(self, default_params):
        coarse = default_params._replace(dt=default_params.pulse_width / 20)
        other = coarse._replace(r_on=2e3, r_off=500e3)  # other ohm values from the same x
        table = PulseTable()
        traces = [execute_analog(NAND, coarse, dict(zip(NAND.inputs, bits)), table=table).trace
                  for bits in itertools.product((0, 1), repeat=2)]
        trace, marks = traces[0], marks_of(traces[0])
        for params in (coarse, other, coarse):
            assert trace.to_csv(params) == reference_to_csv(
                NAND.registers, *full_rows(trace, params), marks, params)
        assert {coarse, other} <= {key[1] for key in table.texts}

    def test_trace_written_twice_formats_nothing_more(self, default_params, monkeypatch):
        sizes, format_e9 = [], analog._format_e9
        monkeypatch.setattr(analog, "_format_e9", lambda v: sizes.append(v.size) or format_e9(v))
        formatted = []
        for twice in (False, True):  # of a two-case table, trace 0 once or twice, then trace 1
            table = PulseTable()
            first, second = (execute_analog(NAND, default_params, dict(zip(NAND.inputs, bits)),
                                            table=table).trace for bits in ((0, 0), (0, 1)))
            sizes.clear()
            text = first.to_csv(default_params)
            if twice:
                assert first.to_csv(default_params) == text
            second.to_csv(default_params)
            formatted.append(sum(sizes))
        assert formatted[1] == formatted[0]

    def test_each_distinct_column_formatted_once(self, tmp_path, monkeypatch):
        # 62 time blocks, 81 node-voltage, 136 x and 136 ohm columns of 1000 values
        # each, against 1204 columns formatted one pulse of one case at a time
        sizes, format_e9 = [], analog._format_e9
        monkeypatch.setattr(analog, "_format_e9", lambda v: sizes.append(v.size) or format_e9(v))
        for name in GATES:
            assert cli.main(["simulate", compile_gate(tmp_path, name),
                             "--csv", str(tmp_path / "t.csv")]) == 0
        assert sum(sizes) == 415_000

    def test_time_text_kept_only_for_a_later_trace(self, tmp_path, monkeypatch):
        held, tables, csv_block = [], [], AnalogTrace._csv_block

        def counting(self, *args):  # the time blocks in the memo after each block
            text = csv_block(self, *args)
            held.append(sum(isinstance(key[1], int) for key in self.table.texts))
            return text

        monkeypatch.setattr(AnalogTrace, "_csv_block", counting)
        monkeypatch.setattr(analog, "PulseTable", lambda: tables.append(PulseTable()) or tables[-1])
        nand = compile_gate(tmp_path, "nand")
        assert cli.main(["simulate", nand, "--set", "P=1", "--set", "Q=1",
                         "--csv", str(tmp_path / "one.csv")]) == 0
        assert held == [0] * 5
        held.clear()
        assert cli.main(["simulate", nand, "--csv", str(tmp_path / "t.csv")]) == 0
        assert held == [1, 2, 3, 4, 5] + [5] * 15
