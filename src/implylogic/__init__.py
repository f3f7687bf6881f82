"""Memristor IMPLY-logic toolchain.

Compile boolean gates and serial full adders into FALSE/IMPLY microcode,
execute it on an ideal logical machine or a linear-ion-drift device
model, and verify programs exhaustively against boolean oracles.
"""

__version__ = "0.1.0"

from .core import (Instruction, Opcode, Program, RunResult, count_steps, eval_imply,
                   exec_instruction, false_, imply, load, run_program, run_vectorized)
from .ir import Diagnostic, ParseError, format_program, parse_program, try_parse, validate
from .synthesis import (GATES, AdderPlan, Fragment, Gate, GateKind, GateSpec, SliceRegs,
                        adder_plan, compile_netlist, gen_adder_serial, gen_full_adder_1bit,
                        synth_gate)
from .verify import (BASELINES, MetricsReport, Verdict, adder_oracle,
                     exhaustive_check, lane_oracle, make_adder_oracle, metrics)
from .analog import (AnalogResult, CircuitParams, DeviceState, calibrate_write_time,
                     closed_form_check, execute_analog, integrate_pulse, memristance,
                     readout, solve_cell)
