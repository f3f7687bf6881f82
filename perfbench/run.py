#!/usr/bin/env python3
"""End-to-end benchmark of the implylogic toolchain.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark builds the workload's
inputs from the seed and hands them to two ``worker.py`` processes, one
importing the program from ``src/`` and one the pinned copy in
``perfbench/pinned/``.  It asks them for one operation at a time, in
turn (one thread each, one closed-loop client calling
``implylogic.cli.main``), then checks every output of the program against
the references in ``reference.py`` and ``analog_ref.py``.  The time
metrics are the pinned copy's figures on an idle host scaled by how the
program compares with the copy run beside it (README.md, Noise).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-module metrics with
``--trace 1``.  See README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analog_ref  # noqa: E402
import reference  # noqa: E402

SRC = "src"
#: A copy of src/implylogic as it was when this benchmark was written.  It
#: runs every operation beside the program under test, so that each run
#: measures how fast the host is running right then (see README, Noise).
PINNED = "perfbench/pinned"
OUT = "perfbench-out"
SPEC = "BENCHMARK.json"
#: Pairs of fresh interpreters (program, then pinned copy) started before
#: the workers and again after them.
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170
# One thread per process: the client is single-threaded by design.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
#: Prints the CPU seconds the fresh interpreter spent until the CLI was
#: ready (the process clock starts when the process does), and where the
#: CLI came from.
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import implylogic.cli as c; "
         "c.build_parser(); print(time.process_time(), c.__file__, flush=True)")

#: The pinned copy's figures on the reference host while it was idle (a
#: shared 2-vCPU VM at 2.0 GHz, Python 3.11.7, numpy 2.4.6; medians of
#: ten 35 s runs, seeds 1-10, of the same code timed alone): set-up CPU
#: seconds, and per workload the median CPU milliseconds of an operation
#: and steps per CPU second.  A run multiplies them by how the program
#: compares with the pinned copy timed beside it.
PINNED_IDLE_SETUP_S = 0.1125
PINNED_IDLE = {"verify-adder8": (652.0, 3.684e7),
               "debug-mutants": (20.53, 5.442e8),
               "analog-gates": (599.7, 35.54)}

#: Mutants per round, and the seed of the pool whose failure-bin shares set
#: how many each bin gets on every seed.  Fixing the mix fixes the cost of a
#: round, so rates compare across seeds.
ROUND_MUTANTS = 80
QUOTA_SEED = 0

GATE_ARITY = {g: 1 if g == "not" else 2 for g in reference.GATE_TRUTH}

COVERAGE_RUN = (0x5A, 0xC3, 1)


def sha_file(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def load_json(path: str) -> dict | None:
    """A report the program wrote, or None when it is missing or unreadable."""
    try:
        return json.loads(read(path))
    except (OSError, ValueError):
        return None


def setup_time(src: str) -> float:
    """CPU seconds from a fresh interpreter until ``implylogic.cli`` is
    imported from ``src`` and its parser built; also proves the import
    comes from there."""
    proc = subprocess.run([sys.executable, "-c", PROBE, src], capture_output=True, text=True,
                          env=ENV, timeout=60)
    cpu, _, path = proc.stdout.strip().partition(" ")
    if proc.returncode or not os.path.abspath(path).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: cannot import implylogic.cli from {src}/: "
                         f"{proc.stderr.strip()}")
    return float(cpu)


def setup_pairs() -> list[tuple[float, float]]:
    """Set-up times of the program and of the pinned copy, probe by probe."""
    return [(setup_time(SRC), setup_time(PINNED)) for _ in range(SETUP_PROBES)]


def compile_adder8(path: str) -> None:
    """The base program of the mutants, from the toolchain's own compiler."""
    sys.path.insert(0, SRC)
    from implylogic import cli
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["compile", "--adder", "8", "-o", path]) != 0:
            raise SystemExit("error: compile --adder 8 failed")


def levels(line: str) -> dict[str, int]:
    """``NAME=level`` tokens of one output line."""
    out = {}
    for tok in line.split():
        name, eq, value = tok.partition("=")
        if eq and value in ("0", "1"):
            out[name] = int(value)
    return out


class VerifyAdder8:
    """One operation: compile --adder 8, then verify it with its report."""

    def __init__(self, out: str, seed: int):
        # The adder has no free inputs: the seed changes nothing here.
        self.prog_path, self.report_path = f"{out}/adder8.imply", f"{out}/adder8.json"
        self.prepare = []
        self.round = [{"name": "adder8", "artifacts": [self.prog_path, self.report_path],
                       "commands": [["compile", "--adder", "8", "-o", self.prog_path],
                                    ["verify", self.prog_path, "--oracle", "adder",
                                     "--report", self.report_path]]}]

    @functools.cached_property
    def prog(self) -> reference.RefProgram:
        return reference.parse_imply(read(self.prog_path))

    def steps(self, op: dict, rec: dict) -> int:
        return self.prog.steps * (1 << 17)

    def check(self, recs: list[dict]) -> list[str]:
        calls = recs[0]["calls"]
        if [c["rc"] for c in calls] != [0, 0]:
            return [f"adder8: {c['argv'][0]} exited {c['rc']}" for c in calls if c["rc"] != 0] \
                or ["adder8: verify did not run"]
        report = load_json(self.report_path)
        if report is None:
            return ["adder8: no readable report"]
        problems = []
        prog = self.prog
        n = (len(prog.inputs) - 1) // 2
        compile_out, verify_out = (c["stdout"] for c in calls)
        if n != 8 or prog.steps != 23 * n or len(prog.regs) != 2 * n + 5:
            problems.append(f"adder8: {prog.steps} steps, {len(prog.regs)} registers, width {n}")
        if compile_out != f"steps={prog.steps} registers={len(prog.regs)}\n":
            problems.append(f"adder8: compile printed {compile_out!r}")
        if not reference.check_against(prog, reference.adder_expected(prog)).passed:
            problems.append("adder8: the compiled program does not add")
        if verify_out != f"pass: {1 << 17} cases\n":
            problems.append(f"adder8: verify printed {verify_out!r}")
        return problems + adder_report_problems(prog, report)


def adder_report_problems(prog: reference.RefProgram, report: dict) -> list[str]:
    """The verify report of an n-bit serial adder against the paper's
    constants: 23n steps, 2n+5 registers, FALSE + IMPLY = steps, and each
    improvement equal to (base - steps)/base."""
    problems = []
    n = (len(prog.inputs) - 1) // 2
    m = report["metrics"]
    if report["verdict"] != {"pass": True, "cases": 1 << len(prog.inputs)}:
        problems.append(f"adder: verdict {report['verdict']}")
    if (m["steps"], m["registers"]) != (23 * n, 2 * n + 5):
        problems.append(f"adder: report gives {m['steps']} steps, {m['registers']} registers")
    if (m["false_count"], m["imply_count"]) != (prog.count("FALSE"), prog.count("IMPLY")) \
            or m["false_count"] + m["imply_count"] != m["steps"]:
        problems.append("adder: report FALSE/IMPLY counts disagree with the program")
    got = {b["name"]: b for b in m["baselines"]}
    for name, base in reference.BASELINE_STEPS.items():
        want = (base - prog.steps) / base
        if name not in got or got[name]["steps"] != base \
                or abs(got[name]["improvement"] - want) > 1e-12:
            problems.append(f"adder: improvement over {name} is not (base - steps)/base")
    return problems


class DebugMutants:
    """One operation: verify a mutant; on FAIL, replay the counterexample."""

    def __init__(self, out: str, seed: int):
        base_path = f"{out}/base.imply"
        compile_adder8(base_path)
        base = reference.parse_imply(read(base_path))
        expected = reference.adder_expected(base)

        def judged(pool_seed: int) -> tuple[list, list[reference.RefVerdict]]:
            pool = reference.mutant_pool(base, pool_seed)
            return pool, [reference.check_against(m, expected) for _, _, m in pool]

        quota = reference.bin_quota(judged(QUOTA_SEED)[1], ROUND_MUTANTS)
        pool, verdicts = judged(seed)
        self.mutants = {}
        self.prepare, self.round = [], []
        for i in reference.draw_mutants(pool, verdicts, seed, quota):
            kind, pos, mutant = pool[i]
            path, report = f"{out}/mut{i:03d}.imply", f"{out}/mut{i:03d}.json"
            with open(path, "w") as fh:
                fh.write(mutant.text())
            name = f"mut{i:03d}-{kind}@{pos}"
            self.mutants[name] = (mutant, verdicts[i], report)
            self.round.append({"name": name, "artifacts": [report],
                               "commands": [["verify", path, "--oracle", "adder",
                                             "--report", report]],
                               "replay": {"program": path, "report": report}})

    def steps(self, op: dict, rec: dict) -> int:
        mutant = self.mutants[op["name"]][0]
        return mutant.steps * (1 << 17) + mutant.steps * (len(rec["rcs"]) - 1)

    def check(self, recs: list[dict]) -> list[str]:
        problems = []
        for rec in recs:
            mutant, ref, report_path = self.mutants[rec["name"]]
            report = load_json(report_path) if rec["calls"][0]["rc"] in (0, 1) else None
            verdict = report.get("verdict") if report else None
            problems += [f"{rec['name']}: {p}"
                         for p in mutant_problems(mutant, ref, rec["calls"], verdict)]
        return problems


def mutant_problems(mutant: reference.RefProgram, ref: reference.RefVerdict,
                    calls: list[dict], verdict: dict | None) -> list[str]:
    """One debugging operation against the reference: the verdict, the
    first failing assignment with its expected and actual levels, and a
    replay trace that has one line per instruction and ends on ``actual``."""
    status = "pass" if ref.passed else "FAIL"
    if calls[0]["rc"] != (0 if ref.passed else 1) or verdict is None \
            or calls[0]["stdout"].splitlines()[:1] != [f"{status}: {ref.cases} cases"]:
        return [f"verdict differs from the reference ({status})"]
    problems = []
    if verdict["pass"] != ref.passed or verdict["cases"] != ref.cases:
        problems.append(f"report verdict {verdict}")
    if ref.passed:
        return problems + (["a passing verdict was replayed"] if len(calls) != 1 else [])
    ce = verdict.get("counterexample", {})
    if (ce.get("assignment"), ce.get("expected"), ce.get("actual")) \
            != (ref.assignment, ref.expected, ref.actual):
        problems.append("counterexample is not the first failing assignment")
    if len(calls) != 2 or calls[1]["rc"] != 0:
        return problems + ["replay did not run"]
    lines = calls[1]["stdout"].splitlines()
    trace, last = lines[:-1], lines[-1] if lines else ""
    if len(trace) != len(mutant.body) or any(
            not line.startswith(f"[{i:3d}] ") for i, line in enumerate(trace)):
        return problems + ["replay trace is not one line per instruction"]
    final = levels(trace[-1]) if trace else {}
    if {r: final.get(r) for r in ref.actual} != ref.actual \
            or levels(last) != ref.actual or not last.endswith(f" steps={mutant.steps}"):
        problems.append("replay does not end with the counterexample's levels")
    return problems


class AnalogGates:
    """One operation: simulate one gate program over its truth table, with CSVs."""

    def __init__(self, out: str, seed: int):
        self.out = out
        self.prepare = [["compile", "--gate", g, "-o", f"{out}/{g}.imply"] for g in GATE_ARITY]
        order = list(GATE_ARITY)
        random.Random(seed).shuffle(order)
        self.round = [{"name": g, "artifacts": self.csv_paths(g),
                       "commands": [["simulate", f"{out}/{g}.imply", "--csv", f"{out}/{g}.csv"]]}
                      for g in order]
        self.agree = self.cases = 0

    def tags(self, gate: str) -> list[str]:
        return ["".join(bits) for bits in itertools.product("01", repeat=GATE_ARITY[gate])]

    def csv_paths(self, gate: str) -> list[str]:
        return [f"{self.out}/{gate}_{tag}.csv" for tag in self.tags(gate)]

    @functools.cached_property
    def progs(self) -> dict[str, reference.RefProgram]:
        return {g: reference.parse_imply(read(f"{self.out}/{g}.imply")) for g in GATE_ARITY}

    def steps(self, op: dict, rec: dict) -> int:
        return self.progs[op["name"]].steps * len(self.tags(op["name"]))

    def check(self, recs: list[dict]) -> list[str]:
        problems = []
        for rec in recs:
            gate, prog = rec["name"], self.progs[rec["name"]]
            out_reg = prog.outputs[0]
            if not reference.check_against(prog, reference.gate_expected(prog, gate)).passed:
                problems.append(f"{gate}: the compiled program does not compute {gate}")
            logical = reference.evaluate(prog)[out_reg]
            call = rec["calls"][0]
            if call["rc"] != 0:
                problems.append(f"{gate}: simulate exited {call['rc']}")
                continue
            lines = call["stdout"].splitlines()
            if not lines or not lines[0].startswith("write_time_s="):
                problems.append(f"{gate}: no write time printed")
                continue
            write_time = float(lines[0].split("=", 1)[1])
            tags = self.tags(gate)
            if len(lines) != 1 + len(tags):
                problems.append(f"{gate}: {len(lines) - 1} case lines for {len(tags)} cases")
                continue
            for lane, (tag, line, path) in enumerate(zip(tags, lines[1:], self.csv_paths(gate))):
                where = f"{gate}[{tag}]"
                if not line.startswith(f"[{tag}] "):
                    problems.append(f"{where}: case line {line!r}")
                    continue
                labels = [f"input {r}={b}" for r, b in zip(prog.inputs, tag)] + [
                    f"{op} {a}" if b is None else f"{op} {a} {b}" for op, a, b in prog.body]
                if not os.path.isfile(path):
                    problems.append(f"{where}: no CSV written")
                    continue
                found, final_x = analog_ref.check_case(read(path), write_time, labels)
                problems += [f"{where}: {p}" for p in found]
                readout = levels(line).get(out_reg)
                if readout != analog_ref.read_level(final_x[out_reg]):
                    problems.append(f"{where}: readout {readout} is not the threshold rule "
                                    "on the last row")
                # Disagreement with the logical machine is the drift physics, not a fault.
                self.cases += 1
                self.agree += readout == reference.lane_bit(logical, lane)
        return problems


WORKLOADS = {"verify-adder8": VerifyAdder8, "debug-mutants": DebugMutants,
             "analog-gates": AnalogGates}


def coverage_commands(out: str) -> list[list[str]]:
    """Traced run only: one small call into each module, for the per-module
    metrics of layers the workload's own operation never calls."""
    a, b, cin = COVERAGE_RUN
    return [["compile", "--gate", "nand", "-o", f"{out}/cov_nand.imply"],
            ["compile", "--adder", "8", "-o", f"{out}/cov_adder8.imply"],
            ["verify", f"{out}/cov_nand.imply", "--oracle", "nand", "--report", f"{out}/cov.json"],
            ["run", f"{out}/cov_adder8.imply", "--a", hex(a), "--b", hex(b), "--cin", str(cin),
             "--trace"],
            ["simulate", f"{out}/cov_nand.imply", "--set", "P=1", "--set", "Q=1",
             "--csv", f"{out}/cov.csv"]]


def check_coverage(calls: list[dict]) -> list[str]:
    a, b, cin = COVERAGE_RUN
    total = a + b + cin
    problems = [f"coverage: {' '.join(c['argv'])} exited {c['rc']}" for c in calls if c["rc"] != 0]
    if not problems:
        if calls[2]["stdout"] != "pass: 4 cases\n":
            problems.append(f"coverage: verify nand printed {calls[2]['stdout']!r}")
        if calls[3]["stdout"].splitlines()[-1] != f"S=0x{total & 0xFF:02X} Cout={total >> 8} steps=184":
            problems.append("coverage: run adder8 printed a wrong sum")
    return problems


def call_failed(argv0: str, rc) -> bool:
    """A crash or an error exit; verify's exit 1 is a FAIL verdict, an output."""
    return rc is None or (rc != 0 and not (argv0 == "verify" and rc == 1))


def check_rounds(result: dict) -> list[str]:
    """Every round must give the same outputs, and the artifacts on disk
    must be the ones every round recorded."""
    problems = []
    first = result["rounds"][0]
    for rnd in result["rounds"]:
        for rec, ref in zip(rnd, first):
            if rec["digest"] != ref["digest"] or rec["artifacts"] != ref["artifacts"]:
                problems.append(f"{rec['name']}: output differs between rounds")
    for rec in first:
        for path, digest in rec["artifacts"].items():
            if digest is None or sha_file(path) != digest:
                problems.append(f"{rec['name']}: {path} missing or changed")
    return problems


def p50_ms(rounds: list[list[dict]], key: str = "seconds") -> float:
    """Median CPU time (``key="wall"``: wall time) over every timed
    operation of the run, in milliseconds."""
    return 1e3 * statistics.median(rec[key] for rnd in rounds for rec in rnd)


def relocate(obj, old: str, new: str):
    """``obj`` with every path under ``old/`` moved under ``new/``."""
    if isinstance(obj, str):
        return new + obj[len(old):] if obj.startswith(old + "/") else obj
    if isinstance(obj, list):
        return [relocate(x, old, new) for x in obj]
    if isinstance(obj, dict):
        return {k: relocate(v, old, new) for k, v in obj.items()}
    return obj


class Worker:
    """One ``worker.py`` process, asked for one operation at a time."""

    def __init__(self, plan: dict, plan_path: str):
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=ENV)
        self.prepare = self.receive()["prepare"]

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: worker exited with {self.proc.wait()}")
        return json.loads(line)

    def ask(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_rounds(plan: dict, seconds: float) -> tuple[dict, dict]:
    """Whole rounds, each operation run by the program and by the pinned
    copy in turn (which goes first alternates by round), until the round
    end nearest to ``seconds``; then the program's and the copy's results."""
    pinned_plan = relocate(dict(plan, src=PINNED, trace=False, coverage=[]), OUT, f"{OUT}/pinned")
    workers = []
    try:
        workers.append(Worker(plan, f"{OUT}/plan.json"))
        workers.append(Worker(pinned_plan, f"{OUT}/pinned/plan.json"))
        rounds: list[list[list[dict]]] = [[], []]
        start = time.perf_counter()
        while True:
            n = len(rounds[0])
            for w in rounds:
                w.append([])
            for i in range(len(plan["round"])):
                for k in ((0, 1) if n % 2 == 0 else (1, 0)):
                    rounds[k][-1].append(workers[k].ask({"op": i, "keep": n == 0}))
            spent = time.perf_counter() - start
            if spent + 0.5 * spent / (n + 1) > seconds:
                break
        results = [dict(w.ask({"finish": True}), prepare=w.prepare, rounds=r)
                   for w, r in zip(workers, rounds)]
        for w in workers:
            w.proc.stdin.close()
            w.proc.wait(timeout=30)
        return results[0], results[1]
    finally:
        for w in workers:
            w.stop()


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module metrics: the median per call in milliseconds, or the
    work per busy second, from the spans of the timed operations; a layer
    those never call is measured on the coverage calls instead."""
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[1] is not None:
            kids.setdefault(s[1], []).append(i)

    def ms(i: int) -> float:
        return (spans[i][3] - spans[i][2]) / 1e6

    def pick(name: str) -> list[int]:
        for phase in ("op", "coverage"):
            found = [i for i, s in enumerate(spans) if s[0] == name and s[5] == phase]
            if found:
                return found
        raise RuntimeError(f"no span recorded for {name}")

    def p50(name: str) -> float:
        return statistics.median(ms(i) for i in pick(name))

    def rate(name: str, key: str) -> float:
        found = pick(name)
        return sum(spans[i][4][key] for i in found) / (sum(ms(i) for i in found) / 1e3)

    checks = pick("verify.exhaustive_check")
    commands = pick("cli.command")
    return {
        "ir.parse_ms": p50("ir.parse"),
        "ir.format_ms": p50("ir.format"),
        "synthesis.gen_adder_ms": p50("synthesis.gen_adder"),
        "synthesis.gate_program_ms": p50("synthesis.gate_program"),
        "core.run_program_ms": p50("core.run_program"),
        "core.instructions_per_s": rate("core.run_program", "instructions"),
        "verify.exhaustive_check_ms": p50("verify.exhaustive_check"),
        "verify.run_vectorized_ms": p50("verify.run_vectorized"),
        "verify.lane_steps_per_s": rate("verify.run_vectorized", "lane_steps"),
        "verify.outside_vm_ms": statistics.median(
            ms(i) - sum(ms(k) for k in kids.get(i, []) if spans[k][0] == "verify.run_vectorized")
            for i in checks),
        "analog.calibrate_ms": p50("analog.calibrate"),
        "analog.execute_case_ms": p50("analog.execute_case"),
        "analog.pulses_per_s": rate("analog.execute_case", "pulses"),
        "analog.rk4_steps_per_s": rate("analog.execute_case", "rk4_steps"),
        "analog.trace_rows": statistics.median(
            spans[i][4]["rk4_steps"] for i in pick("analog.execute_case")),
        "analog.to_csv_ms": p50("analog.to_csv"),
        "analog.csv_rows_per_s": rate("analog.to_csv", "rows"),
        "cli.serialize_ms": p50("cli.serialize"),
        "cli.self_ms": statistics.median(
            ms(i) - sum(ms(k) for k in kids.get(i, [])) for i in commands),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(os.path.dirname(HERE))
    for src in (SRC, PINNED):
        if not os.path.isfile(os.path.join(src, "implylogic", "cli.py")):
            raise SystemExit(f"error: no {src}/implylogic/cli.py under {os.getcwd()}")

    def overdue(signum, frame):
        raise SystemExit(f"error: the run took longer than {RUN_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, overdue)
    signal.alarm(RUN_TIMEOUT_S)
    probes = [] if args.trace else setup_pairs()

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    workload = WORKLOADS[args.workload](OUT, args.seed)
    shutil.copytree(OUT, f"{OUT}/pinned")  # the inputs the workload wrote
    plan = {"src": SRC, "trace": bool(args.trace),
            "prepare": workload.prepare, "round": workload.round,
            "coverage": coverage_commands(OUT) if args.trace else []}
    result, pinned = run_rounds(plan, args.seconds)
    if not args.trace:
        probes += setup_pairs()
    signal.alarm(0)

    problems = [f"prepare: {' '.join(c['argv'])} exited {c['rc']}"
                for c in result["prepare"] if c["rc"] != 0]
    problems += check_rounds(result)
    problems += workload.check(result["rounds"][0])
    if args.trace:
        problems += check_coverage(result["coverage"])
    ops = [(op, rec) for rnd in result["rounds"] for op, rec in zip(workload.round, rnd)]
    failed = sum(any(call_failed(a, rc) for a, rc in rec["rcs"]) for _, rec in ops)

    with open(SPEC) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # The program against the pinned copy, operation by operation and probe
    # by probe; each pair ran within a second or two of each other.
    pairs = [(rec["seconds"], ref["seconds"])
             for rnd, ref_rnd in zip(result["rounds"], pinned["rounds"])
             for rec, ref in zip(rnd, ref_rnd)]
    idle_p50_ms, idle_rate = PINNED_IDLE[args.workload]
    # How many times slower than idle the host ran the pinned copy.
    slow = p50_ms(pinned["rounds"]) / idle_p50_ms
    if args.trace:
        metrics = {name: value / slow if name.endswith("_ms")
                   else value * slow if name.endswith("_per_s") else value
                   for name, value in span_metrics(result["spans"]).items()}
    else:
        metrics = {
            "setup_s": PINNED_IDLE_SETUP_S * statistics.median(p / q for p, q in probes),
            "op_p50_ms": idle_p50_ms * statistics.median(p / q for p, q in pairs),
            "steps_per_s": idle_rate * sum(q for _, q in pairs) / sum(p for p, _ in pairs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics differ from {SPEC}")

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(result['rounds'])} rounds, {len(ops)} ops, "
          f"{failed} failed, {len(problems)} check failures, "
          f"op p50 {p50_ms(result['rounds']):.1f} ms CPU, "
          f"{p50_ms(result['rounds'], 'wall'):.1f} ms wall; pinned copy "
          f"{p50_ms(pinned['rounds']):.1f} ms CPU, {slow:.3f} times its idle figure",
          file=sys.stderr)
    if isinstance(workload, AnalogGates):
        print(f"analog readouts agreeing with the logical machine: "
              f"{workload.agree}/{workload.cases}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
