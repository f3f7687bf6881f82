"""Closed-loop client that drives ``implylogic.cli.main`` in this process.

One process, one thread, one client: ``run.py`` sends the index of one
operation of the round on standard input, the worker runs it and answers
with one JSON line, and only then does ``run.py`` send the next.  The
worker knows nothing of the expected outputs; it records exit codes,
captured output and artifact hashes, and ``run.py`` checks them in its own
process, so the reference computations add nothing to this process's peak
RSS.

Usage: ``python3 perfbench/worker.py PLAN.json`` from the root of a
checkout.  The first line out holds the results of the plan's
``prepare`` commands, sent after one untimed warm-up operation; each
``{"op": i, "keep": bool}`` line in is answered by the operation's record
(with the full text of its output when ``keep``); any other line, or the
end of input, ends the loop, and the last line out holds the coverage
calls, the peak RSS and the spans.  With ``"trace": true`` in the plan,
spans are recorded around calls into the public functions of each module.

Operations and spans are timed in this thread's CPU time; wall time is
kept beside it for the summary line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def import_cli(src: str):
    """Import ``implylogic.cli`` from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import implylogic.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: implylogic was imported from {cli.__file__}, not {src}")
    return cli


class Tracer:
    """Spans kept in memory: ``[name, parent, start_ns, end_ns, work, phase]``,
    where ``parent`` indexes the enclosing span and ``work`` holds counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.thread_time_ns(), None, {}, self.phase])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, i: int) -> None:
        self.spans[i][3] = time.thread_time_ns()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                self.spans[i][4] = work(args, result)
            return result

        setattr(owner, attr, traced)


def install_spans(tracer: Tracer, cli) -> None:
    """Spans around the module functions that the CLI commands call."""
    from implylogic import analog, verify
    from implylogic.core import count_steps

    tracer.wrap(cli, "parse_program", "ir.parse")
    tracer.wrap(cli, "format_program", "ir.format")
    tracer.wrap(cli, "gen_adder_serial", "synthesis.gen_adder")
    tracer.wrap(cli, "gate_program", "synthesis.gate_program")
    tracer.wrap(cli, "run_program", "core.run_program",
                lambda a, r: {"instructions": len(a[0].body)})
    tracer.wrap(cli, "exhaustive_check", "verify.exhaustive_check")
    tracer.wrap(verify, "run_vectorized", "verify.run_vectorized",
                lambda a, r: {"lane_steps": len(next(iter(a[1].values()))) * count_steps(a[0])})
    tracer.wrap(analog, "calibrate_write_time", "analog.calibrate")
    tracer.wrap(cli, "execute_analog", "analog.execute_case",
                lambda a, r: {"pulses": len(r.trace.boundaries), "rk4_steps": len(r.trace.times)})
    tracer.wrap(analog.AnalogTrace, "to_csv", "analog.to_csv",
                lambda a, r: {"rows": len(a[0].times)})
    tracer.wrap(cli.ReportDocument, "serialize", "cli.serialize")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Client:
    def __init__(self, cli, tracer: Tracer | None):
        self.cli = cli
        self.tracer = tracer

    def call(self, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("cli.command") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit):  # a crash is a failed operation, recorded
            rc, err = None, io.StringIO(traceback.format_exc())
        finally:
            if span is not None:
                self.tracer.close(span)
        return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def run_op(self, op: dict) -> list[dict]:
        calls = []
        for argv in op["commands"]:
            calls.append(self.call(argv))
            if calls[-1]["rc"] is None:
                return calls
        replay = op.get("replay")
        if replay and calls[-1]["rc"] == 1:
            # Debugging loop: replay the verifier's counterexample on the scalar VM.
            with open(replay["report"]) as fh:
                ce = json.load(fh)["verdict"]["counterexample"]["assignment"]
            argv = ["run", replay["program"], "--trace"]
            for name, level in ce.items():
                argv += ["--set", f"{name}={level}"]
            calls.append(self.call(argv))
        return calls


def record(op: dict, calls: list[dict], seconds: float, wall: float, keep_text: bool) -> dict:
    """Exit codes and hashes of everything the operation produced, its CPU
    ``seconds`` and its ``wall`` seconds; full text only when ``keep_text``
    (the first round)."""
    rec = {"name": op["name"], "seconds": seconds, "wall": wall,
           "rcs": [[c["argv"][0], c["rc"]] for c in calls],
           "digest": sha(json.dumps([[c["argv"], c["stdout"], c["stderr"]] for c in calls]).encode()),
           "artifacts": {}}
    for path in op.get("artifacts", []):
        try:
            with open(path, "rb") as fh:
                rec["artifacts"][path] = sha(fh.read())
        except FileNotFoundError:
            rec["artifacts"][path] = None
    if keep_text:
        rec["calls"] = calls
    return rec


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli = import_cli(plan["src"])
    tracer = Tracer() if plan["trace"] else None
    if tracer:
        install_spans(tracer, cli)
    client = Client(cli, tracer)
    reply = sys.stdout

    def send(obj) -> None:
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    prepare = [client.call(argv) for argv in plan["prepare"]]
    client.run_op(plan["round"][0])  # warm-up: lazy imports and first-call costs
    if tracer:
        tracer.phase = "op"
    send({"prepare": prepare})

    for line in sys.stdin:
        ask = json.loads(line)
        if "op" not in ask:
            break
        op = plan["round"][ask["op"]]
        t0, c0 = time.perf_counter(), time.thread_time()
        calls = client.run_op(op)
        cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
        send(record(op, calls, cpu, wall, keep_text=ask["keep"]))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    coverage = []
    if tracer:
        tracer.phase = "coverage"
        coverage = [client.call(argv) for argv in plan["coverage"]]
    send({"coverage": coverage, "peak_rss_kb": peak_rss_kb,
          "spans": tracer.spans if tracer else []})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
