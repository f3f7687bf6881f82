"""The per-layer benchmark's spans still find what they wrap.

``perfbench/worker.py`` wraps CLI and module functions by name and reads
work counts off their arguments and results; ``perfbench/run.py`` turns
those spans into the per-layer metrics that ``BENCHMARK.json`` declares.
A rename or a changed result shape in the program would break that
silently, so this runs the harness's own ``install_spans`` over one small
call of each command, in a subprocess because the wrapping patches
modules in place.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HARNESS = r"""
import json, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "perfbench"))
import run, worker

cli = worker.import_cli(os.path.join(root, "src"))
tracer = worker.Tracer()
worker.install_spans(tracer, cli)
tracer.phase = "op"
client = worker.Client(cli, tracer)
nand, adder, csv, table, report = (os.path.join(out, name) for name in (
    "nand.imply", "adder2.imply", "nand.csv", "table.csv", "nand.json"))
calls = [client.call(argv) for argv in (
    ["compile", "--gate", "nand", "-o", nand],
    ["compile", "--adder", "2", "-o", adder],
    ["simulate", nand, "--set", "P=1", "--set", "Q=1", "--csv", csv],
    ["simulate", nand, "--csv", table],
    ["verify", nand, "--oracle", "nand", "--report", report],
    ["run", adder, "--a", "0x1", "--b", "0x3", "--cin", "1", "--trace"])]
print(json.dumps({"rcs": [c["rc"] for c in calls], "spans": tracer.spans,
                  "metrics": run.span_metrics(tracer.spans)}))
"""

SPAN_NAMES = {"cli.command", "ir.parse", "ir.format", "synthesis.gen_adder",
              "synthesis.gate_program", "core.run_program", "verify.exhaustive_check",
              "verify.run_vectorized", "analog.calibrate", "analog.execute_case",
              "analog.to_csv", "cli.serialize"}


def data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(not line.startswith(("#", "time_s")) for line in fh)


def test_install_spans_covers_every_layer(tmp_path):
    proc = subprocess.run([sys.executable, "-c", HARNESS, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0] * 6
    spans = result["spans"]
    assert {span[0] for span in spans} == SPAN_NAMES

    # each simulate command's cases: two input pulses and three body pulses of
    # 1000 RK4 steps each, and one CSV file whose data rows the to_csv span counts
    commands = [i for i, span in enumerate(spans) if span[0] == "cli.command"]
    for command, csvs in ((commands[2], ["nand.csv"]),
                          (commands[3], [f"table_{bits}.csv" for bits in ("00", "01", "10", "11")])):
        work = {name: [span[4] for span in spans if span[0] == name and span[1] == command]
                for name in ("analog.execute_case", "analog.to_csv")}
        assert work["analog.execute_case"] == [{"pulses": 5, "rk4_steps": 5000}] * len(csvs)
        assert work["analog.to_csv"] == [{"rows": data_rows(tmp_path / name)} for name in csvs]
        assert [data_rows(tmp_path / name) for name in csvs] == [5000] * len(csvs)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(math.isfinite(value) for value in metrics.values())
