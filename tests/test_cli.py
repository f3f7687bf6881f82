import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from implylogic.cli import ReportDocument, main
from implylogic.ir import parse_program


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCompile:
    def test_nand(self, tmp_path, capsys):
        path = tmp_path / "nand.imply"
        code, out, _ = run_cli("compile", "--gate", "nand", "-o", str(path), capsys=capsys)
        assert code == 0
        assert "steps=3" in out
        prog = parse_program(path.read_text())
        assert len(prog.body) == 3

    def test_adder8(self, tmp_path, capsys):
        path = tmp_path / "adder8.imply"
        code, out, _ = run_cli("compile", "--adder", "8", "-o", str(path), capsys=capsys)
        assert code == 0
        assert "steps=184" in out and "registers=21" in out
        prog = parse_program(path.read_text())
        assert len(prog.registers) <= 27

    def test_zero_width_rejected(self, capsys):
        code, _, err = run_cli("compile", "--adder", "0", capsys=capsys)
        assert code != 0
        assert "width must be >= 1" in err

    def test_compile_stdout(self, capsys):
        code, out, _ = run_cli("compile", "--gate", "not", capsys=capsys)
        assert code == 0
        assert "FALSE S" in out

    def test_byte_stable(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.imply", tmp_path / "b.imply"
        run_cli("compile", "--adder", "4", "-o", str(p1), capsys=capsys)
        run_cli("compile", "--adder", "4", "-o", str(p2), capsys=capsys)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture
def nand_path(tmp_path, capsys):
    path = tmp_path / "nand.imply"
    main(["compile", "--gate", "nand", "-o", str(path)])
    capsys.readouterr()
    return str(path)


@pytest.fixture
def adder8_path(tmp_path, capsys):
    path = tmp_path / "adder8.imply"
    main(["compile", "--adder", "8", "-o", str(path)])
    capsys.readouterr()
    return str(path)


class TestRun:
    def test_nand_one_one(self, nand_path, capsys):
        code, out, _ = run_cli("run", nand_path, "--set", "P=1", "--set", "Q=1", capsys=capsys)
        assert code == 0
        assert "S=0 steps=3" in out

    def test_adder_packed(self, adder8_path, capsys):
        code, out, _ = run_cli("run", adder8_path, "--a", "0xFF", "--b", "0x01",
                               "--cin", "0", capsys=capsys)
        assert code == 0
        assert "S=0x00 Cout=1" in out

    def test_missing_input_named(self, nand_path, capsys):
        code, _, err = run_cli("run", nand_path, "--set", "P=1", capsys=capsys)
        assert code != 0
        assert "Q" in err

    def test_trace(self, nand_path, capsys):
        code, out, _ = run_cli("run", nand_path, "--set", "P=1", "--set", "Q=0",
                               "--trace", capsys=capsys)
        assert code == 0
        assert "FALSE S" in out

    @pytest.mark.parametrize("flags, message", [
        (["--a", "1"], "--a and --b must be given together"),
        (["--b", "1"], "--a and --b must be given together"),
        (["--a", "zz", "--b", "1"], "--a takes an integer such as 0xFF, got 'zz'"),
        (["--a", "1", "--b", "0xg"], "--b takes an integer such as 0xFF, got '0xg'"),
    ])
    def test_bad_packed_operands_are_located_errors(self, adder8_path, capsys, flags, message):
        code, out, err = run_cli("run", adder8_path, *flags, capsys=capsys)
        assert code != 0
        assert err == f"error: {message}\n"
        assert out == ""

    def test_parse_error_located(self, tmp_path, capsys):
        bad = tmp_path / "bad.imply"
        bad.write_text(".regs P\nIMPLY P P\n")
        code, _, err = run_cli("run", str(bad), capsys=capsys)
        assert code != 0
        assert "2:" in err and "differ" in err


class TestVerify:
    def test_adder_report(self, adder8_path, tmp_path, capsys):
        report = tmp_path / "r.json"
        code, out, _ = run_cli("verify", adder8_path, "--oracle", "adder",
                               "--report", str(report), capsys=capsys)
        assert code == 0
        assert "pass: 131072 cases" in out
        doc = json.loads(report.read_text())
        assert doc["verdict"]["pass"] is True
        assert doc["verdict"]["cases"] == 131072
        assert doc["metrics"]["steps"] == 184
        assert doc["metrics"]["registers"] <= 27
        by_name = {b["name"]: b for b in doc["metrics"]["baselines"]}
        assert by_name["serial-232"]["improvement"] == pytest.approx(48 / 232)

    def test_wrong_oracle_fails(self, nand_path, tmp_path, capsys):
        report = tmp_path / "r.json"
        code, out, _ = run_cli("verify", nand_path, "--oracle", "and",
                               "--report", str(report), capsys=capsys)
        assert code != 0
        doc = json.loads(report.read_text())
        assert doc["verdict"]["pass"] is False
        assert "counterexample" in doc["verdict"]

    def test_nand_oracle_passes(self, nand_path, capsys):
        code, _, _ = run_cli("verify", nand_path, "--oracle", "nand", capsys=capsys)
        assert code == 0

    def test_report_byte_stable(self, adder8_path, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("verify", adder8_path, "--oracle", "adder", "--report", str(r1), capsys=capsys)
        run_cli("verify", adder8_path, "--oracle", "adder", "--report", str(r2), capsys=capsys)
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("gate", ["xor9", "xor11"])
    def test_xor_forms_are_oracles(self, tmp_path, capsys, gate):
        path = tmp_path / f"{gate}.imply"
        main(["compile", "--gate", gate, "-o", str(path)])
        code, out, _ = run_cli("verify", str(path), "--oracle", gate, capsys=capsys)
        assert code == 0
        assert "pass: 4 cases" in out

    def test_gate_oracle_needs_an_output(self, tmp_path, capsys):
        path = tmp_path / "noout.imply"
        path.write_text(".regs P Q S\n.in P Q\nFALSE S\nIMPLY P S\nIMPLY Q S\n")
        code, _, err = run_cli("verify", str(path), "--oracle", "nand", capsys=capsys)
        assert code != 0
        assert ".out" in err

    def test_arity_mismatch(self, adder8_path, capsys):
        code, _, err = run_cli("verify", adder8_path, "--oracle", "nand", capsys=capsys)
        assert code != 0
        assert "arity" in err


class TestRenamedAdder:
    """The adder interface is the declared order, not the register names."""

    @pytest.fixture
    def renamed_path(self, tmp_path, capsys):
        main(["compile", "--adder", "4", "-o", str(tmp_path / "adder4.imply")])
        capsys.readouterr()
        text = (tmp_path / "adder4.imply").read_text()
        text = re.sub(r"\bA(\d)", r"X\1", text)
        text = re.sub(r"\bB(\d)", r"Y\1", text)
        text = re.sub(r"\bC\b", "K", text)
        path = tmp_path / "renamed.imply"
        path.write_text(text)
        assert ".in X0 X1 X2 X3 Y0 Y1 Y2 Y3 K\n" in text
        return str(path)

    def test_verifies(self, renamed_path, capsys):
        code, out, _ = run_cli("verify", renamed_path, "--oracle", "adder", capsys=capsys)
        assert code == 0
        assert "pass: 512 cases" in out

    def test_runs_packed(self, renamed_path, capsys):
        code, out, _ = run_cli("run", renamed_path, "--a", "0xB", "--b", "0x6", "--cin", "1",
                               capsys=capsys)
        assert code == 0
        assert out == "S=0x2 Cout=1 steps=92\n"

    def test_not_an_adder(self, nand_path, capsys):
        code, _, err = run_cli("run", nand_path, "--a", "1", "--b", "1", capsys=capsys)
        assert code != 0
        assert "an adder declares" in err


class TestSimulate:
    @pytest.fixture
    def xor9_path(self, tmp_path, capsys):
        path = tmp_path / "xor9.imply"
        main(["compile", "--gate", "xor9", "-o", str(path)])
        capsys.readouterr()
        return str(path)

    def test_xor9_single_case(self, xor9_path, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        code, out, _ = run_cli("simulate", xor9_path, "--set", "A=1", "--set", "B=0",
                               "--csv", str(csv), capsys=capsys)
        assert code == 0
        assert "M0=1" in out
        rows = [l for l in csv.read_text().splitlines()[1:] if not l.startswith("#")]
        times = [float(r.split(",")[0]) for r in rows]
        assert times == sorted(times)

    def test_case1_single_imply(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        code, out, _ = run_cli("simulate", str(case1), "--set", "P=0", "--set", "Q=0",
                               capsys=capsys)
        assert code == 0
        assert "Q=1" in out

    def test_explicit_default_overrides_accepted(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        code, out, _ = run_cli(
            "simulate", str(case1), "--set", "P=0", "--set", "Q=0",
            "--rg", "10e3", "--ron", "1e3", "--roff", "100e3",
            "--vset", "1", "--vcond", "0.5", "--vclear", "-1", capsys=capsys)
        assert code == 0
        assert "Q=1" in out

    def test_csv_per_case_in_dotted_directory(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        outdir = tmp_path / "run.d"
        outdir.mkdir()
        code, _, _ = run_cli("simulate", str(case1), "--csv", str(outdir / "trace"),
                             capsys=capsys)
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "trace_00", "trace_01", "trace_10", "trace_11"]
        code, _, _ = run_cli("simulate", str(case1), "--csv", str(outdir / "t.csv"),
                             capsys=capsys)
        assert code == 0
        assert (outdir / "t_01.csv").is_file()

    def test_partial_set_is_an_error(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\n.out Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), "--set", "P=1", "--pulse-width", "1",
                                 capsys=capsys)
        assert code != 0
        assert "missing input assignment for register 'Q'" in err

    @pytest.mark.parametrize("flag", ["--d", "--vset", "--dt"])
    def test_non_finite_param_is_an_error(self, tmp_path, capsys, flag):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), flag, "nan", capsys=capsys)
        assert code != 0
        assert "must be finite" in err

    def test_too_many_cases_without_set_is_an_error(self, tmp_path, capsys):
        adder3 = tmp_path / "adder3.imply"
        main(["compile", "--adder", "3", "-o", str(adder3)])
        capsys.readouterr()
        code, out, err = run_cli("simulate", str(adder3), capsys=capsys)
        assert code == 1
        assert out == ""  # refused before the write time is calibrated
        assert f"{adder3}: 7 inputs give 128 assignments" in err
        assert "--set NAME=V" in err

    def test_invalid_params(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), "--vcond", "2.0", capsys=capsys)
        assert code != 0
        assert "V_cond" in err


class TestReportDocument:
    def test_round_trip(self, adder8_path, tmp_path, capsys):
        report = tmp_path / "r.json"
        run_cli("verify", adder8_path, "--oracle", "adder", "--report", str(report),
                capsys=capsys)
        doc = json.loads(report.read_text())
        rebuilt = ReportDocument.from_dict(doc)
        assert rebuilt.to_dict() == doc

    def test_round_trip_with_analog_and_counterexample(self):
        from implylogic.verify import (BaselineComparison, Counterexample,
                                       MetricsReport, Verdict)
        doc = ReportDocument(
            version="0.1.0",
            program="x.imply",
            metrics=MetricsReport(3, 3, 1, 2, (BaselineComparison("b", 10, 5, 0.7),)),
            verdict=Verdict(False, 4, Counterexample({"P": 0}, {"S": 0}, {"S": 1})),
            analog={"write_time_s": 0.6, "max_drift": 0.4, "agreement": 0.75},
        )
        assert ReportDocument.from_dict(doc.to_dict()).to_dict() == doc.to_dict()


class TestReproduceScript:
    @pytest.mark.parametrize("width", ["0", "12"])
    def test_width_out_of_range_is_a_usage_error(self, width):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "reproduce_headline.py"),
             "--width", width, "--skip-analog"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--width must be between 1 and 11" in proc.stderr
