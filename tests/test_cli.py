import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from implylogic import analog
from implylogic.analog import CircuitParams, execute_analog
from implylogic.cli import main
from implylogic.ir import parse_program


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_python(*argv, timeout=60):
    """``python argv...`` in a fresh process that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=timeout)


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

    def test_register_set_twice_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("run", nand_path, "--set", "P=1", "--set", "P=0",
                                 "--set", "Q=1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: --set gives register 'P' twice\n"

    @pytest.mark.parametrize("cin", ["0", "1"])
    def test_cin_without_operands_is_a_usage_error(self, nand_path, capsys, cin):
        code, out, err = run_cli("run", nand_path, "--cin", cin, "--set", "P=1", "--set", "Q=1",
                                 capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --cin needs --a and --b; set a carry register with --set NAME=V\n"

    @pytest.mark.parametrize("operands", [["--a", "1", "--b", "2"], ["--a", "1"]])
    def test_set_with_packed_operands_is_a_usage_error(self, adder8_path, capsys, operands):
        code, out, err = run_cli("run", adder8_path, *operands, "--set", "C=1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: --set does not combine with --a/--b; give the carry-in with --cin\n"


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

    @pytest.mark.parametrize("flags", [["--set", "A=1", "--set", "B=0"], []],
                             ids=["one-case", "truth-table"])
    def test_stdout_same_with_and_without_csv(self, xor9_path, tmp_path, capsys, flags):
        code, bare, _ = run_cli("simulate", xor9_path, *flags, capsys=capsys)
        assert code == 0
        code, with_csv, _ = run_cli("simulate", xor9_path, *flags, "--csv",
                                    str(tmp_path / "t.csv"), capsys=capsys)
        assert code == 0
        assert with_csv == bare

    def test_csv_files_hold_each_case_trace_text(self, nand_path, tmp_path, capsys):
        code, _, _ = run_cli("simulate", nand_path, "--csv", str(tmp_path / "t.csv"),
                             capsys=capsys)
        assert code == 0
        prog, params = parse_program(Path(nand_path).read_text()), CircuitParams().resolved()
        for p, q in itertools.product((0, 1), repeat=2):
            trace = execute_analog(prog, params, {"P": p, "Q": q}).trace
            assert (tmp_path / f"t_{p}{q}.csv").read_text() == trace.to_csv(params)

    @pytest.mark.parametrize("flags", [["--set", "P=1", "--set", "Q=1"], []],
                             ids=["one-case", "truth-table"])
    def test_empty_csv_path_is_an_error(self, nand_path, tmp_path, capsys, monkeypatch, flags):
        def calibrate(params):
            raise AssertionError("calibrated before the CSV path was checked")

        monkeypatch.setattr(analog, "calibrate_write_time", calibrate)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code, out, err = run_cli("simulate", nand_path, *flags, "--csv", "", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flags, message", [
        (["--set", "P=1"], "missing input assignment for register 'Q'"),
        (["--set", "P=1", "--csv", "t.csv"], "missing input assignment for register 'Q'"),
        (["--set", "P=1", "--set", "Q=1", "--set", "S=0"],
         "unmapped register 'S' in input assignment: not a declared input"),
    ], ids=["missing", "missing-with-csv", "unmapped"])
    def test_assignment_checked_before_calibrating(self, nand_path, tmp_path, capsys,
                                                    monkeypatch, flags, message):
        def calibrate(params):
            raise AssertionError("calibrated before the assignment was checked")

        monkeypatch.setattr(analog, "calibrate_write_time", calibrate)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code, out, err = run_cli("simulate", nand_path, *flags, capsys=capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flags", [["--ron", "1e-300", "--roff", "1e-299"],
                                       ["--ron", "1e154", "--roff", "1e155"]],
                             ids=["product-underflows", "product-overflows"])
    def test_extreme_rails_get_a_default_threshold(self, nand_path, capsys, flags):
        code, out, err = run_cli("simulate", nand_path, *flags, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.startswith("write_time_s=")
        assert len(out.splitlines()) == 5

    def test_huge_roff_fails_at_calibration(self, nand_path, capsys):
        code, out, err = run_cli("simulate", nand_path, "--roff", "1e308", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: case-1 drive does not switch the target (write time diverges)\n"

    def test_negative_ron_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("simulate", nand_path, "--ron", "-1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: require 0 < R_ON < read_threshold < R_OFF\n"

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

    def test_register_set_twice_is_an_error(self, nand_path, capsys):
        code, out, err = run_cli("simulate", nand_path, "--set", "P=1", "--set", "P=0",
                                 "--set", "Q=1", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: --set gives register 'P' twice\n"

    @pytest.mark.parametrize("csv, flags, bad, message", [
        ("out", ["--set", "P=1", "--set", "Q=1"], "out", "[Errno 21] Is a directory"),
        ("out/none/t.csv", ["--set", "P=1", "--set", "Q=1"], "out/none/t.csv",
         "[Errno 2] No such file or directory"),
        ("out/t.csv", [], "out/t_10.csv", "[Errno 21] Is a directory"),
        ("none/t.csv", [], "none/t_00.csv", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing-parent", "case-path-is-a-directory", "cases-missing-parent"])
    def test_bad_csv_path_found_before_simulating(self, nand_path, tmp_path, capsys,
                                                  csv, flags, bad, message):
        (tmp_path / "out" / "t_10.csv").mkdir(parents=True)
        code, out, err = run_cli("simulate", nand_path, *flags, "--csv", str(tmp_path / csv),
                                 capsys=capsys)
        assert (code, out) == (1, "")  # refused before the write time is calibrated
        assert err == f"error: {message}: '{tmp_path / bad}'\n"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["t_10.csv"]

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

    @pytest.mark.parametrize("flags", [
        ["--d", "1e160"],
        ["--d", "1e-170"],
        ["--d", "1e-170", "--pulse-width", "1"],
        ["--vset", "1e-320", "--vcond", "1e-321"],
    ], ids=["d-squared-overflows", "time-scale-underflows", "gain-divides-by-zero",
            "drive-underflows"])
    def test_extreme_device_params_are_an_error(self, nand_path, capsys, flags):
        code, out, err = run_cli("simulate", nand_path, "--set", "P=1", "--set", "Q=1", *flags,
                                 capsys=capsys)
        assert (code, out) == (1, "")
        assert err == ("error: drift gain mu_v*R_ON/D^2 and drift time scale D^2/(mu_v*V_set) "
                       "must be positive and finite\n")

    def test_invalid_params(self, tmp_path, capsys):
        case1 = tmp_path / "case1.imply"
        case1.write_text(".regs P Q\n.in P Q\nIMPLY P Q\n")
        code, _, err = run_cli("simulate", str(case1), "--vcond", "2.0", capsys=capsys)
        assert code != 0
        assert "V_cond" in err

    def test_steps_per_pulse_cap(self, nand_path):
        # about 6e8 RK4 steps per pulse: refused once the width is calibrated, not run
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path,
                          "--set", "P=1", "--set", "Q=1", "--dt", "1e-9")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: pulse_width/dt = 6.268750e-01/1.000000e-09 gives ")
        assert "more than MAX_STEPS_PER_PULSE = 100000" in proc.stderr

    def test_overflowing_steps_per_pulse_is_an_error(self, nand_path):
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path, "--set", "P=1",
                          "--set", "Q=1", "--pulse-width", "1e300", "--dt", "1e-300")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: pulse_width/dt = 1.000000e+300/1.000000e-300 "
                                      "gives inf RK4 steps per pulse")

    def test_underflowing_calibration_probe_is_an_error(self, nand_path):
        # valid parameters whose drift time, about 1e-322 s, is so short that
        # the first calibration probe's step, a thousandth of it, is 0.0
        proc = run_python("-m", "implylogic.cli", "simulate", nand_path, "--set", "P=1",
                          "--set", "Q=1", "--ron", "1e-300", "--roff", "1e-299",
                          "--d", "1e-161", "--muv", "1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: write-time probe of 9.881313e-323 s: dt must be positive\n"


class TestLocatedFileErrors:
    """A path that cannot be read or written, or a program file that is
    not UTF-8, ends in one ``error:`` line naming it, not a traceback."""

    def test_compile_output_is_a_directory(self, tmp_path, capsys):
        code, _, err = run_cli("compile", "--gate", "nand", "-o", str(tmp_path), capsys=capsys)
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_run_program_is_a_directory(self, tmp_path, capsys):
        code, out, err = run_cli("run", str(tmp_path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_verify_report_is_a_directory(self, nand_path, tmp_path, capsys):
        code, _, err = run_cli("verify", nand_path, "--oracle", "nand", "--report", str(tmp_path),
                               capsys=capsys)
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_simulate_csv_is_a_directory(self, nand_path, tmp_path, capsys):
        code, _, err = run_cli("simulate", nand_path, "--set", "P=0", "--set", "Q=0",
                               "--csv", str(tmp_path), capsys=capsys)
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("argv", [["run"], ["verify", "--oracle", "nand"], ["simulate"]],
                             ids=["run", "verify", "simulate"])
    def test_program_not_utf8(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.imply"
        bad.write_bytes(".regs P Q S\n# caf\xe9\n".encode("latin-1"))
        code, out, err = run_cli(argv[0], str(bad), *argv[1:], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1


class TestReproduceScript:
    SCRIPT = str(ROOT / "scripts" / "reproduce_headline.py")

    def test_default_run_reproduces_the_headline(self):
        proc = run_python(self.SCRIPT, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        out = re.sub(r"cases in \d+\.\d\ds$", "cases in Xs", proc.stdout, flags=re.M)
        assert out == (
            "8-bit serial adder: 184 steps (64 FALSE + 120 IMPLY), 21 registers, 23 steps/bit\n"
            "  vs serial-712 (712 steps, 29 registers): 74.2% fewer steps\n"
            "  vs serial-232 (232 steps, 27 registers): 20.7% fewer steps\n"
            "exhaustive check over 131072 input cases...\n"
            "  PASS: 131072 cases in Xs\n"
            "device model: calibrated write pulse 0.6269s\n"
            "analog NAND readouts vs ideal:\n"
            "  P=0 Q=0: analog S=1, ideal S=1  ok\n"
            "  P=0 Q=1: analog S=1, ideal S=1  ok\n"
            "  P=1 Q=0: analog S=1, ideal S=1  ok\n"
            "  P=1 Q=1: analog S=1, ideal S=0  MISMATCH (drift 1.000)\n")

    def test_widest_width_sweeps_every_case(self):
        proc = run_python(self.SCRIPT, "--width", "11", "--skip-analog", timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert re.search(r"^  PASS: 8388608 cases in \d+\.\d\ds$", proc.stdout, flags=re.M)

    @pytest.mark.parametrize("width", ["0", "12"])
    def test_width_out_of_range_is_a_usage_error(self, width):
        proc = run_python(self.SCRIPT, "--width", width, "--skip-analog")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--width must be between 1 and 11" in proc.stderr
