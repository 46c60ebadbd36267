"""Command line front end: CSV schema, exit codes, determinism, seed fallback."""

import contextlib
import csv
import io
import math
import os
import shlex
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpl.cli import main


def _run_csv(argv, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return code, rows[0], rows[1:]


class TestVerifyCommand:
    def test_theorem_a_passes(self, tmp_path):
        code, header, rows = _run_csv(
            ["verify", "theorem-a", "--a", "1.0", "--n", "100000", "--seed", "42"],
            tmp_path)
        assert code == 0
        assert header == ["identity", "params", "channel", "statistic", "threshold",
                          "verdict", "seed", "tolerance", "version"]
        channels = {r[2] for r in rows}
        assert {"ks", "mellin", "density"} <= channels
        assert all(r[5] == "pass" for r in rows)
        assert all(r[6] == "42" for r in rows)

    def test_domain_error_exit_2(self, tmp_path, capsys):
        code = main(["verify", "theorem-b", "--a", "0.5", "--b", "0.6"])
        assert code == 2
        assert "b in (0, 1/2)" in capsys.readouterr().err

    def test_unknown_identity_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "does-not-exist", "--a", "1.0"])
        assert err.value.code == 2

    def test_negative_control_exit_1(self, tmp_path):
        code, _, rows = _run_csv(
            ["verify", "theorem-a", "--a", "1.0", "--n", "50000", "--seed", "42",
             "--negative-control", "1.1"], tmp_path)
        assert code == 1
        assert any(r[2] == "ks" and r[5] == "fail" for r in rows)

    def test_free_identity(self, tmp_path):
        code, _, rows = _run_csv(
            ["verify", "free", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
             "--n", "50000", "--seed", "7"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("shape", ["0.05", "0.01"])
    def test_free_small_shapes_mellin_row(self, shape, tmp_path):
        # the factor Mellin is one closed 3F2(1) of margin a + b; as a nested
        # quadrature it split past its round cap here (exit 2). The KS row at
        # these shapes draws values that overflow (ROADMAP item 2), and its
        # numpy warnings are not what this test checks
        with np.errstate(divide="ignore", over="ignore"):
            code, _, rows = _run_csv(["verify", "free"] + [
                arg for flag in ("--a", "--b", "--c", "--d") for arg in (flag, shape)]
                + ["--n", "3000", "--seed", "1"], tmp_path)
        assert code in (0, 1)
        mellin = [r for r in rows if r[2] == "mellin"]
        assert len(mellin) == 1 and float(mellin[0][3]) <= 1e-10 and mellin[0][5] == "pass"

    def test_free_small_shapes_split_draws_numeric_ks_row(self, tmp_path):
        # n = 300000 draws a block of 2^18 values by Jöhnk fills, which
        # never form 0/0; a NaN in a KS sample exits 2. The overflow warnings
        # of these shapes belong to ROADMAP item 2; an invalid-value warning
        # fails this test
        with np.errstate(divide="ignore", over="ignore"):
            code, _, rows = _run_csv(["verify", "free"] + [
                arg for flag in ("--a", "--b", "--c", "--d") for arg in (flag, "0.01")]
                + ["--n", "300000", "--seed", "1"], tmp_path)
        assert code in (0, 1)
        ks = [r for r in rows if r[2] == "ks"]
        assert len(ks) == 1 and math.isfinite(float(ks[0][3]))

    def test_parameter_grid_rows(self, tmp_path):
        code, _, rows = _run_csv(
            ["verify", "theorem-a", "--a", "0.5,1.0", "--n", "20000", "--seed", "9"],
            tmp_path)
        assert code == 0
        assert {r[1] for r in rows} == {"a=0.5", "a=1"}

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["verify", "theorem-a", "--a", "1.0", "--n", "20000", "--seed", "5"]
        main(argv + ["--out", str(tmp_path / "a.csv")])
        main(argv + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_density_row_failure_exits_1(self, tmp_path):
        # the density channel is held to --mellin-rtol, like the row it prints:
        # here Mellin error ~1.2e-16 passes and density error ~1.7e-15 fails
        code, _, rows = _run_csv(
            ["verify", "prop-b0", "--a", "1", "--b", "0.5", "--b-prime", "1.5",
             "--n", "1000", "--seed", "1", "--mellin-rtol", "5e-16"], tmp_path)
        assert [(r[2], r[5]) for r in rows] == [("ks", "pass"), ("mellin", "pass"),
                                                ("density", "fail")]
        assert code == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BPL_SEED", "123")
        code, _, rows = _run_csv(
            ["verify", "theorem-a", "--a", "1.0", "--n", "20000"], tmp_path)
        assert code == 0
        assert all(r[6] == "123" for r in rows)


class TestProbeCommand:
    def test_expected_violation_exits_zero(self, tmp_path):
        code, header, rows = _run_csv(
            ["probe", "psi-doubling", "--a", "0.7", "--c", "-0.5",
             "--z-n", "120"], tmp_path)
        assert code == 0
        assert all(r[6] == "violated" and r[7] == "violated" for r in rows)
        assert rows[0][8] != "" and rows[0][9] != ""  # located witness

    def test_hermite_doubling_holds(self, tmp_path):
        code, _, rows = _run_csv(
            ["probe", "hermite-doubling", "--nu", "1.0", "--order", "8",
             "--z-n", "120"], tmp_path)
        assert code == 0
        assert all(r[6] == "holds" for r in rows)

    def test_params_in_declaration_order(self, tmp_path):
        # the params column lists a, c, c', nu, lambda in that order
        code, _, rows = _run_csv(
            ["probe", "turan-hermite", "--nu", "1.3", "--c", "0.4", "--z-n", "60"], tmp_path)
        assert code == 0
        assert {r[1] for r in rows} == {"c=0.4;nu=1.3"}

    def test_turan_psi_bounds_row(self, tmp_path):
        code, _, rows = _run_csv(
            ["probe", "turan-psi", "--a", "0.5", "--c", "0.3", "--lambda", "0.4",
             "--z-n", "80"], tmp_path)
        assert code == 0
        assert rows[-1][2] == "bounds" and rows[-1][6] == "holds"


class TestThorinCommand:
    def test_monotone_cdf_column(self, tmp_path):
        code, header, rows = _run_csv(
            ["thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:12"], tmp_path)
        assert code == 0
        assert header[:6] == ["a", "x", "t", "f_ax", "cdf", "density"]
        cdf = [float(r[4]) for r in rows]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_long_grid_in_column_blocks(self, tmp_path):
        code, _, rows = _run_csv(
            ["thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:2000"], tmp_path)
        assert code == 0
        assert len(rows) == 2000
        cdf = [float(r[4]) for r in rows]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_fine_mesh_near_zero(self, tmp_path):
        # t = 1e-9 needs thousands of panels: its stencil columns share a
        # mesh with fewer other columns instead of exceeding the round cap
        code, _, rows = _run_csv(
            ["thorin", "--a", "0.6", "--x", "0.5", "--t", "1e-9:10:5"], tmp_path)
        assert code == 0
        assert all(float(r[5]) > 0.0 for r in rows)

    def test_pareto_case_and_far_branch(self, tmp_path):
        # a = 1 has no f_ax column; t ends straddle the t = 50 switch
        code, _, rows = _run_csv(
            ["thorin", "--a", "1", "--x", "0.5", "--t", "40:60:7"], tmp_path)
        assert code == 0
        assert all(r[3] == "nan" for r in rows)
        code, _, rows = _run_csv(
            ["thorin", "--a", "0.5", "--x", "0.5", "--t", "40:60:7"], tmp_path)
        assert code == 0
        assert all(float(r[3]) > 0.0 for r in rows)


class TestScanCommand:
    def test_cjmain_proven_flags(self, tmp_path):
        code, _, rows = _run_csv(
            ["scan", "cjmain", "--a", "0.5,0.8,2.0", "--b", "0.2",
             "--n-samples", "20000", "--seed", "3"], tmp_path)
        assert code == 0
        status = {r[1]: r[4] for r in rows}
        assert status["a=0.5;b=0.2"] == "PASS"
        assert status["a=0.8;b=0.2"] == "PASS"
        assert status["a=2;b=0.2"] == "EXPLORATORY"

    def test_cmmi_exploratory_rows(self, tmp_path):
        code, _, rows = _run_csv(["scan", "cmmi", "--n", "0,1,2"], tmp_path)
        assert code == 0
        assert all(r[4] == "EXPLORATORY" for r in rows)

    def test_cmcj_pattern(self, tmp_path):
        code, _, rows = _run_csv(
            ["scan", "cmcj", "--a", "0.7", "--c=-0.5,0.5,1.3"], tmp_path)
        assert code == 0
        by_c = {r[1]: (r[3], r[4]) for r in rows}
        assert by_c["a=0.7;c=-0.5"] == ("violated", "PASS")
        assert by_c["a=0.7;c=0.5"] == ("holds", "PASS")
        assert by_c["a=0.7;c=1.3"][1] == "EXPLORATORY"

    def test_conjhyp_records(self, tmp_path):
        code, _, rows = _run_csv(["scan", "conjhyp", "--a", "0.25"], tmp_path)
        assert code == 0
        vals = {r[2]: float(r[3]) for r in rows}
        assert vals["printed-form"] > 0.01
        assert vals["with-zp1-factor"] < 1e-8

    def test_thorin_order_runs(self, tmp_path):
        code, _, rows = _run_csv(
            ["scan", "thorin-order", "--a", "0.3,0.6", "--b", "0.5",
             "--t", "0.5:4:3"], tmp_path)
        assert code == 0
        assert all(r[4] == "EXPLORATORY" for r in rows)


class TestBadInputExitTwo:
    """Bad input exits 2 with a message, never a traceback or exit 1."""

    @pytest.mark.parametrize("argv", [
        ["probe", "turan-psi", "--a", "0.5", "--c", "0.3"],
        ["probe", "psi-cc", "--a", "0.7", "--c", "0.3"],
        ["probe", "psi-doubling", "--c", "0.5"],
        ["probe", "hermite-doubling"],
        ["probe", "turan-hermite", "--nu", "1.3"],
    ], ids=["turan-psi-lambda", "psi-cc-c-prime", "psi-doubling-a",
            "hermite-doubling-nu", "turan-hermite-c"])
    def test_probe_missing_flag(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "needs --" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "theorem-a", "--a", "1", "--b", "1"], "--b"),
        (["verify", "free", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
          "--b-prime", "2"], "--b-prime"),
        (["probe", "k0-e1", "--nu", "1"], "--nu"),
        (["probe", "psi-doubling", "--a", "0.7", "--c", "-0.5", "--lambda", "0.4"],
         "--lambda"),
        (["probe", "turan-hermite", "--nu", "1", "--c", "0.4", "--z-lo", "0.1"], "--z-lo"),
        (["probe", "k0-e1", "--lcm"], "--lcm"),
        (["probe", "hermite-doubling", "--nu", "1", "--monotone"], "--monotone"),
        (["scan", "cjmain", "--a", "0.5", "--b", "0.2", "--c", "7"], "--c"),
        (["scan", "thorin-order", "--a", "0.3,0.6", "--n", "1"], "--n"),
        (["scan", "cmmi", "--n-samples", "100"], "--n-samples"),
        (["scan", "kumma", "--a", "0.6", "--b", "1"], "--b"),
    ], ids=["verify-b", "verify-b-prime", "probe-nu", "probe-lambda", "probe-z-lo",
            "probe-lcm", "probe-monotone", "scan-c", "scan-n", "scan-n-samples", "scan-b"])
    def test_flag_the_target_does_not_read(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(f"does not take {flag}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--b", "3"], ["--lcm", "--monotone"]],
                             ids=["removed-b", "lcm-and-monotone"])
    def test_probe_flag_rejected_by_parser(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            main(["probe", "psi-doubling", "--a", "0.7", "--c", "0.7", *flags])
        assert err.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--order", "-1"], ["--order", "11"],
                                       ["--lcm", "--order", "11"]],
                             ids=["negative", "above-10", "lcm-above-10"])
    def test_probe_order_out_of_range(self, flags, capsys):
        assert main(["probe", "psi-doubling", "--a", "0.7", "--c", "-0.5", *flags]) == 2
        err = capsys.readouterr().err
        assert "--order must lie in 0..10" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "theorem-a", "--a="], "at least one number"),
        (["scan", "conjhyp", "--a=,"], "at least one number"),
        (["scan", "thorin-order", "--a", "0.3"], "two or more"),
        (["scan", "thorin-order"], "needs --a"),
        (["scan", "cjmain", "--a", "0.5"], "needs --b"),
    ], ids=["verify-empty-list", "scan-empty-list", "thorin-order-one-a",
            "thorin-order-no-a", "cjmain-no-b"])
    def test_run_that_checks_nothing(self, argv, message, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["1:0:5", "0.1:10:0", "0.1:10:-3", "2:2:4",
                                      "-1:-2:5", "a:1:3", "0.1:10", "0.1:inf:5",
                                      "nan:1:3"])
    def test_thorin_bad_grid(self, spec, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["thorin", "--a", "0.5", "--x", "0.5", f"--t={spec}", "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_thorin_order_bad_grid(self, capsys):
        assert main(["scan", "thorin-order", "--a", "0.3,0.6", "--t", "4:0.5:5"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_verify_nonpositive_n(self, n, capsys):
        assert main(["verify", "theorem-a", "--a", "1", "--n", n]) == 2
        err = capsys.readouterr().err
        assert "--n" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-a", "--a", "abc", "--n", "10"],
        ["scan", "cmcj", "--a", "x"],
        ["scan", "cjmain", "--a", "0.5", "--b", "0.2,y"],
    ], ids=["verify", "scan-cmcj", "scan-cjmain"])
    def test_non_numeric_parameter_list(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "comma-separated numbers" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-a", "--a", "inf"],
        ["verify", "theorem-a", "--a", "0.5,nan"],
        ["scan", "cjmain", "--a", "0.5", "--b=-inf"],
        ["scan", "kumma", "--a", "0.6", "--c", "nan"],
        ["scan", "thorin-order", "--a", "0.3,0.6", "--b", "inf"],
    ], ids=["verify-inf", "verify-nan", "scan-cjmain", "scan-kumma", "scan-thorin-order"])
    def test_non_finite_parameter_list(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-a", "--a", "1", "--alpha", "nan"],
        ["verify", "theorem-a", "--a", "1", "--negative-control", "inf"],
        ["probe", "turan-psi", "--a", "inf", "--c", "0.3", "--lambda", "0.4"],
        ["thorin", "--a", "0.5", "--x=-inf", "--t", "0.1:10:5"],
        ["scan", "cmmi", "--mellin-rtol", "nan"],
    ], ids=["verify-alpha", "verify-negative-control", "probe", "thorin", "scan"])
    def test_non_finite_float_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_scalar_scan_flag_not_a_number(self, capsys):
        assert main(["scan", "kumma", "--a", "0.6", "--c", "abc"]) == 2
        err = capsys.readouterr().err
        assert "comma-separated numbers" in err and "Traceback" not in err

    @pytest.mark.parametrize("n, alpha", [("1", "0.01"), ("5", "0.01"), ("10", "1e-6")])
    def test_verify_n_without_ks_power(self, n, alpha, capsys):
        # the KS threshold c(alpha) sqrt(2/n) is >= 1: no sample could fail
        assert main(["verify", "theorem-a", "--a", "1", "--n", n, "--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert "too small for a KS test" in err and "Traceback" not in err

    def test_verify_smallest_n_with_ks_power(self, tmp_path):
        code, _, rows = _run_csv(["verify", "theorem-a", "--a", "1", "--n", "6",
                                  "--seed", "1"], tmp_path)
        assert code in (0, 1)
        assert float(rows[0][4]) < 1.0

    @pytest.mark.parametrize("n", ["1", "5", "0", "-5"])
    def test_scan_cjmain_n_without_ks_power(self, n, capsys):
        # the scan runs verify at alpha = 0.01: threshold >= 1 up to n = 5
        assert main(["scan", "cjmain", "--a", "0.5", "--b", "0.2", "--n-samples", n]) == 2
        err = capsys.readouterr().err
        assert "sample size" in err and "Traceback" not in err

    def test_scan_cjmain_smallest_n_with_ks_power(self, tmp_path):
        code, _, rows = _run_csv(["scan", "cjmain", "--a", "0.5", "--b", "0.2",
                                  "--n-samples", "6", "--seed", "1"], tmp_path)
        assert code in (0, 1)
        assert [r[2] for r in rows] == ["ks", "mellin", "representation"]

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-a", "--a", "1"],
        ["probe", "k0-e1"],
        ["thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:5"],
        ["scan", "cmmi"],
    ], ids=["verify", "probe", "thorin", "scan"])
    def test_jobs_flag_removed(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--jobs", "2"])
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sampler_error_is_error_row(self, tmp_path, monkeypatch):
        from bpl import cli
        from bpl.errors import DomainError
        from bpl.identities import identity_catalog

        catalog = identity_catalog()
        threads = []

        def broken_theorem_a(a):
            spec = catalog["theorem-a"](a)

            def rhs(rng, out, work):
                threads.append(threading.current_thread())
                raise DomainError("rhs sampler refused")

            spec.rhs_sampler = rhs
            return spec

        monkeypatch.setattr(cli, "identity_catalog",
                            lambda: {**catalog, "theorem-a": broken_theorem_a})
        code, _, rows = _run_csv(["verify", "theorem-a", "--a", "1", "--n", "1000",
                                  "--seed", "1"], tmp_path)
        assert code == 2
        assert len(rows) == 1 and rows[0][2] == "error"
        assert rows[0][3] == "DomainError: rhs sampler refused"
        # samplers run on the calling thread; only the KS sorts and scans
        # use a worker
        assert threads == [threading.main_thread()]

    def test_error_in_ks_worker_thread_is_error_row(self, tmp_path, monkeypatch):
        from bpl import identities
        from bpl.errors import DomainError

        threads = []

        # one side scans on the calling thread and succeeds; only the
        # worker's side fails, so the row can only come from the worker
        def refuse(own, other):
            threads.append(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                return 0.0
            raise DomainError("side scan refused")

        monkeypatch.setattr(identities, "_ks_side", refuse)
        code, _, rows = _run_csv(["verify", "theorem-a", "--a", "1", "--n", "1000",
                                  "--seed", "1"], tmp_path)
        assert code == 2
        assert len(rows) == 1 and rows[0][2] == "error"
        assert rows[0][3] == "DomainError: side scan refused"
        assert len(threads) == 2 and threads.count(threading.main_thread()) == 1

    def test_cmmi_non_integer_order(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["scan", "cmmi", "--n", "0,1.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "integers" in err and "Traceback" not in err
        assert not out.exists()


def _readme_commands() -> list[str]:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("bpl ")]


class TestReadmeCommands:
    """Every command of README's command-line block runs as documented."""

    def test_block_found(self):
        assert len(_readme_commands()) >= 10

    @pytest.mark.parametrize("line", _readme_commands())
    def test_command(self, line, tmp_path):
        command, _, comment = line.partition("#")
        code = main(shlex.split(command)[1:] + ["--out", str(tmp_path / "o.csv")])
        assert code == (1 if "exits 1" in comment else 0)


class TestUnexpectedErrors:
    """An exception escaping a command exits 2 with one stderr line."""

    @pytest.mark.parametrize("exc", [ValueError("bad\nvalue"), ZeroDivisionError("x"),
                                     OverflowError("math range error")])
    def test_exception_exits_2_without_traceback(self, exc, monkeypatch, capsys):
        from bpl import cli

        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "thorin_cdf", boom)
        assert main(["thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:5"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and type(exc).__name__ in err

    def test_private_error_class_is_reported_by_its_public_class(self, monkeypatch, capsys,
                                                                   tmp_path):
        from bpl import cli, identities
        from bpl.quadrature import _RoundTooWide

        def boom(*args, **kwargs):
            raise _RoundTooWide("refinement round would split 9 of 10 panels")

        monkeypatch.setattr(cli, "thorin_cdf", boom)
        assert main(["thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:5"]) == 2
        err = capsys.readouterr().err
        assert "failed: QuadratureError: refinement round" in err and "_Round" not in err
        monkeypatch.setattr(identities, "hyp_3f2", boom)
        code, _, rows = _run_csv(["verify", "free", "--a", "1", "--b", "1", "--c", "1",
                                  "--d", "1", "--n", "300", "--seed", "1"], tmp_path)
        assert code == 2
        assert [r[3] for r in rows if r[2] == "error"] == [
            "QuadratureError: refinement round would split 9 of 10 panels"]


def _run_checked(argv):
    """main(argv) in this process: exit code in {0, 1, 2}, no traceback on
    stderr, no warning (a CLI user sees each one as an extra stderr line),
    bounded time; returns the exit code and the CSV rows."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags
            code = exc.code
    assert time.perf_counter() - start < 20.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    return code, list(csv.reader(io.StringIO(out.getvalue())))[1:]


class TestEdgeShapes:
    """Shapes near an integrability edge that used to end in an error row or
    a failed evaluation (exit 2)."""

    @pytest.mark.parametrize("identity, a, channels", [
        ("theorem-a", "1e-3", ["ks", "mellin", "density"]),
        ("theorem-a", "1e-4", ["ks", "mellin", "density"]),
        ("half-gaussian", "1e-4", ["ks", "mellin"]),
    ], ids=["theorem-a-1e-3", "theorem-a-1e-4", "half-gaussian-1e-4"])
    def test_small_a(self, identity, a, channels):
        # a = 1e-4 puts the x^(2a-1) endpoint power of the Mellin and density
        # integrals within 2e-4 of the integrability edge
        code, rows = _run_checked(["verify", identity, "--a", a, "--n", "2000"])
        assert code == 0
        assert [r[2] for r in rows] == channels
        assert all(r[5] == "pass" for r in rows)

    def test_ab_half_small_a_split_draws(self):
        # the Jöhnk draw of Beta(0.01, 1/2) forms its logistic from
        # exp(-|d|): 1/(1 + exp(-d)) overflows for d below -709.8
        code, rows = _run_checked(["verify", "ab-half", "--a", "0.01", "--n", "300000",
                                   "--seed", "1"])
        assert code == 0
        assert [r[5] for r in rows] == ["pass", "pass"]

    @pytest.mark.parametrize("b", ["0.05", "0.075"])
    def test_cjmain_small_b(self, b):
        code, rows = _run_checked(["scan", "cjmain", "--a", "0.5", "--b", b,
                                   "--n-samples", "2000"])
        assert code == 0
        assert [r[2] for r in rows] == ["ks", "mellin", "representation"]
        assert float(rows[2][3]) < 1e-12

    @pytest.mark.parametrize("a", ["0.999", "0.9999", "0.999999"])
    def test_thorin_near_unit_a(self, a):
        code, rows = _run_checked(["thorin", "--a", a, "--x", "0.5", "--t", "1:10:3"])
        assert code == 0 and len(rows) == 3

    @pytest.mark.parametrize("a", ["0.01", "0.5", "0.9", "1"])
    def test_thorin_large_x(self, a):
        code, rows = _run_checked(["thorin", "--a", a, "--x", "40", "--t", "0.1:10:4"])
        assert code == 0 and len(rows) == 4

    def test_thorin_unit_a_across_the_middle_sign_change(self):
        code, rows = _run_checked(["thorin", "--a", "1", "--x", "1", "--t", "1.1:1.2:40"])
        assert code == 0 and len(rows) == 40

    @pytest.mark.parametrize("abb", [
        ("0.162978", "0.0684348", "0.104587"), ("0.0419", "0.0251", "0.1198"),
        ("1", "0.5", "200"), ("300", "1", "2"), ("812", "2.573", "71.2")])
    def test_prop_b0_slow_tail_and_large_shapes(self, abb):
        # a + b small puts the multiplier's mass far out on its half-line;
        # with a or b' large, powers such as x^(a-1) overflow when formed apart
        a, b, b_prime = abb
        code, rows = _run_checked(["verify", "prop-b0", "--a", a, "--b", b,
                                   "--b-prime", b_prime, "--n", "3000", "--seed", "1"])
        assert code == 0
        assert [r[2] for r in rows] == ["ks", "mellin", "density"]
        assert float(rows[2][3]) <= 1e-12

    def test_thorin_small_t(self):
        # the lower integral's mass sits near u ~ 1/t = 1e12
        code, rows = _run_checked(["thorin", "--a", "0.6", "--x", "0.5", "--t", "1e-12:1:3"])
        assert code == 0 and len(rows) == 3

    def test_probe_k0_e1_small_z(self):
        # E1(2z) down to z = 1e-12: integrand structure just above u = 0
        code, rows = _run_checked(["probe", "k0-e1", "--z-lo", "1e-12"])
        assert code == 0 and rows

    @pytest.mark.parametrize("z_lo, flags, code", [
        ("1e-40", [], 0), ("1e-45", [], 2), ("1e-60", [], 2), ("1e-100", [], 2),
        ("1e-300", [], 2), ("1.333521432163324e-48", ["--order", "10", "--z-n", "60"], 2),
        ("5.623413251903491e-48", ["--lcm", "--order", "8"], 2)])
    def test_probe_fine_grid_near_zero(self, z_lo, flags, code, capsys):
        # a window's k-th derivative scales as its half-width^-k: past the
        # double range the probe exits 2 naming the window and the order,
        # where it read inconclusive (exit 1) with overflow warnings
        argv = ["probe", "psi-cc", "--a", "0.7", "--c", "0.3", "--c-prime", "-0.5",
                "--z-lo", z_lo, "--z-hi", "50", *flags]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            assert {row[6] for row in list(csv.reader(io.StringIO(out)))[1:]} == {"holds"}
        else:
            assert len(err.splitlines()) == 1
            assert "DomainError: probe window of half-width" in err
            assert "too narrow for derivatives of order" in err

    def test_thorin_unit_a_large_x_small_t(self):
        # g_x(t)^2 overflows here; the density is tiny but positive
        code, rows = _run_checked(["thorin", "--a", "1", "--x", "40", "--t", "0.001953125:1.0:1"])
        assert code == 0 and len(rows) == 1
        assert 0.0 < float(rows[0][5]) < 1e-100


class TestGaussJacobiFactors:
    """The Mellin factors and cjmain's representation checks on the 12/24-node
    corner-split Gauss-Jacobi rule."""

    def test_theorem_b_at_a_tight_mellin_rtol(self):
        code, rows = _run_checked(["verify", "theorem-b", "--a", "0.5", "--b", "0.2",
                                   "--n", "3000", "--seed", "1", "--mellin-rtol", "1e-8"])
        assert code == 0
        assert [(r[2], r[5]) for r in rows] == [("ks", "pass"), ("mellin", "pass")]
        assert float(rows[1][3]) <= 1e-12

    @pytest.mark.parametrize("a", ["545", "600"])
    def test_theorem_a_large_a(self, a):
        code, rows = _run_checked(["verify", "theorem-a", "--a", a, "--n", "3000",
                                   "--seed", "1"])
        assert code == 0
        assert [r[2] for r in rows] == ["ks", "mellin", "density"]
        assert float(rows[1][3]) <= 1e-10

    def test_cjmain_large_a(self):
        # u's power 2a - 1 = 39 and 99 goes into the far rule's panels; one
        # 12-node panel on [1/2, 1] disagreed with 24 nodes at a = 50
        code, rows = _run_checked(["scan", "cjmain", "--a", "20,50", "--b", "0.2",
                                   "--n-samples", "300", "--seed", "1"])
        assert code == 0
        values = {(r[1], r[2]): float(r[3]) for r in rows}
        for a in ("20", "50"):
            for channel in ("mellin", "representation"):
                assert values[(f"a={a};b=0.2", channel)] <= 1e-10, (a, channel)

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-b", "--a", "0.5", "--b", "0.2", "--n", "300"],
        ["verify", "ab-half", "--a", "0.25", "--n", "300"],
        ["verify", "half-gaussian", "--a", "0.5", "--n", "300"],
        ["scan", "cjmain", "--a", "0.5", "--b", "0.2", "--n-samples", "300"],
    ])
    def test_rule_disagreement_exits_2(self, monkeypatch, argv):
        # a 2-node coarse rule cannot agree with the 24-node one
        from bpl import quadrature

        monkeypatch.setattr(quadrature, "_RULE_NODES", (2, 24))
        code, rows = _run_checked(argv + ["--seed", "1"])
        assert code == 2
        errors = [r[3] for r in rows if r[2] == "error"]
        assert len(errors) == 1
        assert errors[0].startswith("QuadratureError: ")
        assert "2- and 24-node rules differ" in errors[0]

    def test_no_large_eigenproblems(self, monkeypatch):
        # OpenBLAS may run eigh on several threads from n of about 26, where
        # some processes stall on every call; every rule stays at 24 nodes
        from bpl.quadrature import jacobi_rule

        sizes = []
        eigh = np.linalg.eigh

        def recording(m, *args, **kwargs):
            sizes.append(np.shape(m)[0])
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        jacobi_rule.cache_clear()
        for argv in (["verify", "theorem-a", "--a", "0.7", "--n", "300"],
                     ["verify", "theorem-b", "--a", "0.5", "--b", "0.2", "--n", "300"],
                     ["verify", "ab-half", "--a", "0.25", "--n", "300"],
                     ["verify", "half-gaussian", "--a", "0.5", "--n", "300"],
                     ["scan", "cjmain", "--a", "0.5,0.8,2", "--b", "0.2",
                      "--n-samples", "300"]):
            code, _ = _run_checked(argv + ["--seed", "1"])
            assert code == 0, argv
        assert sizes and max(sizes) <= 24


_BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1.5"]
_SHAPES = st.one_of(st.floats(min_value=0.01, max_value=1.0).map(repr),
                    st.sampled_from(["1", "0.999999"]))
_X = st.one_of(st.floats(min_value=0.01, max_value=5.0).map(repr),
               st.sampled_from(["1e-9", "40"]))


@st.composite
def _t_grids(draw):
    """Well-formed --t specs lo:hi:n, some near t = 0, some straddling t = 50."""
    lo = draw(st.one_of(st.floats(min_value=1e-3, max_value=120.0),
                        st.sampled_from([1e-12, 45.0, 49.5, 50.0])))
    hi = lo + draw(st.one_of(st.floats(min_value=1e-3, max_value=100.0),
                             st.sampled_from([1.0, 250.0, 800.0])))
    return f"{lo!r}:{hi!r}:{draw(st.integers(1, 6))}"


_ANY_END = st.one_of(st.floats(min_value=1e-3, max_value=120.0).map(repr),
                     st.sampled_from(["50", "300"] + _BAD_NUMBERS))


class TestThorinFuzz:
    """Exit code contract of thorin over a, x and --t grids: exit code in
    {0, 1, 2}, no traceback, bounded time, and exit 1 only for a decreasing
    cdf column."""

    @settings(max_examples=40, deadline=None)
    @given(a=_SHAPES, x=_X, grid=_t_grids())
    # f + 2 cos(pi a) + 1/f was exactly 0 here: density inf and a
    # divide-by-zero warning, with exit 0
    @example(a=repr(1.0 - 2.0 ** -53), x="1.0", grid="1.0:2.0:1")
    def test_valid_parameters(self, a, x, grid):
        self._check(a, x, grid)

    @settings(max_examples=60, deadline=None)
    @given(a=st.one_of(_SHAPES, st.sampled_from(_BAD_NUMBERS)),
           x=st.one_of(_X, st.sampled_from(_BAD_NUMBERS)),
           lo=_ANY_END, hi=_ANY_END, n=st.integers(-1, 6))
    def test_any_parameters(self, a, x, lo, hi, n):
        self._check(a, x, f"{lo}:{hi}:{n}")

    @staticmethod
    def _check(a, x, grid):
        code, rows = _run_checked(["thorin", f"--a={a}", f"--x={x}", f"--t={grid}"])
        if code == 2:
            assert rows == []
            return
        cdf = [float(r[4]) for r in rows]
        drops = [c1 - c2 for c1, c2 in zip(cdf, cdf[1:])]
        # the CLI's slack is 1e-9; the CSV rounds to 12 significant digits
        if code == 1:
            assert max(drops) > 1e-9 - 1e-11
        else:
            assert all(d <= 1e-9 + 1e-11 for d in drops)


def _values(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def _lists(lo, hi, min_size=1):
    return st.lists(st.floats(min_value=lo, max_value=hi), min_size=min_size,
                    max_size=3).map(lambda vs: ",".join(map(repr, vs)))


_BAD_VALUES = ["0", "-1", "nan", "inf", "abc", "", ",", "0.5,0.5,", "1,2"]

# each target's flags with values inside its domain
_VERIFY_DOMAINS = {
    "theorem-a": {"--a": _lists(0.05, 4.0)},
    "theorem-b": {"--a": st.just("0.5"), "--b": _values(0.05, 0.45)},
    "prop-b0": {"--a": _values(0.2, 3.0), "--b": _values(0.2, 1.0),
                "--b-prime": _values(1.2, 3.0)},
    "ab-half": {"--a": _values(0.05, 0.45)},
    "free": {flag: _values(0.3, 3.0) for flag in ("--a", "--b", "--c", "--d")},
    "half-gaussian": {"--a": _values(0.05, 4.0)},
    "cor34": {"--a": _values(0.05, 4.0)},
}
_PROBE_DOMAINS = {
    "psi-cc": {"--a": _values(0.1, 3.0), "--c": _values(-1.0, 0.9),
               "--c-prime": _values(-2.0, -1.0)},
    "psi-doubling": {"--a": _values(0.1, 3.0), "--c": _values(-1.0, 1.5)},
    "hermite-doubling": {"--nu": _values(0.2, 3.0)},
    "k0-e1": {},
    "turan-hermite": {"--nu": _values(0.2, 3.0), "--c": _values(0.1, 2.0)},
    "turan-psi": {"--a": _values(0.1, 3.0), "--c": _values(-1.0, 0.9),
                  "--lambda": _values(0.1, 1.0)},
}
_SCAN_DOMAINS = {
    "cjmain": {"--a": _lists(0.3, 2.5), "--b": _values(0.05, 0.45),
               "--n-samples": st.integers(6, 60).map(str)},
    "cmcj": {"--a": _values(0.2, 2.0), "--c": _lists(-1.0, 1.5)},
    "cmmi": {"--n": st.lists(st.sampled_from("012"), min_size=1, max_size=3,
                             unique=True).map(",".join)},
    "thorin-order": {"--a": _lists(0.1, 1.0, min_size=2), "--b": _values(0.2, 2.0),
                     "--t": st.sampled_from(["0.5:4:3", "0.2:8:2", "1:2:1"])},
    "conjhyp": {"--a": _lists(0.05, 0.45)},
    "kumma": {"--a": _values(0.2, 2.0), "--c": _values(0.2, 0.9),
              "--c-prime": _values(-0.5, 0.1)},
}


@st.composite
def _invocations(draw, command, domains, valid, common):
    """argv for one target: its flags in its domain, and unless valid also
    bad values, omitted flags and up to two flags of other targets."""
    target = draw(st.sampled_from(sorted(domains)))
    argv = [command, target]
    for flag, values in domains[target].items():
        choice = "valid" if valid else draw(st.sampled_from(["valid", "bad", "omit"]))
        if choice == "valid":
            argv.append(f"{flag}={draw(values)}")
        elif choice == "bad":
            argv.append(f"{flag}={draw(st.sampled_from(_BAD_VALUES))}")
    others = sorted({f for d in domains.values() for f in d} - set(domains[target]))
    if not valid and others:
        for flag in draw(st.lists(st.sampled_from(others), max_size=2, unique=True)):
            argv.append(f"{flag}={draw(st.sampled_from(['0.5', '1', '-1']))}")
    return argv + draw(common)


def _check_contract(argv, failed, errored=lambda row: False):
    """Exit 0: rows, none failing; exit 1: a failing row and no error row;
    exit 2: no CSV, or an error row."""
    code, rows = _run_checked(argv)
    if code == 0:
        assert rows and not any(failed(r) or errored(r) for r in rows)
    elif code == 1:
        assert any(failed(r) for r in rows) and not any(errored(r) for r in rows)
    else:
        assert rows == [] or any(errored(r) for r in rows)


# --n near the smallest sample size with KS power keeps each case short
_VERIFY_COMMON = st.tuples(
    st.integers(6, 200), st.integers(0, 3),
    st.sampled_from(["1e-15", "1e-6", "1e-3"]), st.sampled_from(["1", "1.1"]),
).map(lambda t: ["--n", str(t[0]), "--seed", str(t[1]), "--mellin-rtol", t[2],
                 "--negative-control", t[3]])
_PROBE_COMMON = st.tuples(
    st.sampled_from([[], [], ["--lcm"], ["--monotone"]]),
    st.one_of(st.just([]), st.integers(-2, 12).map(lambda n: ["--order", str(n)])),
    st.integers(-1, 60),
).map(lambda t: [*t[0], *t[1], "--z-n", str(t[2])])
_SCAN_COMMON = st.integers(0, 3).map(lambda s: ["--seed", str(s)])


def _verify_failed(row):
    return row[2] != "error" and row[5] == "fail"


def _probe_failed(row):
    return row[7] != "" and row[6] != row[7]


class TestCommandFuzz:
    """Exit code contract of verify, probe and scan over targets, values in
    and out of each target's domain, and flags other targets read: exit code
    in {0, 1, 2}, no traceback, bounded time, exit 1 only with a failing row
    and exit 0 only with rows that all pass."""

    @settings(max_examples=15, deadline=None)
    @given(argv=_invocations("verify", _VERIFY_DOMAINS, True, _VERIFY_COMMON))
    def test_verify_valid(self, argv):
        _check_contract(argv, _verify_failed, lambda r: r[2] == "error")

    @settings(max_examples=30, deadline=None)
    @given(argv=_invocations("verify", _VERIFY_DOMAINS, False, _VERIFY_COMMON))
    def test_verify_any(self, argv):
        _check_contract(argv, _verify_failed, lambda r: r[2] == "error")

    @settings(max_examples=15, deadline=None)
    @given(argv=_invocations("probe", _PROBE_DOMAINS, True, _PROBE_COMMON))
    def test_probe_valid(self, argv):
        _check_contract(argv, _probe_failed)

    @settings(max_examples=30, deadline=None)
    @given(argv=_invocations("probe", _PROBE_DOMAINS, False, _PROBE_COMMON))
    def test_probe_any(self, argv):
        _check_contract(argv, _probe_failed)

    @settings(max_examples=15, deadline=None)
    @given(argv=_invocations("scan", _SCAN_DOMAINS, True, _SCAN_COMMON))
    def test_scan_valid(self, argv):
        _check_contract(argv, lambda r: r[4] == "FAIL", lambda r: r[2] == "error")

    @settings(max_examples=30, deadline=None)
    @given(argv=_invocations("scan", _SCAN_DOMAINS, False, _SCAN_COMMON))
    def test_scan_any(self, argv):
        _check_contract(argv, lambda r: r[4] == "FAIL", lambda r: r[2] == "error")
