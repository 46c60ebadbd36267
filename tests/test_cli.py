"""Command line front end: CSV schema, exit codes, determinism, seed fallback."""

import csv
import os
import threading

import pytest

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

            def rhs(rng, n):
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
        # draws stay on the calling thread; only the KS sorts and scans fan out
        assert threads == [threading.main_thread()]

    def test_error_in_ks_worker_thread_is_error_row(self, tmp_path, monkeypatch):
        from bpl import identities
        from bpl.errors import DomainError

        threads = []

        def refuse(own, other):
            threads.append(threading.current_thread())
            raise DomainError("side scan refused")

        monkeypatch.setattr(identities, "_ks_side", refuse)
        code, _, rows = _run_csv(["verify", "theorem-a", "--a", "1", "--n", "1000",
                                  "--seed", "1"], tmp_path)
        assert code == 2
        assert len(rows) == 1 and rows[0][2] == "error"
        assert rows[0][3] == "DomainError: side scan refused"
        assert threads and threading.main_thread() not in threads

    def test_cmmi_non_integer_order(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["scan", "cmmi", "--n", "0,1.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "integers" in err and "Traceback" not in err
        assert not out.exists()
