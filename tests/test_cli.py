"""CLI: subcommands, exit codes, trace stats, report determinism."""

import json

import pytest

from systolic import cli


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_polygcd_command(capsys):
    code, out, _ = run_cli(capsys, "polygcd", "--p", "7", "--a", "6,5,1", "--b", "3,0,1")
    assert code == 0
    assert "gcd: 2,1 mod 7" in out
    assert "latency:" in out


def test_polygcd_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "polygcd",
                           "--p", "2", "--a", "1,1", "--b", "1,1")
    payload = json.loads(out)
    assert code == 0 and payload["gcd"] == [1, 1] and payload["cells"] == 3


def test_intgcd_modes(capsys):
    for mode in ("serial", "precursor", "systolic"):
        code, out, _ = run_cli(capsys, "intgcd", "--a", "12", "--b", "18", "--mode", mode)
        assert code == 0 and "gcd: 6" in out


def test_toeplitz_and_trace_stats(tmp_path, capsys):
    bands = tmp_path / "bands.txt"
    rhs = tmp_path / "rhs.txt"
    trace = tmp_path / "trace.jsonl"
    bands.write_text("0\n2\n4\n1\n0\n")
    rhs.write_text("5\n7\n6\n")
    code, out, _ = run_cli(capsys, "--trace", str(trace), "toeplitz",
                           "--n", "2", "--bands", str(bands), "--rhs", str(rhs))
    assert code == 0 and trace.exists()
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(out)
    assert code == 0
    assert stats["ticks"] == 9
    assert 0.0 < stats["mean_utilisation"] <= 1.0


def test_trace_stats_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(empty))
    stats = json.loads(out)
    assert code == 0
    assert stats == {"ticks": 0, "cells": {}, "mean_utilisation": 0.0}


def test_eigen_command(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n3\n1 3\n")
    code, out, _ = run_cli(capsys, "--format", "json", "eigen", "--matrix", str(mtx),
                           "--vectors")
    payload = json.loads(out)
    assert code == 0
    assert sorted(round(v, 10) for v in payload["eigenvalues"]) == [2.0, 4.0]
    assert len(payload["eigenvectors"]) == 2


def test_eigen_delayed_mode(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("3\n2\n1 2\n0 1 2\n")
    code, out, _ = run_cli(capsys, "eigen", "--matrix", str(mtx), "--mode", "delayed")
    assert code == 0 and "converged: True" in out


def test_verify_families_pass(capsys):
    for family in ("polygcd", "intgcd", "toeplitz", "eigen"):
        code, out, _ = run_cli(capsys, "--seed", "5", "verify", family, "--count", "2")
        assert code == 0, (family, out)
        assert "pass" in out.splitlines()[-1]


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_verify_polygcd",
        lambda rng, count: ([{"index": 0, "pass": False}], {}, []))
    code, _, _ = run_cli(capsys, "verify", "polygcd", "--count", "1")
    assert code == 1


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify", "nosuchfamily")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "toeplitz", "--n", "2", "--bands", "/nonexistent",
                   "--rhs", "/nonexistent")[0] == 2


def test_numerical_breakdown_exit_3(tmp_path, capsys):
    bands = tmp_path / "bands.txt"
    rhs = tmp_path / "rhs.txt"
    bands.write_text("1\n1\n0\n1\n1\n")  # a_0 = 0
    rhs.write_text("1\n1\n1\n")
    code, _, err = run_cli(capsys, "toeplitz", "--n", "2",
                           "--bands", str(bands), "--rhs", str(rhs))
    assert code == 3
    assert "breakdown" in err


def test_simulation_error_exit_3(capsys, monkeypatch):
    from systolic import engine, polygcd

    def broken(*args, **kwargs):
        raise engine.SimulationError("no GCD emerged for pair 0")

    monkeypatch.setattr(polygcd, "systolic_poly_gcd", broken)
    code, _, err = run_cli(capsys, "polygcd", "--p", "7", "--a", "6,5,1", "--b", "3,0,1")
    assert code == 3
    assert err == "simulation error: no GCD emerged for pair 0\n"


def _toeplitz_with_bands(tmp_path, capsys, bands_text):
    bands = tmp_path / "bands.txt"
    rhs = tmp_path / "rhs.txt"
    bands.write_text(bands_text)
    rhs.write_text("1\n1\n1\n")
    return run_cli(capsys, "toeplitz", "--n", "2", "--bands", str(bands), "--rhs", str(rhs))


def test_nan_band_is_a_usage_error(tmp_path, capsys):
    code, out, err = _toeplitz_with_bands(tmp_path, capsys, "0\n2\nnan\n1\n0\n")
    assert code == 2 and out == ""
    assert err == "error: diagonals and rhs must be finite\n"


def test_inf_band_is_a_usage_error(tmp_path, capsys):
    code, out, err = _toeplitz_with_bands(tmp_path, capsys, "0\n2\ninf\n1\n0\n")
    assert code == 2 and out == ""
    assert err == "error: diagonals and rhs must be finite\n"


def test_nan_matrix_is_a_usage_error(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n1\nnan 3\n")
    code, out, err = run_cli(capsys, "eigen", "--matrix", str(mtx))
    assert code == 2 and out == ""
    assert err == "error: matrix entries must be finite\n"


@pytest.mark.parametrize("text", ["", "0\n", "-1\n", "2.5\n1\n0 3\n"])
def test_bad_matrix_size_is_a_usage_error(tmp_path, capsys, text):
    mtx = tmp_path / "m.txt"
    mtx.write_text(text)
    code, out, err = run_cli(capsys, "eigen", "--matrix", str(mtx))
    assert code == 2 and out == ""
    assert err == "error: matrix size n must be a positive integer\n"


def test_diagonal_matrix_needs_no_sweep_in_either_mode(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n1\n0 3\n")
    for mode in ("broadcast", "delayed"):
        code, out, _ = run_cli(capsys, "eigen", "--matrix", str(mtx), "--mode", mode)
        assert code == 0
        assert "sweeps: 0" in out.splitlines(), mode

def test_reports_are_deterministic(capsys, tmp_path):
    outs = []
    for run in range(2):
        trace = tmp_path / f"t{run}.jsonl"
        code, out, _ = run_cli(capsys, "--seed", "9", "--trace", str(trace),
                               "verify", "toeplitz", "--count", "3")
        assert code == 0
        outs.append((out, trace.read_bytes()))
    assert outs[0] == outs[1]


def test_trace_stats_toeplitz_quarter_utilisation(tmp_path, capsys):
    # mean cell activity of the two-phase schedule sits near 25%
    import numpy as np
    from systolic.toeplitz import ToeplitzBands, systolic_toeplitz_solve
    n = 16
    rng = np.random.default_rng(1)
    d = rng.uniform(-1, 1, 2 * n + 1)
    d[n] = np.sum(np.abs(d)) + 1.0
    tb = ToeplitzBands(n, tuple(d), tuple(rng.uniform(-1, 1, n + 1)))
    trace = tmp_path / "toep.jsonl"
    systolic_toeplitz_solve(tb).trace.write_jsonl(trace)
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(out)
    assert code == 0
    assert 0.20 <= stats["mean_utilisation"] <= 0.30


def test_trace_stats_delayed_jacobi_third_utilisation(tmp_path, capsys):
    import numpy as np
    from systolic.eigen import run_sweeps
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    a = q @ np.diag(rng.uniform(-4, 4, 16)) @ q.T
    a = 0.5 * (a + a.T)
    res = run_sweeps(a, mode="delayed", trace=True)
    trace = tmp_path / "jac.jsonl"
    res.report.trace.write_jsonl(trace)
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(out)
    assert code == 0
    diag = [v for key, v in stats["cells"].items()
            if key.split(",")[0] == key.split(",")[1]]
    assert diag and all(0.28 <= f <= 0.38 for f in diag)
