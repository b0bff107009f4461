"""CLI: subcommands, exit codes, trace stats, report determinism."""

import hashlib
import json

import numpy as np
import pytest

import figures

from systolic import cli
from systolic.engine import to_jsonl


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def toeplitz_args(tmp_path, n, bands, rhs):
    """The toeplitz command's arguments, its band and rhs files written from
    the texts given."""
    (tmp_path / "bands.txt").write_text(bands)
    (tmp_path / "rhs.txt").write_text(rhs)
    return ("toeplitz", "--n", str(n), "--bands", str(tmp_path / "bands.txt"),
            "--rhs", str(tmp_path / "rhs.txt"))


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


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_polygcd_reduces_coefficients_mod_p(capsys, fmt):
    # 13,-2,8,0 and 10,7,1 are 6,5,1 and 3,0,1 mod 7, one with a zero top term
    raw = run_cli(capsys, "--format", fmt, "polygcd", "--p", "7",
                  "--a", "13,-2,8,0", "--b", "10,7,1")
    reduced = run_cli(capsys, "--format", fmt, "polygcd", "--p", "7",
                      "--a", "6,5,1", "--b", "3,0,1")
    assert raw == reduced and raw[0] == 0


def test_polygcd_of_two_zero_polynomials_mod_p_is_a_usage_error(capsys):
    # 0,7 and 14 are both zero mod 7
    code, out, err = run_cli(capsys, "polygcd", "--p", "7", "--a", "0,7", "--b", "14")
    assert code == 2 and out == ""
    assert err == "error: gcd(0, 0) is undefined\n"


def test_intgcd_modes(capsys):
    for mode in ("serial", "precursor", "systolic"):
        code, out, _ = run_cli(capsys, "intgcd", "--a", "12", "--b", "18", "--mode", mode)
        assert code == 0 and "gcd: 6" in out


def test_toeplitz_and_trace_stats(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "--trace", str(trace),
                           *toeplitz_args(tmp_path, 2, "0\n2\n4\n1\n0\n", "5\n7\n6\n"))
    assert code == 0 and trace.exists()
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(out)
    assert code == 0
    assert stats["ticks"] == 9
    assert 0.0 < stats["mean_utilisation"] <= 1.0
    # blank lines between records are skipped
    trace.write_text(trace.read_text().replace("\n", "\n\n  \n", 3))
    assert run_cli(capsys, "--format", "json", "trace-stats", str(trace))[1] == out


@pytest.mark.parametrize("argv", [
    "polygcd --p 7 --a 6,5,1 --b 3,0,1 --variant fig4",
    "intgcd --a 132 --b 36 --bits 8 --mode systolic",
    "toeplitz --n 2 --bands {bands} --rhs {rhs} --mode systolic",
    "eigen --matrix {matrix} --mode delayed",
], ids=["polygcd", "intgcd", "toeplitz", "eigen"])
def test_each_command_that_runs_an_array_traces_its_ticks(tmp_path, capsys, argv):
    # the usage lines under "Command line" in README.md, given --trace
    paths = {"bands": tmp_path / "bands.txt", "rhs": tmp_path / "rhs.txt",
             "matrix": tmp_path / "m.txt"}
    paths["bands"].write_text("0 2 4 1 0\n")
    paths["rhs"].write_text("5 7 6\n")
    paths["matrix"].write_text("3\n4\n1 3\n0.5 -1 2\n")
    trace = tmp_path / "trace.jsonl"
    assert run_cli(capsys, "--trace", str(trace), *argv.format(**paths).split())[0] == 0
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    assert code == 0 and json.loads(out)["ticks"] > 0


@pytest.mark.parametrize("family", ["polygcd", "intgcd", "toeplitz", "eigen"])
def test_trace_stats_sums_the_runs_of_a_verify_trace(tmp_path, capsys, family):
    # five runs in one file, on the one plan every family reuses: no cell is
    # active on more ticks than the runs take
    trace = tmp_path / "vt.jsonl"
    code, out, _ = run_cli(capsys, "--trace", str(trace), "--format", "json",
                           "verify", family, "--count", "5", "--seed", "1")
    assert code == 0
    code, text, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(text)
    assert code == 0 and stats["cells"]
    assert all(0.0 < f <= 1.0 for f in stats["cells"].values())
    if family == "toeplitz":
        # an order-n solve takes 4n + 1 ticks, and cell 0 is clocked on
        # 2n + 1 of them
        ns = [inst["n"] for inst in json.loads(out)["instances"] if "n" in inst]
        assert len(set(ns)) > 1
        assert stats["ticks"] == sum(4 * n + 1 for n in ns)
        assert stats["cells"]["0,0"] == sum(2 * n + 1 for n in ns) / stats["ticks"]


def test_trace_stats_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(empty))
    stats = json.loads(out)
    assert code == 0
    assert stats == {"ticks": 0, "cells": {}, "mean_utilisation": 0.0}


@pytest.mark.parametrize("text", ["{}", "[1,2]", '{"tick":"a","row":0,"col":0}',
                                  '{"tick":-5,"row":0,"col":0}',
                                  '{"tick":0,"row":-1,"col":-7}', "not json"])
def test_trace_stats_rejects_a_line_that_is_not_a_record(tmp_path, capsys, text):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"tick":0,"row":0,"col":0}\n' + text + "\n")
    code, out, err = run_cli(capsys, "trace-stats", str(trace))
    assert code == 2 and out == ""
    assert "line 2 is not a trace record" in err and "Traceback" not in err


@pytest.mark.parametrize("mode, bits", [("systolic", "-5"), ("precursor", "-2"),
                                        ("serial", "-1")])
def test_intgcd_negative_bits_is_a_usage_error(capsys, mode, bits):
    code, out, err = run_cli(capsys, "intgcd", "--a", "3", "--b", "5",
                             "--bits", bits, "--mode", mode)
    assert code == 2 and out == ""
    assert err == "error: intgcd: --bits must not be negative\n"


@pytest.mark.parametrize("mode", ["systolic", "precursor"])
def test_intgcd_word_size_beyond_the_bound_is_a_usage_error(capsys, mode):
    # refused before any range check, which compares bit lengths, so
    # 2**99999999999 is never built
    code, out, err = run_cli(capsys, "intgcd", "--a", "1", "--b", "1",
                             "--bits", "99999999999", "--mode", mode)
    assert code == 2 and out == ""
    assert err.startswith("error: word size n must ") and err.endswith(" 1024, got 99999999999\n")
    # a word size fitted to the operands is bounded too, and the bound itself runs
    code, _, err = run_cli(capsys, "intgcd", "--a", str(2**1024 + 1), "--b", "3", "--mode", mode)
    assert code == 2 and err.endswith(" 1024, got 1025\n")
    if mode == "precursor":
        code, out, _ = run_cli(capsys, "intgcd", "--a", "2", "--b", "4", "--bits", "1024",
                               "--mode", mode)
        assert code == 0 and out.startswith("gcd: 2\n")


def test_eigen_command(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n3\n1 3\n")
    code, out, _ = run_cli(capsys, "--format", "json", "eigen", "--matrix", str(mtx),
                           "--vectors")
    payload = json.loads(out)
    assert code == 0
    assert sorted(round(v, 10) for v in payload["eigenvalues"]) == [2.0, 4.0]
    assert len(payload["eigenvectors"]) == 2


@pytest.mark.parametrize("lower, expected", [
    pytest.param("0\n1e-11 0", [-1e-11, 1e-11], id="1e-11"),
    pytest.param("0\n1e+200 0", [-1e200, 1e200], id="1e+200"),
    pytest.param("1e308\n1e308 -1e308", [-1.4142135623730951e+308, 1.4142135623730951e+308],
                 id="1e+308"),
    pytest.param("1e308\n1e308 1e308", None, id="2e+308-overflows"),
])
def test_eigen_tiny_and_huge_matrices(tmp_path, capsys, lower, expected):
    # the stop rule is relative, and the working matrix is scaled so that
    # nothing overflows; a result beyond the float range is an input error
    mtx = tmp_path / "m.txt"
    mtx.write_text(f"2\n{lower}\n")
    for mode in ("broadcast", "delayed"):
        code, out, err = run_cli(capsys, "--format", "json", "eigen", "--matrix", str(mtx),
                                 "--mode", mode)
        if expected is None:
            assert code == 2 and "float range" in err, mode
            continue
        payload = json.loads(out)
        assert code == 0 and payload["sweeps"] == 1, mode
        assert sorted(payload["eigenvalues"]) == pytest.approx(expected, rel=1e-12), mode


def test_eigen_signed_zeros_print_alike_in_both_modes(tmp_path, capsys):
    # an identity rotation turns a -0.0 diagonal entry into 0.0 in both schedules
    mtx = tmp_path / "m.txt"
    mtx.write_text("5\n0\n-2 -0\n0 0 2\n0 0 0 -0\n0 0 0 0 4\n")
    outs = []
    for mode in ("broadcast", "delayed"):
        code, out, _ = run_cli(capsys, "eigen", "--matrix", str(mtx), "--mode", mode)
        assert code == 0, mode
        outs.append(out)
    assert outs[0] == outs[1]


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


def test_verify_trace_covers_every_family(tmp_path, capsys):
    for family in ("polygcd", "intgcd", "toeplitz", "eigen"):
        trace = tmp_path / f"{family}.jsonl"
        code, _, _ = run_cli(capsys, "--seed", "42", "--trace", str(trace),
                             "verify", family, "--count", "2")
        assert code == 0, family
        assert trace.stat().st_size > 0, family


def test_verify_failure_exit_code(capsys, monkeypatch):
    from systolic import toeplitz
    from systolic.oracle import SingularMatrixError

    def failing(rng, count, trace):
        yield {"index": 0, "pass": False}, []
    monkeypatch.setitem(cli.VERIFIERS, "polygcd", (failing, {}))
    code, _, _ = run_cli(capsys, "verify", "polygcd", "--count", "1")
    assert code == 1
    # a Toeplitz solve that returns on the singular probe fails the probe
    solve = toeplitz.systolic_toeplitz_solve

    def no_breakdown(bands, **kwargs):
        try:
            return solve(bands, **kwargs)
        except SingularMatrixError:
            return None

    monkeypatch.setattr(toeplitz, "systolic_toeplitz_solve", no_breakdown)
    code, out, _ = run_cli(capsys, "verify", "toeplitz", "--count", "1")
    assert code == 1 and "note=singular instance did not raise" in out


@pytest.mark.parametrize("family", ["polygcd", "intgcd", "toeplitz", "eigen"])
def test_a_failing_verify_still_writes_every_runs_trace(tmp_path, capsys, monkeypatch, family):
    # the report and the trace go out together, after the verdict
    runner, fields = cli.VERIFIERS[family]

    def last_fails(rng, count, trace):
        for inst, traces in runner(rng, count, trace):
            yield {**inst, "pass": inst["index"] != count - 1}, traces

    passing, failing = tmp_path / "pass.jsonl", tmp_path / "fail.jsonl"
    assert run_cli(capsys, "--trace", str(passing), "verify", family, "--count", "2")[0] == 0
    monkeypatch.setitem(cli.VERIFIERS, family, (last_fails, fields))
    code, out, _ = run_cli(capsys, "--trace", str(failing), "verify", family, "--count", "2")
    assert code == 1 and f"{family}[1] " in out and "FAIL" in out
    assert failing.read_bytes() == passing.read_bytes() != b""


def test_verify_eigen_fails_a_run_that_did_not_converge(capsys, monkeypatch):
    # right eigenvalues from a sweep loop that ran out of sweeps still fail
    from systolic import eigen
    real = eigen.run_sweeps

    def unconverged(a, **kwargs):
        res = real(a, **kwargs)
        res.report.converged = False
        return res

    monkeypatch.setattr(eigen, "run_sweeps", unconverged)
    code, out, _ = run_cli(capsys, "verify", "eigen", "--count", "1")
    assert code == 1
    assert out.splitlines()[0].endswith(" FAIL") and "0/1 pass" in out


# sha256 of verify's human stdout, json stdout and trace file for
# `--seed 7 --trace FILE verify <family> --count 4`
VERIFY_DIGESTS = {
    "polygcd": ("ae84098382719f8eb123a15b61c4c22959e965fc89e33496d6c215d195a9450e",
                "ab6bb98aa8e24cad44557b282af66c2dd8fd101b2b0b5331378603201ee7c68d",
                "82ff3286658733c4769bf532c2def46ee0a568867b27ef645cfe01df3b1807bc"),
    "intgcd": ("4b0f63f50dd6924085715d251ce533da7b1b26cab625c777ba2337ffee09b3eb",
               "a5a78fb4d638cba462599c6ab71ce521f7238c3b48f227c3f7e6f223daf9ff65",
               "5bab1aac1d848076c6a23ac3e75eeb26cb767ef0b941213c7b7a599419d1cc9c"),
    "toeplitz": ("2cf5872ea6ae2192a67a9a2ffecef7afaed2bcc4800029121dccd25a00010e44",
                 "fc6b3ed1d00d4bfc9d0d0ad002bece60dcab97f437195a330af70441c151e70c",
                 "669121b981b9913a4e40aaafd7a004ca24d4329ede3d80ac834a4fff8aface28"),
    "eigen": ("afe6f3d606d47a9bbe58079688d1bcd16bd25939934be6317f075931bec9bcc6",
              "41d3493b7570cd30e913a5382c60e3d840defe2932f8ecf018f99eef230ab418",
              "e39e911ef8352cb9153f169031bde8f394f8ca744f80ac25344ba8f1cd0f2376"),
}


@pytest.mark.parametrize("family", sorted(VERIFY_DIGESTS))
def test_verify_bytes_are_pinned(tmp_path, capsys, family):
    human, as_json, trace_digest = VERIFY_DIGESTS[family]
    for fmt, digest in (("human", human), ("json", as_json)):
        trace = tmp_path / f"{fmt}.jsonl"
        code, out, err = run_cli(capsys, "--format", fmt, "--seed", "7", "--trace", str(trace),
                                 "verify", family, "--count", "4")
        assert code == 0 and err == "", fmt
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest, fmt


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_count_below_one_is_a_usage_error(capsys, count):
    code, out, err = run_cli(capsys, "verify", "intgcd", "--count", count)
    assert code == 2 and out == "" and "--count must be at least 1" in err


@pytest.mark.parametrize("sweeps", ["0", "-1"])
def test_eigen_max_sweeps_below_one_is_a_usage_error(tmp_path, capsys, sweeps):
    # no sweep would leave the diagonal of [[1, 2], [2, 3]] as its "eigenvalues"
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n1\n2 3\n")
    for mode in ("broadcast", "delayed"):
        code, out, err = run_cli(capsys, "eigen", "--matrix", str(mtx), "--mode", mode,
                                 "--max-sweeps", sweeps)
        assert code == 2 and out == "" and "max_sweeps must be at least 1" in err, mode


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify", "nosuchfamily")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "toeplitz", "--n", "2", "--bands", "/nonexistent",
                   "--rhs", "/nonexistent")[0] == 2


def test_numerical_breakdown_exit_3(tmp_path, capsys):
    a0_zero = "1\n1\n0\n1\n1\n"
    code, _, err = run_cli(capsys, *toeplitz_args(tmp_path, 2, a0_zero, "1\n1\n1\n"))
    assert code == 3
    assert "breakdown" in err


def test_simulation_error_exit_3(capsys, monkeypatch):
    from systolic import engine, intgcd, polygcd

    def broken(*args, **kwargs):
        raise engine.SimulationError("no GCD emerged for pair 0")

    polygcd_args = ("polygcd", "--p", "7", "--a", "6,5,1", "--b", "3,0,1")
    with monkeypatch.context() as m:
        m.setattr(polygcd, "systolic_poly_gcd", broken)
        code, _, err = run_cli(capsys, *polygcd_args)
    assert code == 3
    assert err == "simulation error: no GCD emerged for pair 0\n"
    # stand-in cells, each the drivers' own check refuses: a fig4 cell that
    # writes only zeros, so no start bit comes out; one that passes the
    # start bit on but no coefficient; an integer GCD cell of zeros
    _, init, lag = polygcd.DESIGNS["fig4"]
    for step, message in (
            (lambda state, ins, tick: (state, (0, 0, 0, 0)),
             "expected 1 output frames, saw 0 start bits"),
            (lambda state, ins, tick: (state, (0, 0) + ins[2:]), "no GCD emerged for pair 0")):
        with monkeypatch.context() as m:
            m.setitem(polygcd.DESIGNS, "fig4", (lambda field, step=step: step, init, lag))
            code, _, err = run_cli(capsys, *polygcd_args)
        assert (code, err) == (3, f"simulation error: {message}\n")
    pipeline = intgcd._gcd_pipeline

    def zeros(n_cells, frame_len):
        spec, programs = pipeline(n_cells, frame_len)
        step = lambda state, ins, tick: (state, (0,) * 6)
        return spec, {cell: engine.CellProgram(step, p.init) for cell, p in programs.items()}

    monkeypatch.setattr(intgcd, "_gcd_pipeline", zeros)
    code, _, err = run_cli(capsys, "intgcd", "--a", "132", "--b", "36")
    assert (code, err) == (3, "simulation error: start bit never reached the right edge\n")


def _toeplitz_with_bands(tmp_path, capsys, bands_text, *args):
    return run_cli(capsys, *toeplitz_args(tmp_path, 2, bands_text, "1\n1\n1\n"), *args)


@pytest.mark.parametrize("bands_text, mode, why", [
    pytest.param("0\n0\n0\n0\n0\n", "serial", "a_0 is (numerically) zero", id="all-zero-serial"),
    pytest.param("0\n0\n0\n0\n0\n", "systolic", "a_0 is (numerically) zero",
                 id="all-zero-systolic"),
    pytest.param("1\n1\n0\n1\n1\n", "serial", "a_0 is (numerically) zero", id="a0-zero-serial"),
    pytest.param("1\n1\n0\n1\n1\n", "systolic", "a_0 is (numerically) zero",
                 id="a0-zero-systolic"),
    pytest.param("1\n1\n1\n1\n1\n", "serial", "leading principal minor 1 is singular",
                 id="minor-1-serial"),
    pytest.param("1\n1\n1\n1\n1\n", "systolic", "leading principal minor 1 is singular",
                 id="minor-1-systolic"),
    # 1e-12 * 1e-320 underflows to a zero tolerance, and x_2 = 1 / 1e-320 to inf
    pytest.param("0\n0\n1e-320\n0\n0\n", "serial", "x_2 is not finite", id="x-overflows-serial"),
    pytest.param("0\n0\n1e-320\n0\n0\n", "systolic", "x_2 is not finite",
                 id="x-overflows-systolic"),
])
def test_zero_pivot_breaks_down_in_both_modes(tmp_path, capsys, bands_text, mode, why):
    # the pivot rule 1e-12 * max|a_k| has no floor; a zero pivot still fails
    # it, and both modes name the failing step in the same words
    code, out, err = _toeplitz_with_bands(tmp_path, capsys, bands_text, "--mode", mode)
    assert code == 3 and out == ""
    assert err == f"numerical breakdown: {why}\n"


GROWTH = "numerical breakdown: a multiplier of elimination step 1 exceeds 2^26\n"


def near_singular_args(tmp_path, n, a0, seed):
    """toeplitz arguments for a_0 = a0, a_{+-1} = 1, a_k = 0.1^|k| and a
    seeded right-hand side."""
    col = [a0, 1.0] + [0.1 ** k for k in range(2, n + 1)]
    return toeplitz_args(tmp_path, n, "\n".join(repr(col[abs(k)]) for k in range(-n, n + 1)),
                         "\n".join(map(str, np.random.default_rng(seed).uniform(-1.0, 1.0, n + 1))))


@pytest.mark.parametrize("mode", ["serial", "systolic"])
def test_near_singular_leading_minor_breaks_down_in_both_modes(tmp_path, capsys, mode):
    # a_0 = 1e-9 (n = 15, kappa = 12): a_0 passes the pivot rule
    # 1e-12 * max|a_k|, but the first multiplier, 1e9, exceeds the growth
    # bound, on the array and serially alike
    code, out, err = run_cli(capsys, *near_singular_args(tmp_path, 15, 1e-9, 0), "--mode", mode)
    assert code == 3 and out == ""
    assert err == GROWTH


@pytest.mark.parametrize("n, a0", [(31, 1e-9), (63, 1e-9), (15, 1e-11)])
def test_the_near_singular_family_breaks_down_alike_in_both_modes(tmp_path, capsys, n, a0):
    # multipliers reach 1e18 to 1e29, and unchecked both modes solved to an
    # x with a relative error of 1e5 to 1e14
    args = near_singular_args(tmp_path, n, a0, n)
    for mode in ("serial", "systolic"):
        assert run_cli(capsys, *args, "--mode", mode) == (3, "", GROWTH)


@pytest.mark.parametrize("argv, text, message", [
    pytest.param("toeplitz --n 1 --bands {bad} --rhs {ok}", "1 x 2",
                 "--bands file {bad}: 'x' is not a number", id="bands"),
    pytest.param("toeplitz --n 1 --bands {ok} --rhs {bad}", "1 1e",
                 "--rhs file {bad}: '1e' is not a number", id="rhs"),
    pytest.param("eigen --matrix {bad}", "2\n1\n2 y\n",
                 "--matrix file {bad}: 'y' is not a number", id="matrix"),
    pytest.param("polygcd --p 7 --a 1,x --b 3", "", "--a: 'x' is not an integer", id="coeffs-a"),
    pytest.param("polygcd --p 7 --a 1,2 --b 1,,2", "", "--b: '' is not an integer",
                 id="coeffs-b"),
    pytest.param("intgcd --a 0 --b 5 --mode serial", "", "intgcd: inputs must be positive",
                 id="intgcd-serial"),
    pytest.param("intgcd --a 0 --b 5 --mode precursor", "", "intgcd: inputs must be positive",
                 id="intgcd-precursor"),
    pytest.param("polygcd --p 4 --a 1,1 --b 1", "", "modulus 4 is not prime", id="modulus"),
])
def test_a_bad_number_is_a_usage_error_naming_its_input(tmp_path, capsys, argv, text, message):
    paths = {"bad": tmp_path / "bad.txt", "ok": tmp_path / "ok.txt"}
    paths["bad"].write_text(text)
    paths["ok"].write_text("1 2 3\n")
    code, out, err = run_cli(capsys, *argv.format(**paths).split())
    assert code == 2 and out == ""
    assert err == f"error: {message.format(**paths)}\n"


def test_negative_order_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, *toeplitz_args(tmp_path, -1, "", ""))
    assert code == 2 and out == ""
    assert err == "error: n must be at least 0, got -1\n"


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


@pytest.mark.parametrize("text", ["", "0\n", "-1\n", "2.5\n1\n0 3\n", "nan\n", "inf\n",
                                  "-inf\n", "1e400\n"])
def test_bad_matrix_size_is_a_usage_error(tmp_path, capsys, text):
    mtx = tmp_path / "m.txt"
    mtx.write_text(text)
    code, out, err = run_cli(capsys, "eigen", "--matrix", str(mtx))
    assert code == 2 and out == ""
    assert err == "error: matrix size n must be a positive integer\n"


def test_extra_matrix_entries_are_a_usage_error(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n1\n0 3\n9 9\n")
    code, out, err = run_cli(capsys, "eigen", "--matrix", str(mtx))
    assert code == 2 and out == ""
    assert err == "error: matrix file needs 3 entries, found 5\n"


def test_eigen_trace_needs_delayed_mode(tmp_path, capsys):
    mtx = tmp_path / "m.txt"
    mtx.write_text("2\n3\n1 3\n")
    trace = tmp_path / "t.jsonl"
    code, out, err = run_cli(capsys, "--trace", str(trace), "eigen", "--matrix", str(mtx))
    assert code == 2 and out == "" and not trace.exists()
    assert "--mode delayed" in err
    code, _, _ = run_cli(capsys, "--trace", str(trace), "eigen", "--matrix", str(mtx),
                         "--mode", "delayed")
    assert code == 0 and trace.read_text()


@pytest.mark.parametrize("argv, message", [
    (("intgcd", "--a", "12", "--b", "18", "--mode", "serial"),
     "--trace needs --mode systolic: serial mode runs no array"),
    (("intgcd", "--a", "12", "--b", "18", "--mode", "precursor"),
     "--trace needs --mode systolic: precursor mode runs no array"),
    (("toeplitz", "--n", "1", "--bands", "MISSING", "--rhs", "MISSING", "--mode", "serial"),
     "--trace needs --mode systolic: serial mode runs no array"),
    (("eigen", "--matrix", "MISSING"),
     "--trace needs --mode delayed: broadcast mode runs no array"),
    (("trace-stats", "MISSING"),
     "--trace needs a command that runs an array: trace-stats runs no array"),
], ids=["intgcd-serial", "intgcd-precursor", "toeplitz-serial", "eigen-broadcast",
        "trace-stats"])
def test_trace_is_refused_where_no_array_runs(tmp_path, capsys, argv, message):
    # the input files do not exist: the refusal comes before any input is read
    missing = str(tmp_path / "missing")
    argv = [missing if a == "MISSING" else a for a in argv]
    trace = tmp_path / "t.jsonl"
    code, out, err = run_cli(capsys, "--trace", str(trace), *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not trace.exists()


@pytest.mark.parametrize("argv, refusal", [
    (("intgcd", "--a", "12", "--b", "18"), None),
    (("polygcd", "--p", "7", "--a", "6,5,1", "--b", "3,0,1"), None),
    (("eigen", "--matrix", "m.txt", "--mode", "delayed"), None),
    (("verify", "intgcd", "--count", "1"), None),
    (("intgcd", "--a", "12", "--b", "18", "--mode", "serial"),
     "--trace needs --mode systolic: serial mode runs no array"),
], ids=["intgcd-systolic", "polygcd", "eigen-delayed", "verify", "intgcd-serial"])
def test_empty_trace_name_is_not_dropped(tmp_path, capsys, monkeypatch, argv, refusal):
    # an empty file name asks for a trace too: the write fails before any
    # output, or the command refuses --trace as for any other name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text("2\n3\n1 3\n")
    code, out, err = run_cli(capsys, "--trace", "", *argv)
    assert code == 2 and out == ""
    if refusal is None:
        assert err.startswith("error: ") and "''" in err
    else:
        assert err == f"error: {refusal}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


def test_toeplitz_traces_only_when_asked(tmp_path, capsys, monkeypatch):
    from systolic import toeplitz
    asked = []
    real = toeplitz.systolic_toeplitz_solve

    def spy(bands, *args, trace=True, **kwargs):
        asked.append(trace)
        return real(bands, *args, trace=trace, **kwargs)

    monkeypatch.setattr(toeplitz, "systolic_toeplitz_solve", spy)
    assert run_cli(capsys, *toeplitz_args(tmp_path, 2, "0\n2\n4\n1\n0\n", "5\n7\n6\n"))[0] == 0
    assert run_cli(capsys, "verify", "toeplitz", "--count", "2")[0] == 0
    assert asked and not any(asked)
    asked.clear()
    trace = tmp_path / "t.jsonl"
    assert run_cli(capsys, "--trace", str(trace), "verify", "toeplitz", "--count", "2")[0] == 0
    assert asked == [True, True, False]  # the singular probe's trace is never written
    assert trace.read_text()


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
    trace.write_text(to_jsonl(systolic_toeplitz_solve(tb).trace))
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
    trace.write_text(to_jsonl(res.report.trace))
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(out)
    assert code == 0
    diag = [v for key, v in stats["cells"].items()
            if key.split(",")[0] == key.split(",")[1]]
    assert diag and all(0.28 <= f <= 0.38 for f in diag)


def test_trace_stats_on_a_delayed_jacobi_trace_matches_the_plan_s_utilisation(tmp_path, capsys):
    # the mean utilisation trace-stats reads from a --trace file is the
    # activations in the plan's schedule over the run's ticks, per cell and
    # tick, as CI prints it at n = 32
    import random
    n = 8
    a = cli.gen_symmetric(random.Random(1), n)
    mtx, trace = tmp_path / "m.txt", tmp_path / "jac.jsonl"
    mtx.write_text(f"{n}\n" + "".join(" ".join(repr(float(a[i, j])) for j in range(i + 1)) + "\n"
                                      for i in range(n)))
    code, _, _ = run_cli(capsys, "--trace", str(trace), "eigen", "--matrix", str(mtx),
                         "--mode", "delayed")
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "json", "trace-stats", str(trace))
    stats = json.loads(out)
    activations, ticks, cells, _ = figures.delayed_jacobi_activations(a)
    assert code == 0 and stats["ticks"] == ticks and len(stats["cells"]) == cells
    assert stats["mean_utilisation"] == pytest.approx(activations / (cells * ticks), rel=1e-12)
    assert 0.30 < stats["mean_utilisation"] < 0.36
