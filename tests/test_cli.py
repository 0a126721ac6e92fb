"""Command-line surface: exit codes, determinism, file formats, verify gate."""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qrmt
from qrmt.cli import _gap_theta_grid, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_curve_csv(path):
    xs, vs = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("x,"):
                continue
            x, v, _ = line.strip().split(",")
            xs.append(float(x))
            vs.append(float(v))
    return np.array(xs), np.array(vs)


# ------------------------------------------------------------------- sample

def test_sample_writes_expected_files(tmp_path, capsys):
    out = str(tmp_path / "a")
    code, _, _ = run(
        ["sample", "--n", "4", "--lambda", "1.0", "--count", "6", "--seed", "3",
         "--out", out], capsys,
    )
    assert code == 0
    with open(os.path.join(out, "spectra.csv"), encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert lines[0].strip() == "e1,e2,e3,e4"
    assert len(lines) == 7
    evs = [float(v) for v in lines[3].strip().split(",")]
    assert evs == sorted(evs)


def test_sample_deterministic_across_runs_and_threads(tmp_path, capsys):
    args = ["sample", "--n", "3", "--q", "1.2", "--count", "10", "--seed", "11"]
    outs = []
    for name, extra in (("t1", ["--threads", "1"]), ("t2", ["--threads", "3"]),
                        ("t3", ["--threads", "1"])):
        out = str(tmp_path / name)
        code, _, _ = run(args + ["--out", out] + extra, capsys)
        assert code == 0
        outs.append(_digest(os.path.join(out, "spectra.csv")))
    assert outs[0] == outs[1] == outs[2]


def test_sample_raw_matrices(tmp_path, capsys):
    out = str(tmp_path / "raw")
    code, _, _ = run(
        ["sample", "--n", "2", "--q", "1.0", "--count", "3", "--out", out, "--raw"],
        capsys,
    )
    assert code == 0
    with open(os.path.join(out, "matrices.csv"), encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert lines[0].strip() == "h11,h12,h21,h22"
    vals = lines[1].strip().split(",")
    assert vals[1] == vals[2]  # symmetry survives the round trip


def test_sample_manifest_structure(tmp_path, capsys):
    out = str(tmp_path / "m")
    code, _, _ = run(
        ["sample", "--n", "3", "--lambda", "2.0", "--count", "4", "--seed", "9",
         "--out", out], capsys,
    )
    assert code == 0
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        man = json.load(fh)
    assert list(man.keys()) == [
        "tool_version", "command", "params", "master_seed", "sample_count",
        "started", "finished", "outputs",
    ]
    assert man["master_seed"] == 9
    assert man["sample_count"] == 4
    assert man["params"]["lambda"] == 2.0
    for entry in man["outputs"]:
        assert set(entry) == {"path", "sha256"}
        assert _digest(os.path.join(out, entry["path"])) == entry["sha256"]


# -------------------------------------------------------------- curve modes

def test_density_curve_even_and_csv(tmp_path, capsys):
    out = str(tmp_path / "d")
    code, _, _ = run(
        ["density", "--n", "6", "--lambda", "1.5", "--alpha", "0.9",
         "--grid=-3:3:21", "--out", out], capsys,
    )
    assert code == 0
    x, v = _read_curve_csv(os.path.join(out, "curve.csv"))
    assert len(x) == 21
    assert np.allclose(v, v[::-1], rtol=0, atol=1e-10)  # even in E
    assert np.all(v >= 0)


def test_element_curve_matches_cauchy(tmp_path, capsys):
    out = str(tmp_path / "e")
    code, _, _ = run(
        ["element", "--n", "2", "--lambda", "0.5", "--alpha", "0.5",
         "--entry", "diag", "--grid=-4:4:17", "--out", out], capsys,
    )
    assert code == 0
    x, v = _read_curve_csv(os.path.join(out, "curve.csv"))
    ref = 1.0 / (math.pi * (1 + x * x))
    assert np.max(np.abs(v - ref)) < 1e-8


def test_gap_curve_starts_at_full_probability(tmp_path, capsys):
    out = str(tmp_path / "g")
    code, _, _ = run(
        ["gap", "--n", "5", "--lambda", "1.0", "--theta-max", "1.5",
         "--points", "12", "--out", out], capsys,
    )
    assert code == 0
    s, e = _read_curve_csv(os.path.join(out, "curve.csv"))
    assert s[0] == 0.0 and e[0] == 1.0
    assert np.all(np.diff(e) <= 1e-12)  # nonincreasing in s


def test_gap_curve_at_theta_whose_square_underflows(tmp_path, capsys):
    # theta^2 underflows to 0 at every grid point: the saturation point is
    # infinite and the curve is E = 1 at s ~ 0, not a division by zero
    out = str(tmp_path / "g")
    code, _, err = run(
        ["gap", "--n", "5", "--lambda", "1.5", "--theta-max", "1e-200",
         "--points", "3", "--out", out], capsys,
    )
    assert code == 0, err
    s, e = _read_curve_csv(os.path.join(out, "curve.csv"))
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(e))
    assert np.all(e == 1.0) and np.all((s >= 0.0) & (s < 1e-190))


def test_density_json_format(tmp_path, capsys):
    out = str(tmp_path / "j")
    code, _, _ = run(
        ["density", "--n", "4", "--lambda", "1.0", "--format", "json",
         "--grid", "0:2:5", "--out", out], capsys,
    )
    assert code == 0
    with open(os.path.join(out, "curve.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "level_density"
    assert len(doc["x"]) == len(doc["value"]) == 5
    assert doc["params"]["n"] == 4
    assert doc["quadrature_error"] >= 0.0


def test_svg_output(tmp_path, capsys):
    out = str(tmp_path / "s")
    code, _, _ = run(
        ["density", "--n", "4", "--lambda", "1.0", "--grid=-2:2:15",
         "--svg", "--out", out], capsys,
    )
    assert code == 0
    with open(os.path.join(out, "plot.svg"), encoding="utf-8") as fh:
        body = fh.read()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_gaussian_density_via_q_flag(tmp_path, capsys):
    out = str(tmp_path / "gauss")
    code, _, _ = run(
        ["density", "--n", "10", "--q", "1.0", "--alpha", "0.5",
         "--grid=-4:4:9", "--out", out], capsys,
    )
    assert code == 0
    x, v = _read_curve_csv(os.path.join(out, "curve.csv"))
    from qrmt.analytic import semicircle_density

    assert np.allclose(v, semicircle_density(x, 10, 0.5), atol=1e-12)


def test_gaussian_density_default_grid_spans_the_semicircle(tmp_path, capsys):
    # --alpha auto on the Gaussian member is n/2, so the grid is +-1.2 sqrt(2)
    out = str(tmp_path / "d1")
    code, _, _ = run(["density", "--n", "5", "--q", "1", "--out", out], capsys)
    assert code == 0
    x, _ = _read_curve_csv(os.path.join(out, "curve.csv"))
    lim = 1.2 * math.sqrt(5 / 2.5)
    assert len(x) == 201 and x[0] == -lim and x[-1] == lim


# --------------------------------------------------------------- exit codes

def test_exit_2_on_q_above_qmax(tmp_path, capsys):
    code, _, err = run(
        ["sample", "--n", "3", "--q", "2.0", "--count", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "q_max" in err


def test_exit_2_on_nonpositive_lambda(tmp_path, capsys):
    code, _, err = run(
        ["density", "--n", "3", "--lambda", "-1.0", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_exit_2_on_bad_grid(tmp_path, capsys):
    code, _, err = run(
        ["density", "--n", "3", "--lambda", "1.0", "--grid", "3:1:10",
         "--out", str(tmp_path)], capsys,
    )
    assert code == 2


def test_exit_2_on_grid_without_a_count(tmp_path, capsys):
    out = tmp_path / "d"
    code, stdout, err = run(["density", "--n", "3", "--lambda", "1.0", "--grid=1:2", "--out", str(out)],
                            capsys)
    assert code == 2
    assert err == "error: grid must be 'min:max:count', got '1:2'\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("q", ["1.0", "0.5"])
def test_exit_2_on_gap_outside_heavy_branch(q, tmp_path, capsys):
    code, _, err = run(["gap", "--n", "5", "--q", q, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n,lam", [(20, "20"), (5, "40")])
def test_exit_5_on_gap_curve_that_fails_its_checks(n, lam, tmp_path, capsys):
    # the quadrature loses monotonicity at large lambda: a typed numerical
    # failure, not a traceback, and nothing is written
    code, out, err = run(["gap", "--n", str(n), "--lambda", lam, "--out", str(tmp_path)], capsys)
    assert code == 5
    assert err == f"error: gap probabilities must be nonincreasing at n={n}, lambda={lam}\n"
    assert out == "" and os.listdir(tmp_path) == []


def test_exit_5_on_level_density_overflow(tmp_path, capsys):
    code, _, err = run(
        ["density", "--n", "10", "--lambda", "300", "--alpha", "1", "--grid=-1:1:5",
         "--out", str(tmp_path)], capsys,
    )
    assert code == 5
    assert err.startswith("error: level density amplitude overflows float64") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "5", "--lambda", "2", "--theta-max", "inf"],
    ["density", "--n", "5", "--lambda", "2", "--grid=0:inf:5"],
    # finite, but its first theta point theta-max/300 underflows to 0
    ["gap", "--n", "5", "--lambda", "2", "--theta-max", "5e-324"],
], ids=["theta-max", "grid", "theta-max-underflow"])
def test_exit_2_on_nonfinite_numbers(argv, tmp_path, capsys):
    code, out, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
    assert out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("points", ["2", "1", "0"])
def test_exit_2_on_a_gap_grid_that_cannot_reach_theta_max(points, tmp_path, capsys):
    # the grid is 0, theta-max/300, ..., theta-max: two points used to stop at theta-max/300
    out_dir = tmp_path / "g"
    code, out, err = run(["gap", "--n", "5", "--lambda", "2", "--theta-max", "3", "--points", points,
                          "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == ("error: need a finite theta-max whose theta-max/300 is > 0, and points >= 3 "
                   f"(0, theta-max/300 and theta-max), got 3.0, {points}\n")
    assert out == "" and not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gap_theta_grid_ends_at_theta_max():
    for theta_max in (1e-300, 0.3, 1.5, 3.0, 7.123, 1e300, 1.7976931348623157e308):
        for points in range(3, 200):
            grid = _gap_theta_grid(theta_max, points)
            assert len(grid) == points and grid[0] == 0.0 and grid[-1] == theta_max
            assert grid[1] == theta_max / 300.0 and np.all(np.diff(grid) > 0.0)


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3", "--lambda", "1.5", "--count", "5", "--seed", "-5"],
    ["reproduce", "fig2", "--samples", "50", "--seed", "-1"],
    ["reproduce", "fig1", "--samples", "50", "--seed", "-1"],
    ["verify", "--suite", "samplers", "--seed", "-1"],
    # these suites draw nothing, and the manifest mode reads no seed
    ["verify", "--suite", "specfun", "--seed", "-1"],
    ["verify", "--suite", "analytic", "--seed", "-1"],
    ["verify", "--manifest", "manifest.json", "--seed", "-1"],
], ids=["sample", "reproduce", "reproduce-fig1", "verify", "verify-specfun", "verify-analytic",
        "verify-manifest"])
def test_exit_2_on_negative_seed(argv, tmp_path, capsys):
    # sample and reproduce reject the seed before they create --out or write a file,
    # verify before it prints a TAP line
    out_dir = tmp_path / "d"
    if argv[0] != "verify":
        argv = argv + ["--out", str(out_dir)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: master seed must be a nonnegative integer, got -")
    assert err.count("\n") == 1
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, flag", [
    (["sample", "--n", "2", "--lambda", "1", "--count", "-5"], "--count"),
    (["sample", "--n", "2", "--lambda", "1", "--count", "0"], "--count"),
    (["reproduce", "fig2", "--samples", "-5"], "--samples"),
    (["reproduce", "fig2", "--samples", "0"], "--samples"),
    (["reproduce", "fig1", "--samples", "0"], "--samples"),
    (["sample", "--n", "2", "--lambda", "1", "--count", str(2**32)], "--count"),
    (["reproduce", "fig2", "--samples", str(2**32)], "--samples"),
], ids=["sample-negative", "sample-zero", "fig2-negative", "fig2-zero", "fig1-zero",
        "sample-2**32", "fig2-2**32"])
def test_exit_2_on_count_out_of_range(argv, flag, tmp_path, capsys):
    # the count is rejected, like the seed, before --out is created or a file written
    out_dir = tmp_path / "d"
    code, _, err = run(argv + ["--out", str(out_dir)], capsys)
    assert code == 2
    assert err.startswith(f"error: {flag} must be at least 1 and below 2**32, got ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_5_on_infinite_default_density_grid(tmp_path, capsys):
    # e_char overflows at lambda = 1e308, so the default grid has no finite half-width
    out_dir = tmp_path / "d"
    code, out, err = run(["density", "--n", "2", "--lambda", "1e308", "--alpha", "1", "--out", str(out_dir)],
                         capsys)
    assert code == 5
    assert err.startswith("error: the default grid's half-width, 2 sqrt(n/alpha) + 5 e_char")
    assert "is not finite at n=2, lambda=1e+308" in err and err.endswith("; give --grid\n")
    assert out == "" and not out_dir.exists()


def test_exit_2_on_auto_alpha_overflow(tmp_path, capsys):
    code, _, err = run(
        ["sample", "--n", "10", "--lambda", "0.001", "--count", "5", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: alpha = n^(2/sigma)/2 overflows float64 at n = 10, sigma = 0.002")
    assert "--alpha" in err and err.count("\n") == 1


def test_exit_5_on_mixture_with_negative_error_estimate(tmp_path, capsys):
    code, out, err = run(["density", "--n", "10", "--lambda", "50", "--out", str(tmp_path)], capsys)
    assert code == 5
    assert err.startswith("error: level_density_mixture has no finite, checked value")
    assert err.count("\n") == 1 and out == "" and os.listdir(tmp_path) == []


def test_exit_5_on_density_whose_cross_check_disagrees(tmp_path, capsys):
    # at lambda = 100 the mixture route returns 2.9e23 with error estimate 0
    # where the closed form gives 1.9: the curve has no checked value
    code, out, err = run(["density", "--n", "10", "--lambda", "100", "--out", str(tmp_path)], capsys)
    assert code == 5
    assert err.startswith("error: density_curve: the mixture cross-check is off by ")
    assert "at n=10, lambda=100" in err
    assert err.count("\n") == 1 and out == "" and os.listdir(tmp_path) == []


def test_exit_5_on_density_whose_mixture_cross_check_has_no_oracle(tmp_path, capsys):
    # at E = +-1, t = n lambda/(alpha E^2) = 5e-300: the mixture route is 18% low there, where its
    # error estimate is 1e-14 of its value, so the curve has no checked value
    out_dir = tmp_path / "d"
    code, out, err = run(["density", "--n", "5", "--lambda", "1e-300", "--alpha", "1", "--grid=-1:1:3",
                          "--out", str(out_dir)], capsys)
    assert code == 5
    assert err == ("error: level_density_mixture has no checked value at E=1.0, n=5, lambda=1e-300: "
                   "t = n lambda/(alpha E^2) = 5e-300 is below 1e-200, where the quadrature drifts from "
                   "the density\n")
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize("lam", ["1e-300", "5e-17"])
def test_exit_5_on_gap_at_lambda_below_float64_resolution(lam, tmp_path, capsys):
    code, out, err = run(["gap", "--n", "5", "--lambda", lam, "--alpha", "1", "--out", str(tmp_path)],
                         capsys)
    assert code == 5
    assert err.startswith(f"error: gap_curve: lambda={float(lam)!r} is too small for float64")
    assert err.count("\n") == 1 and out == "" and os.listdir(tmp_path) == []


def test_exit_2_on_alpha_that_is_not_a_number(tmp_path, capsys):
    out_dir = tmp_path / "d"
    code, out, err = run(["sample", "--n", "3", "--q", "0.5", "--count", "2", "--alpha", "abc",
                          "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == "error: alpha must be a number or 'auto', got 'abc'\n"
    assert out == "" and not out_dir.exists()


@pytest.fixture
def no_memory_for_huge_arrays(monkeypatch):
    """Stand-ins that raise MemoryError where these commands would allocate terabytes.

    No test asks for such an array for real: under overcommit, a huge request
    can succeed on paper and then exhaust the machine.
    """
    def refusing(real):
        def stand_in(start, stop, num, *args, **kwargs):
            if num > 2**32:  # numpy's own message for such a request
                raise MemoryError(f"Unable to allocate {num * 8 / 2**40:.1f} TiB for an array "
                                  f"with shape ({num},) and data type float64")
            return real(start, stop, num, *args, **kwargs)
        return stand_in

    def spectra_from_samples(samples):
        raise MemoryError()  # a bare one, as a failing allocation without numpy's message

    monkeypatch.setattr(np, "linspace", refusing(np.linspace))
    monkeypatch.setattr(np, "geomspace", refusing(np.geomspace))
    monkeypatch.setattr(qrmt.spectral, "spectra_from_samples", spectra_from_samples)


@pytest.mark.parametrize("argv, message", [
    (["element", "--n", "5", "--lambda", "2", "--grid=0:1:10000000000000"],
     "error: out of memory: Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"),
    (["gap", "--n", "5", "--lambda", "2", "--points", "10000000000000"],
     "error: out of memory: Unable to allocate 72.8 TiB for an array with shape (9999999999999,)"),
    (["sample", "--n", "1000", "--lambda", "2", "--count", "4294967295"], "error: out of memory"),
    (["reproduce", "fig1", "--samples", "4294967295"], "error: out of memory"),
    (["reproduce", "fig2", "--samples", "4294967295"], "error: out of memory"),
], ids=["element-grid", "gap-points", "sample-count", "fig1-samples", "fig2-samples"])
def test_exit_2_when_an_array_does_not_fit_in_memory(argv, message, tmp_path, capsys,
                                                     no_memory_for_huge_arrays):
    # one error line and no traceback; the run fails before it writes any file
    out_dir = tmp_path / "d"
    code, out, err = run(argv + ["--out", str(out_dir)], capsys)
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3", "--q", "0.5", "--count", "4", "--raw"],
    ["density", "--n", "6", "--lambda", "1.5", "--grid=-3:3:21", "--svg", "--format", "json"],
    ["reproduce", "fig1", "--samples", "200"],
    ["reproduce", "fig2", "--samples", "500"],
], ids=["sample-raw", "density-svg-json", "fig1", "fig2"])
def test_every_file_written_is_in_the_manifest(argv, tmp_path, capsys):
    out = str(tmp_path / "run")
    code, _, _ = run(argv + ["--out", out], capsys)
    assert code in (0, 4)  # fig2's 500 samples fail its acceptance check by design
    listed = [entry["path"] for entry in _manifest(out)["outputs"]]
    assert len(listed) == len(set(listed))
    assert set(os.listdir(out)) - {"manifest.json"} == set(listed)


def test_exit_3_on_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, err = run(
        ["sample", "--n", "2", "--q", "1.0", "--count", "1",
         "--out", str(blocker / "sub")], capsys,
    )
    assert code == 3
    assert "io error" in err


def test_argparse_failure_propagates_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def _child_env() -> dict:
    # the child imports the qrmt under test, also when only pytest's
    # `pythonpath` setting put it on sys.path
    src = os.path.dirname(os.path.dirname(qrmt.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_version_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "qrmt", "--version"], capture_output=True, text=True, env=_child_env(),
    )
    assert out.returncode == 0
    assert out.stdout.startswith("qrmt ")


def test_exit_5_when_the_default_grid_is_infinite(tmp_path):
    # e_char = sqrt(n lambda/alpha) overflows: refused before any array work, so
    # numpy never warns about an infinite linspace or an inf/inf divide
    out = subprocess.run(
        [sys.executable, "-m", "qrmt", "density", "--n", "2", "--lambda", "1e308", "--alpha", "1",
         "--out", str(tmp_path / "d")], capture_output=True, text=True, env=_child_env(),
    )
    assert out.returncode == 5
    assert out.stderr.startswith("error: the default grid's half-width") and out.stderr.count("\n") == 1
    assert "characteristic energy e_char = inf" in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert out.stdout == "" and not (tmp_path / "d").exists()


@pytest.mark.parametrize("cmd", ["element", "density"])
def test_exit_2_when_the_grid_span_overflows(cmd, tmp_path):
    # both ends are finite but hi - lo is not: refused before linspace, so
    # numpy never warns and no grid point is nan
    out = subprocess.run(
        [sys.executable, "-m", "qrmt", cmd, "--n", "5", "--lambda", "2", "--grid=-1e308:1e308:3",
         "--out", str(tmp_path / "d")], capture_output=True, text=True, env=_child_env(),
    )
    assert out.returncode == 2
    assert out.stderr == ("error: grid needs max > min with a finite span max - min, "
                          "and count >= 2, got '-1e308:1e308:3'\n")
    assert out.stdout == "" and not (tmp_path / "d").exists()


def test_main_reuses_one_parser_and_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    # each call of a sequence in one process against the same call made first,
    # with a parser built for it alone
    calls = [  # (argv, whether it writes an --out directory)
        (["--bogus"], False),
        (["--version"], False),
        (["density", "--n", "5", "--lambda", "1.5"], True),
        (["gap", "--n", "5", "--lambda", "1.5", "--points", "8"], True),
        (["sample", "--n", "3", "--q", "0.5", "--count", "4", "--raw"], True),
        (["verify", "--suite", "specfun"], False),
    ]

    def call(k, argv, writes, tag):
        out = tmp_path / f"{tag}{k}"
        code = main(argv + ["--out", str(out)] if writes else argv)
        captured = capsys.readouterr()
        # manifest.json holds the run's start and finish times
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "manifest.json"} if writes else {}
        return code, captured.out.replace(str(out), "<out>"), captured.err, files

    first = []
    for k, (argv, writes) in enumerate(calls):
        qrmt.cli._parser.cache_clear()
        first.append(call(k, argv, writes, "first"))
    assert [r[0] for r in first] == [2, 0, 0, 0, 0, 0]
    assert first[0][2].startswith("usage: qrmt") and first[1][1].startswith("qrmt ")
    assert list(first[3][3]) == ["curve.csv"] and list(first[4][3]) == ["matrices.csv", "spectra.csv"]

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    qrmt.cli._parser.cache_clear()
    for k, (argv, writes) in enumerate(calls):
        assert call(k, argv, writes, "again") == first[k]
        if k == 0:
            assert built and built[0] == "qrmt"  # the one parser, with its subparsers
            del built[:]
    assert built == []


def test_import_and_sample_load_no_scipy(tmp_path):
    # sampling needs only numpy: scipy loads on the first analytic call
    code = (
        "import sys\n"
        "import qrmt, qrmt.cli as cli\n"
        "assert cli.main(['sample', '--n', '4', '--q', '0.5', '--count', '20', '--raw',\n"
        "                 '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "run")], capture_output=True, text=True,
        env=_child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert os.path.isfile(tmp_path / "run" / "matrices.csv")


def test_parser_and_params_run_neither_analytic_nor_spectral(tmp_path):
    # a module counts as run once it is a plain module in sys.modules: the CLI
    # holds analytic and spectral as modules whose code runs on first use
    code = (
        "import sys, types\n"
        "import qrmt.cli as cli\n"
        "from qrmt.params import EnsembleParams\n"
        "def ran(name):\n"
        "    return type(sys.modules.get(name)) is types.ModuleType\n"
        "def report():\n"
        "    names = ['qrmt.analytic', 'qrmt.spectral', 'numpy.polynomial', 'scipy',\n"
        "             *(m for m in sys.modules if m.startswith('scipy.'))]\n"
        "    print([name for name in names if ran(name)])\n"
        "cli.build_parser()\n"
        "EnsembleParams.from_lambda(10, 1.5, alpha='auto')\n"
        "report()\n"
        "assert cli.main(['--version']) == 0 and cli.main(['density', '--n', '0']) == 2\n"
        "report()\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['density', '--n', '3', '--lambda', '2', '--out', out]) == 0\n"
        "assert cli.main(['verify', '--manifest', out + '/manifest.json']) == 0\n"
        "print(ran('qrmt.analytic'), ran('qrmt.spectral'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "run")], capture_output=True, text=True,
        env=_child_env(),
    )
    assert out.returncode == 0, out.stderr
    lines = [line for line in out.stdout.splitlines() if line.startswith(("[", "True", "False"))]
    assert lines == ["[]", "[]", "True False"]


def test_a_patch_on_analytic_after_first_use_reaches_the_cli(tmp_path, monkeypatch, capsys):
    # the CLI holds the one qrmt.analytic module, not a copy of its names
    argv = ["gap", "--n", "5", "--lambda", "2", "--points", "6", "--out"]
    assert main([*argv, str(tmp_path / "first")]) == 0
    real = qrmt.analytic.gap_curve
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qrmt.analytic, "gap_curve", counting)
    assert main([*argv, str(tmp_path / "second")]) == 0
    assert len(calls) == 1
    capsys.readouterr()
    assert _digest(tmp_path / "first" / "curve.csv") == _digest(tmp_path / "second" / "curve.csv")


def _count_analytic_quads(monkeypatch) -> list:
    """Put a stand-in for qrmt.analytic.integrate in place; the list collects one entry per quad call."""
    real = qrmt.analytic.integrate
    calls = []

    class Counting:
        @staticmethod
        def quad(*args, **kwargs):
            calls.append(kwargs.get("wvar"))
            return real.quad(*args, **kwargs)

        def __getattr__(self, attr):
            return getattr(real, attr)

    monkeypatch.setattr(qrmt.analytic, "integrate", Counting())
    return calls


def test_gap_curve_quadratures_go_through_analytic_integrate(monkeypatch, capsys):
    # a stand-in for qrmt.analytic.integrate sees every QUADPACK call of the
    # analytic layer, each a QAWS call with its wvar, and none of the CLI's own
    calls = _count_analytic_quads(monkeypatch)
    assert main(["verify", "--suite", "analytic"]) == 0
    capsys.readouterr()
    assert calls and None not in calls
    calls.clear()
    p = qrmt.EnsembleParams.from_lambda(5, 1.5, alpha="auto")
    curve = qrmt.analytic.gap_curve(p, np.array([0.0, 0.2, 0.5]))
    assert len(calls) == 4  # E and s at each theta > 0; theta = 0 needs no quadrature
    assert curve.values[0] == 1.0


_P15 = qrmt.EnsembleParams.from_lambda(5, 1.5, alpha=1.0)


# QAWS's wvar at lambda = 1.5: the Gamma weight's exponent, lambda - 1/2 for the mixture and
# lambda - 1 for the GOE laws, and the power of the kernel's zero at its kink
_MIX, _MIX_KINK, _GOE = (1.0, 0.0), (1.0, 0.5), (0.5, 0.0)


@pytest.mark.parametrize("call,wvars", [
    (lambda: qrmt.analytic.level_density_mixture(0.0, _P15), [_MIX]),
    (lambda: qrmt.analytic.level_density_mixture(0.7, _P15), [_MIX_KINK]),  # kink below the truncation
    (lambda: qrmt.analytic.level_density_mixture(0.1, _P15), [_MIX]),  # kink past it
    (lambda: qrmt.analytic.mean_count(0.5, _P15), [_GOE]),
    (lambda: qrmt.analytic.mean_count(0.0, _P15), []),
    (lambda: qrmt.analytic.gap_probability(0.5, _P15), [_GOE]),
    (lambda: qrmt.analytic.gap_probability(0.0, _P15), []),
    (lambda: qrmt.analytic.gap_probability_bulk(np.array([0.0, 0.5, 2.0]), 1.5), [_GOE, _GOE]),
    (lambda: qrmt.analytic.gap_probability_bulk(0.0, 1.5), []),
    (lambda: qrmt.analytic.gap_probability_bulk(np.array([0.5, 2.0]), 1.0), []),  # closed form
], ids=["mixture-E0", "mixture-kink", "mixture-truncated", "count", "count-theta0", "gap", "gap-theta0",
        "bulk", "bulk-s0", "bulk-lambda1"])
def test_each_gamma_average_is_one_quadpack_call(monkeypatch, call, wvars):
    # what the bench tracer counts as analytic.quad_calls: one call per average, none where
    # the law is exact without one
    calls = _count_analytic_quads(monkeypatch)
    call()
    assert calls == wvars


# ------------------------------------------------------------------- verify

def test_verify_specfun_tap_deterministic(capsys):
    code1, out1, _ = run(["verify", "--suite", "specfun"], capsys)
    code2, out2, _ = run(["verify", "--suite", "specfun"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("1..")
    k = int(lines[0].split("..")[1])
    points = [l for l in lines[1:] if not l.startswith("#")]
    assert len(points) == k
    for i, line in enumerate(points, start=1):
        assert line.startswith(f"ok {i} - ")


# the 31 checks of `verify --suite all`, in the order they print
VERIFY_ALL_CHECKS = [
    "bessel_k half-integer closed form",
    "bessel_k(1,1) anchor",
    "kummer_m(1,2,-1) closed form",
    "erf(1) anchor",
    "ln_gamma(7.25) anchor",
    "levy_density cauchy point",
    "levy_density oscillatory anchor",
    "kummer transform consistency",
    "goe diagonal variance",
    "goe off-diagonal variance",
    "gamma-mixture trace mean",
    "restricted-trace support",
    "bounded-trace radial law",
    "stable sigma=2 variance",
    "stable sigma=1.5 char fn at k=1",
    "determinism per-index streams",
    "log partition f=1 anchor",
    "element density mass",
    "level density mass",
    "mixture route vs closed form",
    "gap curve anchored and monotone",
    "mean count vs density integral",
    "bulk gap closed form vs quadrature",
    "joint eigenvalue density mass (n=2)",
    "pauli-x eigenvalues",
    "trace identities",
    "rotation invariance of spectra",
    "hill estimator on pareto(1)",
    "goe spacings vs wigner surmise",
    "ks statistic on own law",
    "empirical gap near analytic",
]


def test_verify_all_passes_every_check_in_order(capsys):
    code, out, _ = run(["verify", "--suite", "all"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1..31" and lines[-1] == "# 31/31 passed"
    assert [l.split(" # ")[0] for l in lines[1:-1]] == [
        f"ok {i} - {name}" for i, name in enumerate(VERIFY_ALL_CHECKS, start=1)
    ]


# sha256 of the whole `verify --suite all` stdout, metrics included, per seed
GOLDEN_VERIFY_ALL = {
    7: "1a70fc46b016d5d205975ed7a5ea30021f3d2c935ec0881b51f087f8f22a50f2",
    42: "81b4c9a69a88e74554d3d10a4a58bf16fae1c65cf04d12893ab4dba53e2491e3",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY_ALL))
def test_verify_all_stdout_frozen(seed, capsys):
    code, out, _ = run(["verify", "--suite", "all", "--seed", str(seed)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_ALL[seed]


@pytest.mark.parametrize("params", [
    qrmt.EnsembleParams.from_lambda(5, 3.0, alpha=0.5),
    qrmt.EnsembleParams.from_q(3, -math.inf, alpha=1.0),
    qrmt.EnsembleParams.gaussian(30, 1.0),
], ids=["heavy", "bounded", "gaussian-n30"])
def test_verify_trace_sq_by_chunks_equals_per_sample(params):
    # 4000 draws span several dense chunks at every size here
    batch = qrmt.sample_batch(params, 4000, master_seed=8)
    assert len(list(batch.chunks())) > 1
    per_sample = np.array([s.trace_sq() for s in batch])
    assert qrmt.cli._trace_sq(batch).tobytes() == per_sample.tobytes()


def test_verify_analytic_joint_density_call_budget(monkeypatch, capsys):
    # the n = 2 mass check integrates on the rotated half-plane (about 11.5k
    # calls); one dblquad over the whole plane bisects along the |x - y| kink
    # and takes 598k
    calls = 0
    joint = qrmt.analytic.joint_eigen_density

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return joint(*args, **kwargs)

    monkeypatch.setattr(qrmt.analytic, "joint_eigen_density", counted)
    code, _, _ = run(["verify", "--suite", "analytic"], capsys)
    assert code == 0
    assert 0 < calls < 50_000


def test_verify_zero_tolerance_fails(monkeypatch, capsys):
    # every check can fail: at tolerance 0 none of them passes
    check = qrmt.cli._check
    monkeypatch.setattr(qrmt.cli, "_check",
                        lambda name, metric, tol, detail="": check(name, metric, 0.0, detail))
    code, out, _ = run(["verify", "--suite", "all"], capsys)
    assert code == 4
    assert out.endswith("# 0/31 passed\n")


@pytest.mark.parametrize("flag, argv", [
    ("--tolerance-scale", ["verify", "--tolerance-scale", "1"]),
    ("--threads", ["reproduce", "fig2", "--samples", "50", "--threads", "2", "--out", "d"]),
], ids=["verify-tolerance-scale", "reproduce-threads"])
def test_removed_options_are_rejected(flag, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and f"unrecognized arguments: {flag}" in err
    assert os.listdir(tmp_path) == []


def test_verify_manifest_mode(tmp_path, capsys):
    out = str(tmp_path / "v")
    code, _, _ = run(
        ["sample", "--n", "3", "--q", "1.0", "--count", "2", "--out", out], capsys
    )
    assert code == 0
    man = os.path.join(out, "manifest.json")
    code, tap, _ = run(["verify", "--manifest", man], capsys)
    assert code == 0
    assert "not ok" not in tap
    assert tap == "1..1\nok 1 - spectra.csv # sha256 verified\n"

    # tamper with one output: re-verification must fail
    spath = os.path.join(out, "spectra.csv")
    with open(spath, "a", encoding="utf-8") as fh:
        fh.write("tampered\n")
    code, tap, _ = run(["verify", "--manifest", man], capsys)
    assert code == 4
    assert "not ok" in tap
    assert tap == "1..1\nnot ok 1 - spectra.csv # digest mismatch\n"


@pytest.mark.parametrize("body", [
    "not json {",
    '{"outputs": [{"sha256": "00"}]}',
    '{"tool_version": "x"}',
    '{"outputs": []}',
    '{"outputs": [{"path": "../secret.txt", "sha256": "00"}]}',
    '{"outputs": [{"path": "/etc/hostname", "sha256": "00"}]}',
    '{"outputs": [{"path": "sub/spectra.csv", "sha256": "00"}]}',
    '{"outputs": [{"path": "", "sha256": "00"}]}',
    '{"outputs": [{"path": ".", "sha256": "00"}]}',
    '{"outputs": [{"path": "..", "sha256": "00"}]}',
])
def test_verify_manifest_malformed_exits_2(body, tmp_path, capsys):
    man = tmp_path / "manifest.json"
    man.write_text(body)
    code, _, err = run(["verify", "--manifest", str(man)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_manifest_missing_file(tmp_path, capsys):
    out = str(tmp_path / "vm")
    run(["sample", "--n", "2", "--q", "1.0", "--count", "1", "--out", out], capsys)
    os.remove(os.path.join(out, "spectra.csv"))
    code, tap, _ = run(["verify", "--manifest", os.path.join(out, "manifest.json")], capsys)
    assert code == 4
    assert tap == "1..1\nnot ok 1 - spectra.csv # missing\n"


def test_verify_manifest_entry_that_is_a_directory(tmp_path, capsys):
    # a listed name that is not a regular file is missing, and the TAP stream
    # still has every line its plan announces
    out = tmp_path / "vd"
    run(["sample", "--n", "2", "--q", "1.0", "--count", "1", "--out", str(out)], capsys)
    man = out / "manifest.json"
    doc = json.loads(man.read_text(encoding="utf-8"))
    doc["outputs"].append({"path": "sub", "sha256": "00"})
    man.write_text(json.dumps(doc), encoding="utf-8")
    (out / "sub").mkdir()
    code, tap, err = run(["verify", "--manifest", str(man)], capsys)
    assert code == 4
    assert tap == "1..2\nok 1 - spectra.csv # sha256 verified\nnot ok 2 - sub # missing\n"
    assert err == ""


# sha256 of the files `qrmt sample --raw --threads 1` writes, frozen from
# the per-draw sampler this batch sampler replaced: (argv, spectra.csv,
# matrices.csv).  The determinism contract keeps them fixed; they also pin
# the eigensolver build, so a different LAPACK may need them re-derived.
GOLDEN_SAMPLE = {
    "heavy_n2": (["--n", "2", "--lambda", "1.0", "--count", "400", "--seed", "5"],
                 "d798392a8eddd94ba162f64de0f25ed1914236edf952f75a1fbec25123902001",
                 "71de52658b6302f82e39ec23a46fd6e7dcac7b93a9b4a93f86f9e366d24fe14b"),
    "heavy_n10": (["--n", "10", "--lambda", "1.5", "--count", "200", "--seed", "6"],
                  "64818a97c556b4b73c4bb46effb52f4c4a7c7c840e345a6b7aeea741b0573193",
                  "1cb70798fdd162c458162d9d42c6f68cb4e9946e379fecef4e6e7847cb0832b2"),
    "gauss_n40": (["--n", "40", "--q", "1.0", "--count", "30", "--seed", "7"],
                  "905c72a495a7c4bf790484a16cc6dc0d500f0cebcb91dbab1e68d69f9349a84d",
                  "078c9656e0f28651ac8d5f7733e8e2f0cd840b7675df5e219d095826d0dd333d"),
    "q05_n4": (["--n", "4", "--q", "0.5", "--count", "300", "--seed", "8"],
               "6bf946c8e26407cf55b3e7c714b3046153e050828aba6a58aa7a2343d5c0706c",
               "4c8ed3d42a74244426138fc92e8643b9274aa3b9d92d50c36c05b4f2d38813d2"),
    "bounded_n3": (["--n", "3", "--q=-inf", "--count", "300", "--seed", "9"],
                   "c92f755c3831ca4b3eaa9d13f6f288bcf55094ea66a07238a110d5ecef859007",
                   "21210e9708666735cea65065dafad64b30f0ff139f00a60d9eea8734644dfc92"),
    "bounded_n1": (["--n", "1", "--q=-inf", "--count", "300", "--seed", "10"],
                   "fdca060530aa6d9e6a0c8950a73489478476635225376aeaf83e60e7a497fa3b",
                   "cde6d985b643ac5c9262e17c104675d9a34dcdfa0fc3018ef4a0626f50067d1b"),
    "heavy_n1": (["--n", "1", "--lambda", "0.5", "--count", "300", "--seed", "11"],
                 "ffdf206c69ba8fb33e8768e86f6d8e80b6d6d64fcb2c7b8c5b8ca669be4343c6",
                 "e9659aba727fce045b7c84406cf44d2b057beda39f910411e2805171ba3e1381"),
}
# sha256 of fig2_sim.csv from `qrmt reproduce fig2 --samples 2000`
GOLDEN_FIG2_SIM = "d5581a8c617f2d2aeaee5cfc8b2f10e19a432d890736fa6be206c51d60378ab6"


@pytest.mark.parametrize("case", sorted(GOLDEN_SAMPLE))
def test_sample_outputs_match_golden_hashes(case, tmp_path, capsys):
    argv, spectra_sha, matrices_sha = GOLDEN_SAMPLE[case]
    out = str(tmp_path / case)
    code, _, _ = run(["sample", *argv, "--raw", "--threads", "1", "--out", out], capsys)
    assert code == 0
    assert _digest(os.path.join(out, "spectra.csv")) == spectra_sha
    assert _digest(os.path.join(out, "matrices.csv")) == matrices_sha


def test_reproduce_fig2_sim_matches_golden_hash(tmp_path, capsys):
    out = str(tmp_path / "fig2")
    run(["reproduce", "fig2", "--samples", "2000", "--out", out], capsys)
    assert _digest(os.path.join(out, "fig2_sim.csv")) == GOLDEN_FIG2_SIM


# sha256 of what each curve command writes, frozen from the separate
# density/element/gap handlers that one table-driven command replaced:
# argv and {file: sha256}.  Each case runs as csv and as json, with --svg.
GOLDEN_CURVE = {
    "density_heavy": (["density", "--n", "6", "--lambda", "1.5", "--alpha", "0.9", "--grid=-3:3:21"],
        {"curve.csv": "2d032bad4bcd23e7f77cd2dcc72ba72e487efac1632e1694af89db863ec1a0cb",
         "plot.svg": "b7a310d5442cf0637a2ab9a533a73a1ba1e3acbf497e3f782bcd19a6821c9bfd",
         "curve.json": "bb8e126ad4b1f93005ae7f82cc3eb80f91704c32365bd6381a28f658a41aad78"}),
    "density_default_grid": (["density", "--n", "10", "--lambda", "0.75"],
        {"curve.csv": "1d0ce6a33fa459534da3fed9a33684d2fd3e4f6d0c900466a24daa63a45c30b8",
         "plot.svg": "621fcd8905036169e11b3b3b8c49091be7cd13e2d9facf9d543b8e0f0f9a3917",
         "curve.json": "05b97b4ffbffbef376c753b4a079eb9a2ff1ed01d33a6d4d38a66269fc322c6f"}),
    "density_gaussian": (["density", "--n", "10", "--q", "1.0", "--alpha", "0.5", "--grid=-4:4:9"],
        {"curve.csv": "0b6c90827c511e241c9d18e8295f75df9874ea08b6bbd9cc0a9036e046926ac5",
         "plot.svg": "751a554052a18f384ab337f91e72ea2c1907e132946c83cac9c4a5901750cb65",
         "curve.json": "87206cc9f72d9d83a2a1b6997d23d74bfadcd93e754c2214e5ef5fe9078905ba"}),
    "element_diag": (["element", "--n", "2", "--lambda", "0.5", "--alpha", "0.5", "--grid=-4:4:17"],
        {"curve.csv": "4ca20a23ffa60db75c9bdf5226d4954781f2817008a77adc835651cff1c0b18c",
         "plot.svg": "f2a3b518c6a196585fc4ee7ef0e5a4c4700961188c4743dc87e705b0213606f4",
         "curve.json": "7c60011730277a8f4f920e7758f9e70635372896f06d26b4b7f3ad9333c70927"}),
    "element_offdiag": (["element", "--n", "3", "--q", "0.5", "--entry", "offdiag"],
        {"curve.csv": "8208ecea0cae697b0d7ad8704867f1c65ee767c1f60847d898175d823baea4a8",
         "plot.svg": "27d96d9cd859d8ee49d6e5a2d1e8f7399b07ac8da9914b07129c41ad8ab78c06",
         "curve.json": "24ae9e017cae7f4088d759ae6085ae35c41c2dad2617265d36949f2e4b813832"}),
    "gap": (["gap", "--n", "5", "--lambda", "1.0", "--theta-max", "1.5", "--points", "12"],
        {"curve.csv": "457744c6f70f1d1a0b2fa01aa0cc9314fd19f31494bab84f7a606ab732b989c0",
         "plot.svg": "e5baef7929365c907312c48711bbdc16d42b24fd20d7c92412352e985685ca9b",
         "curve.json": "ac8a19543cd3cc2fc7dea73ca07047591f8ba6b446052698b5037dd51c85abc8"}),
}
# `qrmt reproduce <fig> --samples k`, frozen the same way: (k, exit code,
# stdout with the output directory as {out}, manifest outputs in order)
GOLDEN_REPRODUCE = {
    "fig1": ("200", 0,
             "ok mc_overlay_lam10\nok mc_overlay_lam1\nok mc_overlay_lam0.75\nok mc_overlay_lam0.5\n"
             "ok lam10_semicircle\nok lam05_tail_slope\nfig1 pass; outputs in {out}\n",
        [("fig1_density_lam10.csv", "c7c86eade769099e7a18fb633e57fe8d242f85e16465f8fe02ce121ca1a629e4"),
         ("fig1_hist_lam10.csv", "46fdf3396dfa22b840fdf32143b6ae70d7d32415ef148f72c227e7363b346760"),
         ("fig1_density_lam1.csv", "d4201f1984b42c48ff15f4816860d05726819b2330ce36866e36a0fb0454bdeb"),
         ("fig1_hist_lam1.csv", "ff7124927d19e1c50bf183c85c4c0094ef58fddb1487975fc02aa323cf278e39"),
         ("fig1_density_lam0.75.csv", "8c2d5911e4de0c0660f1ee7334663cee8901a5cb8ddeac3aa6ea319bfba1f66a"),
         ("fig1_hist_lam0.75.csv", "5963527a9d85c034988cf88127b44ca93b59ffbc165844b3148270291c158c2d"),
         ("fig1_density_lam0.5.csv", "c865a47518470b9c55d9b7a81502fa55a4b0d9ee5240bfac136d5930fd98fe00"),
         ("fig1_hist_lam0.5.csv", "248e1bf601ed607efa1d1c1d10c998814c18aa5694b43e4fb5a0c617d4440104"),
         ("fig1_density_goe_ref.csv", "1c35ccdad6ab46ac1b8834e7bf3a0ae0bd11315d987851b6bc9594720a991953"),
         ("fig1.svg", "07b2c5672e249bbc6e1ded094cc68b4eb0b313a3e45d7cbdf16553b8b80f55a3"),
         ("report.json", "40047b25f2de0470424e18270a7d73687e0b896a10120e1f1b92c904d8bb420a")]),
    "fig2": ("500", 4, "FAIL sim_vs_curve\nok asymptote_band\nfig2 FAIL; outputs in {out}\n",
        [("fig2_analytic.csv", "3a17b074c06820b239156423ad3a37bca3740c6608f1c6e911f821a2eb8a2f8a"),
         ("fig2_sim.csv", "b9206b3efa5d94f7124f2f76e3192decea4439506534022ae14396d67d0a9a13"),
         ("fig2.svg", "b545c07c434d433c05889b3893cf213d43f34f8b19774ca4a807822716ca1d28"),
         ("report.json", "15362d5a0425db8dc651d3e8b29f99b89ce3138e3f06111f764cb9e6979d14ee")]),
}


def _manifest(out):
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("case", sorted(GOLDEN_CURVE))
def test_curve_outputs_match_golden_hashes(case, fmt, tmp_path, capsys):
    argv, golden = GOLDEN_CURVE[case]
    out = str(tmp_path / case)
    code, stdout, _ = run([*argv, "--format", fmt, "--svg", "--out", out], capsys)
    assert code == 0
    assert stdout == f"wrote {os.path.join(out, 'curve.' + fmt)}\n"
    man = _manifest(out)
    assert man["command"] == argv[0]
    names = (f"curve.{fmt}", "plot.svg")
    assert man["outputs"] == [{"path": name, "sha256": golden[name]} for name in names]
    for name in names:
        assert _digest(os.path.join(out, name)) == golden[name]


@pytest.mark.parametrize("figure", sorted(GOLDEN_REPRODUCE))
def test_reproduce_outputs_match_golden_hashes(figure, tmp_path, capsys):
    samples, exit_code, stdout, outputs = GOLDEN_REPRODUCE[figure]
    out = str(tmp_path / figure)
    code, got, _ = run(["reproduce", figure, "--samples", samples, "--out", out], capsys)
    assert code == exit_code
    assert got == stdout.format(out=out)
    man = _manifest(out)
    assert man["command"] == f"reproduce {figure}"
    assert man["outputs"] == [{"path": name, "sha256": sha} for name, sha in outputs]
    for name, sha in outputs:
        assert _digest(os.path.join(out, name)) == sha


def test_exit_2_on_nonfinite_draws_at_tiny_lambda(tmp_path, capsys):
    # at lambda = 0.001, 72 of these 3000 draws overflow to inf
    code, _, err = run(
        ["sample", "--n", "10", "--lambda", "0.001", "--alpha", "1", "--count", "3000",
         "--out", str(tmp_path / "d")], capsys,
    )
    assert code == 2
    assert err.startswith("error: 72 of 3000 draws have non-finite entries")
    assert not (tmp_path / "d").exists()  # a failed run writes no directory


# ---------------------------------------------------------------- reproduce

def test_reproduce_fig2_small_sample_reports_failure(tmp_path, capsys):
    # 500 samples cannot meet the acceptance tolerance; the command must say
    # so through its exit code while still writing every artifact
    out = str(tmp_path / "fig2")
    code, stdout, _ = run(
        ["reproduce", "fig2", "--out", out, "--samples", "500"], capsys
    )
    assert code == 4
    assert "FAIL" in stdout
    for fname in ("fig2_analytic.csv", "fig2_sim.csv", "fig2.svg",
                  "report.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, fname)), fname
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["pass"] is False
    assert report["figure"] == "fig2"


def test_reproduce_fig2_asymptote_column_exact(tmp_path, capsys):
    out = str(tmp_path / "fig2b")
    run(["reproduce", "fig2", "--out", out, "--samples", "500"], capsys)
    with open(os.path.join(out, "fig2_analytic.csv"), encoding="utf-8") as fh:
        rows = [l.strip().split(",") for l in fh
                if not l.startswith("#") and not l.startswith("s,")]
    for row in rows[1:]:  # skip s = 0 (asymptote is inf there)
        s, asym = float(row[0]), float(row[2])
        assert asym == 1.0 / (2 * s * s)
