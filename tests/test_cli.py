"""Command-line surface: exit codes, determinism, file formats, verify gate."""
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qrmt.cli import main


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


def test_version_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "qrmt", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout.startswith("qrmt ")


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


def test_verify_zero_tolerance_fails(capsys):
    code, out, _ = run(
        ["verify", "--suite", "specfun", "--tolerance-scale", "0"], capsys
    )
    assert code == 4
    assert "not ok" in out


def test_verify_negative_tolerance_rejected(capsys):
    code, _, err = run(["verify", "--tolerance-scale", "-1"], capsys)
    assert code == 2


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

    # tamper with one output: re-verification must fail
    spath = os.path.join(out, "spectra.csv")
    with open(spath, "a", encoding="utf-8") as fh:
        fh.write("tampered\n")
    code, tap, _ = run(["verify", "--manifest", man], capsys)
    assert code == 4
    assert "not ok" in tap


def test_verify_manifest_missing_file(tmp_path, capsys):
    out = str(tmp_path / "vm")
    run(["sample", "--n", "2", "--q", "1.0", "--count", "1", "--out", out], capsys)
    os.remove(os.path.join(out, "spectra.csv"))
    code, tap, _ = run(["verify", "--manifest", os.path.join(out, "manifest.json")], capsys)
    assert code == 4


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


def test_exit_2_on_nonfinite_draws_at_tiny_lambda(tmp_path, capsys):
    # at lambda = 0.001, 72 of these 3000 draws overflow to inf
    code, _, err = run(
        ["sample", "--n", "10", "--lambda", "0.001", "--alpha", "1", "--count", "3000",
         "--out", str(tmp_path)], capsys,
    )
    assert code == 2
    assert err.startswith("error: 72 of 3000 draws have non-finite entries")


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
