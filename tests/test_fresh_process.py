"""What a fresh `qrmt` process imports: only what its command runs.

A command that computes nothing loads no numpy, and the analytic commands
reach QUADPACK without importing the scipy.integrate package.
"""
import ast
import os
import subprocess
import sys

import pytest

import qrmt
from qrmt.cli import main


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(qrmt.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _run_child(code: str, *args) -> list:
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True,
                         env=_child_env())
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


# runs each argv of sys.argv[1] (a repr'd list) through cli.main in this fresh
# interpreter and prints, after each, its exit code and whether numpy is loaded
_MAIN_IN_TURN = (
    "import ast, contextlib, io, sys\n"
    "import qrmt.cli as cli\n"
    "for argv in ast.literal_eval(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "        code = cli.main(argv)\n"
    "    print('RESULT', code, 'numpy' in sys.modules)\n"
)


def test_commands_that_compute_nothing_load_no_numpy(tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["density", "--n", "3", "--lambda", "2", "--grid=-1:1:5", "--out", run]) == 0
    capsys.readouterr()
    manifest = os.path.join(run, "manifest.json")
    calls = [
        ["--version"],
        ["--help"],
        ["density", "--n", "0"],
        ["sample", "--n", "3", "--q", "nan", "--count", "1"],
        ["verify", "--manifest", manifest],
        ["verify", "--manifest", manifest, "--seed", "-1"],
        ["reproduce", "fig2", "--seed", "-1", "--out", str(tmp_path / "never")],
        ["density", "--n", "3", "--lambda", "2", "--grid=1:0:3"],
        ["gap", "--n", "5", "--lambda", "2", "--theta-max", "5e-324"],
        ["gap", "--n", "5", "--lambda", "2", "--points", "2"],
    ]
    lines = [line for line in _run_child(_MAIN_IN_TURN, repr(calls)) if line.startswith("RESULT")]
    assert lines == [f"RESULT {code} False" for code in (0, 0, 2, 2, 0, 2, 2, 2, 2, 2)]
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "5", "--lambda", "1.5"],
    ["density", "--n", "5", "--lambda", "1.5"],
    ["reproduce", "fig1", "--samples", "200"],
    ["reproduce", "fig2", "--samples", "200"],
], ids=["gap", "density", "fig1", "fig2"])
def test_analytic_commands_reach_quadpack_without_the_scipy_integrate_package(argv, tmp_path):
    code = (
        "import sys\n"
        "import qrmt.cli as cli\n"
        "assert cli.main(sys.argv[2:] + ['--out', sys.argv[1]]) in (0, 4)\n"
        "print('scipy.integrate._quadpack' in sys.modules, 'scipy.integrate' in sys.modules)\n"
    )
    assert _run_child(code, tmp_path / "run", *argv)[-1] == "True False"


def test_patches_on_the_cli_names_made_before_first_use_stay_in_place(tmp_path):
    # a tracer wraps qrmt.cli's sampler and specfun names before any command runs; the
    # commands call the wrappers, and the first use binds nothing over them
    code = (
        "import sys\n"
        "import qrmt.cli as cli\n"
        "calls = {}\n"
        "def counting(name):\n"
        "    real = getattr(cli, name)\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] = calls.get(name, 0) + 1\n"
        "        return real(*args, **kwargs)\n"
        "    return wrapper\n"
        "names = ('sample_batch', 'sample_levy_stable', 'kummer_m', 'kummer_m_transformed', 'ln_gamma',\n"
        "         'bessel_k', 'erf', 'levy_density')\n"
        "wrappers = {name: counting(name) for name in names}\n"
        "for name, wrapper in wrappers.items():\n"
        "    setattr(cli, name, wrapper)\n"
        "assert cli.main(['sample', '--n', '3', '--q', '0.5', '--count', '4', '--raw', '--out', sys.argv[1]]) == 0\n"
        "assert cli.main(['verify', '--suite', 'specfun']) == 0\n"
        "assert cli.main(['verify', '--suite', 'samplers']) == 0\n"
        "assert all(getattr(cli, name) is wrapper for name, wrapper in wrappers.items())\n"
        "print(sorted(calls.items()))\n"
    )
    calls = dict(ast.literal_eval(_run_child(code, tmp_path / "run")[-1]))
    assert calls == {"sample_batch": 6, "sample_levy_stable": 2, "kummer_m": 2, "kummer_m_transformed": 1,
                     "ln_gamma": 1, "bessel_k": 2, "erf": 1, "levy_density": 2}
