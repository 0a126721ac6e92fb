"""What a fresh `qrmt` process imports: only what its command runs.

A command that computes nothing loads no numpy, one that writes nothing
loads no output writer, and the analytic commands and the verify suites
reach QUADPACK without importing the scipy.integrate package.  A module's
first-use stand-ins give way, each in its own module, to the real objects.
"""
import ast
import os
import subprocess
import sys

import pytest
import scipy.special

import qrmt
import qrmt.analytic
import qrmt.cli
import qrmt.specfun
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


# the output writers' modules: only a command that writes or checks files needs them
_WRITERS = ("hashlib", "json", "datetime", "qrmt.svg")

# after importing qrmt.cli and building its parser, and after each argv of
# sys.argv[1] run through cli.main in turn, prints the exit code and which
# of the writers' modules are loaded
_WRITERS_AFTER_EACH = (
    "import ast, contextlib, io, sys\n"
    "import qrmt.cli as cli\n"
    f"writers = {_WRITERS!r}\n"
    "cli.build_parser()\n"
    "print('RESULT', None, [m for m in writers if m in sys.modules])\n"
    "for argv in ast.literal_eval(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "        code = cli.main(argv)\n"
    "    print('RESULT', code, [m for m in writers if m in sys.modules])\n"
)


def test_the_front_and_commands_that_write_nothing_load_no_output_writer(tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["density", "--n", "3", "--lambda", "2", "--grid=-1:1:5", "--out", run]) == 0
    capsys.readouterr()
    manifest = os.path.join(run, "manifest.json")
    writes_nothing = [
        ["--version"],
        ["--help"],
        ["density", "--n", "0"],
        ["sample", "--n", "3", "--q", "nan", "--count", "1"],
        ["verify", "--manifest", manifest, "--seed", "-1"],
        ["reproduce", "fig2", "--seed", "-1", "--out", str(tmp_path / "never")],
        ["density", "--n", "3", "--lambda", "2", "--grid=1:0:3"],
        ["gap", "--n", "5", "--lambda", "2", "--theta-max", "5e-324"],
        ["gap", "--n", "5", "--lambda", "2", "--points", "2"],
    ]
    lines = _run_child(_WRITERS_AFTER_EACH, repr([*writes_nothing, ["verify", "--manifest", manifest]]))
    results = [line for line in lines if line.startswith("RESULT")]
    assert results[:-1] == ["RESULT None []"] + [f"RESULT {code} []" for code in (0, 0, 2, 2, 2, 2, 2, 2, 2)]
    # checking a manifest reads JSON and hashes files, and writes no file
    assert results[-1] == "RESULT 0 ['hashlib', 'json']"
    assert not (tmp_path / "never").exists()


def test_verify_suites_reach_quadpack_without_the_scipy_integrate_package():
    code = (
        "import contextlib, io, sys\n"
        "import qrmt.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "print('scipy.integrate._quadpack' in sys.modules, 'scipy.integrate' in sys.modules)\n"
    )
    assert _run_child(code)[-1] == "True False"


def test_a_wrapper_on_render_svg_made_before_first_use_stays_in_place(tmp_path):
    # the benchmark's tracer times the SVG writer through qrmt.cli.render_svg
    code = (
        "import sys\n"
        "import qrmt.cli as cli\n"
        "real, calls = cli.render_svg, []\n"
        "def wrapper(*args, **kwargs):\n"
        "    calls.append(args[0])\n"
        "    return real(*args, **kwargs)\n"
        "cli.render_svg = wrapper\n"
        "for cmd in ('density', 'gap'):\n"
        "    out = sys.argv[1] + '/' + cmd\n"
        "    assert cli.main([cmd, '--n', '5', '--lambda', '1.5', '--svg', '--out', out]) == 0\n"
        "assert cli.render_svg is wrapper\n"
        "print(len(calls))\n"
    )
    assert _run_child(code, tmp_path)[-1] == "2"
    for cmd in ("density", "gap"):
        assert (tmp_path / cmd / "plot.svg").read_text(encoding="utf-8").startswith("<svg")


def test_first_use_binds_scipy_special_itself_in_the_module_that_used_it():
    code = (
        "import contextlib, io, sys\n"
        "import qrmt, qrmt.analytic as an, qrmt.cli as cli, qrmt.specfun as sf\n"
        "def stand_ins():\n"
        "    return [type(m._sp) is qrmt._FirstUse for m in (an, sf, cli)]\n"
        "print(stand_ins())\n"
        "an.goe_gap(0.5)\n"
        "special = sys.modules['scipy.special']\n"
        "print(an._sp is special, stand_ins())\n"
        "sf.ln_gamma(2.0)\n"
        "print(sf._sp is special, stand_ins())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'spectral']) == 0\n"
        "print(cli._sp is special, stand_ins())\n"
    )
    assert _run_child(code) == ["[True, True, True]", "True [False, True, True]", "True [False, False, True]",
                                "True [False, False, False]"]


def test_a_patch_on_scipy_special_after_first_use_reaches_goe_gap(monkeypatch):
    real = qrmt.analytic.goe_gap(0.5)
    assert qrmt.analytic._sp is scipy.special
    monkeypatch.setattr(scipy.special, "erfc", lambda y: 0.25)
    assert qrmt.analytic.goe_gap(0.5) == 0.25 != real


def _stand_in(module, name: str, source: str):
    """A `_FirstUse` for `module`'s global `name`, made as `module`'s own code makes one."""
    return eval(f"_FirstUse({name!r}, {source!r})", vars(module))


_STAND_INS = [
    (qrmt.specfun, "_sp", "scipy.special"),
    (qrmt.specfun, "_cs", "scipy.special.cython_special"),
    (qrmt.specfun, "_scipy_integrate", "scipy.integrate"),
    (qrmt.analytic, "_sp", "scipy.special"),
    (qrmt.cli, "_sp", "scipy.special"),
    (qrmt.cli, "an", ".analytic"),
]
_IDS = [f"{module.__name__}.{name}" for module, name, _ in _STAND_INS]


@pytest.mark.parametrize("module,name,source", _STAND_INS, ids=_IDS)
def test_a_stand_in_rebinds_only_its_own_modules_global(monkeypatch, module, name, source):
    modules = (qrmt.specfun, qrmt.analytic, qrmt.cli)
    others = {m: vars(m)[name] for m in modules if m is not module and name in vars(m)}
    stand_in = _stand_in(module, name, source)
    monkeypatch.setattr(module, name, stand_in)
    first = stand_in.__name__
    assert getattr(module, name) is sys.modules[first]
    assert {m: vars(m)[name] for m in others} == others


@pytest.mark.parametrize("module,name,source", _STAND_INS, ids=_IDS)
def test_a_stand_in_leaves_a_patch_that_replaced_it(monkeypatch, module, name, source):
    stand_in, patch = _stand_in(module, name, source), object()
    monkeypatch.setattr(module, name, patch)
    assert stand_in.__name__ in sys.modules
    assert getattr(module, name) is patch
