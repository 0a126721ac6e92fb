"""specfun's QUADPACK route: QAWS, QAGS and QAGI from scipy's extension module without scipy.integrate's init.

Its `quad` must give what `scipy.integrate.quad` gives, bit for bit, on the
engine's and the verify suites' own calls and on calls that fail; the
fallback and the import order must not change a bit either.
"""
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate

import qrmt
import qrmt.analytic
import qrmt.cli
import qrmt.specfun
from qrmt.cli import main
from qrmt.specfun import _QUADPACK_MESSAGES, _integrate, _quadpack_ier


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(qrmt.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _run_child(code: str, *args) -> list:
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True,
                         env=_child_env())
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _assert_same(got, want):
    """quad's return values agree bit for bit: value, error estimate, info dict and message."""
    assert len(got) == len(want)
    assert float(got[0]).hex() == float(want[0]).hex() and float(got[1]).hex() == float(want[1]).hex()
    if len(want) > 2:
        info, ref = got[2], want[2]
        assert info["neval"] == ref["neval"] and info["last"] == ref["last"]
        last = ref["last"]
        for key in ("alist", "blist", "rlist", "elist"):
            assert info[key][:last].tobytes() == ref[key][:last].tobytes(), key
        assert got[3:] == want[3:]


class _Comparing:
    """Stands in for qrmt.analytic.integrate: each engine call runs the shim, then scipy on the same values.

    scipy's quad reads the kernel's values at the nodes the shim's run visited, so
    the kernel runs once, and a node scipy visits that the shim did not is a KeyError.
    """

    def __init__(self):
        self.calls = 0

    def quad(self, kernel, *args, **kwargs):
        seen = {}

        def recording(x):
            seen[x] = value = kernel(x)
            return value

        got = _integrate.quad(recording, *args, **kwargs)
        _assert_same(got, scipy.integrate.quad(seen.__getitem__, *args, **kwargs))
        self.calls += 1
        return got

    def __getattr__(self, attr):
        return getattr(_integrate, attr)


def test_shim_equals_scipy_quad_on_the_engine_calls_of_analytic_curves(tmp_path, monkeypatch, capsys):
    # the benchmark's analytic_curves pass: the three curve commands at its sizes and lambdas at
    # their default grids, and the bulk gap law on its s grid
    assert qrmt.specfun._quadpack() is not None  # the shim runs QAWS itself, not through scipy's quad
    comparing = _Comparing()
    monkeypatch.setattr(qrmt.analytic, "integrate", comparing)
    s_grid = np.linspace(0.0, 10.0, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)  # lambda = 10's roundoff
        for n in (20, 50):
            for lam in (0.5, 1.0, 1.5, 3.0, 10.0):
                for cmd in ("density", "element", "gap"):
                    out = tmp_path / f"{cmd}.n{n}.lam{lam:g}"
                    assert main([cmd, "--n", str(n), "--lambda", str(lam), "--out", str(out)]) == 0
        for lam in (0.5, 1.5, 3.0, 10.0):
            qrmt.analytic.gap_probability_bulk(s_grid, lam)
    capsys.readouterr()
    assert comparing.calls > 300


# integrands on [0, 1] under the weight x^0.5 that make QUADPACK stop with each code it returns
_FAILING = {
    1: (lambda x: math.sin(1.0 / x) if x else 0.0, {"limit": 3}),
    2: (lambda x: math.exp(x) + 1e-9 * math.sin(1e7 * x * x), {"epsabs": 1e-300, "epsrel": 1e-13}),
    3: (lambda x: 1.0 / (x - 0.3) if x != 0.3 else 0.0, {}),
}


@pytest.mark.parametrize("ier", sorted(_FAILING))
@pytest.mark.parametrize("full_output", [0, 1])
def test_shim_equals_scipy_quad_where_quadpack_fails(ier, full_output):
    f, extra = _FAILING[ier]
    kwargs = {"weight": "alg", "wvar": (0.5, 0.0), "epsabs": 1e-11, "epsrel": 1e-9, "limit": 200,
              "full_output": full_output, **extra}
    results = []
    for quad in (_integrate.quad, scipy.integrate.quad):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append(quad(f, 0.0, 1.0, **kwargs))
        results.append([(w.category, str(w.message), w.filename) for w in caught])
    got, got_warned, want, want_warned = results
    _assert_same(got, want)
    assert got_warned == want_warned
    if full_output:
        assert got[3] == want[3] and got_warned == []
    else:
        # the warning names the caller of quad, this file, as scipy's does
        assert len(got_warned) == 1 and got_warned[0][2] == __file__
    # the engine reads the code back from the message, the shim's and scipy's alike
    msg, want_msg = (got[3], want[3]) if full_output else (got_warned[0][1], want_warned[0][1])
    assert _quadpack_ier(msg, kwargs["limit"]) == _quadpack_ier(want_msg, kwargs["limit"]) == ier


def test_each_quadpack_message_maps_back_to_its_code_at_the_engines_limit():
    assert sorted(_QUADPACK_MESSAGES) == [1, 2, 3, 4, 5, 7]  # every code scipy's quad returns
    for ier, text in _QUADPACK_MESSAGES.items():
        assert _quadpack_ier(text.format(limit=200), 200) == ier


@pytest.mark.parametrize("msg", [
    "",
    "A Python error occurred possibly while calling the function.",  # scipy's ier 80, which it raises
    _QUADPACK_MESSAGES[1].format(limit=50),  # another limit's text
    _QUADPACK_MESSAGES[2].splitlines()[0],  # a message's first line alone
], ids=["empty", "other-message", "other-limit", "first-line"])
def test_other_text_maps_to_no_quadpack_code(msg):
    assert _quadpack_ier(msg, 200) == "?"


@pytest.mark.parametrize("args, kwargs", [
    ((lambda x: 1.0, 0.0, 1.0), {"weight": "alg", "wvar": (-2.0, 0.0)}),  # QUADPACK's ier 6
    ((lambda x: x, 0.0, 1.0), {"weight": "alg", "wvar": (0.5, 0.0), "epsabs": 0.0, "epsrel": 1e-20}),
    ((lambda x: x, 0.0, math.inf), {"weight": "alg", "wvar": (0.5, 0.0)}),
], ids=["wvar-below-minus-1", "epsrel-too-small", "infinite-interval"])
def test_shim_raises_what_scipy_quad_raises(args, kwargs):
    with pytest.raises(ValueError) as want:
        scipy.integrate.quad(*args, **kwargs)
    with pytest.raises(ValueError) as got:
        _integrate.quad(*args, **kwargs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("args, kwargs", [
    ((math.exp, 0.3, 0.3), {"weight": "alg", "wvar": (0.5, 0.0), "full_output": 1}),
    ((math.exp, 1.0, 0.0), {"weight": "alg", "wvar": (0.5, 0.0), "full_output": 1}),
    ((math.exp, 0.0, 1.0), {"weight": "alg-loga", "wvar": (0.5, 0.0), "full_output": 1}),
    ((math.exp, 0.0, 1.0), {"full_output": 1}),
], ids=["empty-interval", "reversed", "other-weight", "no-weight"])
def test_shim_hands_other_calls_to_scipy_quad(args, kwargs):
    _assert_same(_integrate.quad(*args, **kwargs), scipy.integrate.quad(*args, **kwargs))


# the engine's curves at one member, hashed: the same in every process and on every route
_CURVES = (
    "import hashlib, sys, warnings\n"
    "import numpy as np\n"
    "from qrmt import analytic as an, specfun\n"
    "from qrmt.params import EnsembleParams\n"
    "p = EnsembleParams.from_lambda(5, 1.5, alpha='auto')\n"
    "curves = [an.gap_curve(p, np.concatenate([[0.0], np.geomspace(0.01, 3.0, 7)])).values,\n"
    "          an.density_curve(p, np.linspace(-4.0, 4.0, 21)).values,\n"
    "          an.gap_probability_bulk(np.linspace(0.0, 10.0, 21), 0.5)]\n"
    "print(hashlib.sha256(b''.join(c.tobytes() for c in curves)).hexdigest())\n"
)


@pytest.fixture(scope="module")
def curves_digest() -> str:
    """The curves' digest in a fresh process on the extension route, which loads no scipy.integrate."""
    digest, route = _run_child(_CURVES + "print(specfun._quadpack() is None, 'scipy.integrate' in sys.modules)\n")
    assert route == "False False"
    return digest


def test_fallback_when_the_extension_file_is_hidden_gives_the_same_bits(curves_digest):
    hidden = (
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []  # no file name the route looks for exists\n"
        + _CURVES +
        "print(specfun._quadpack() is None, 'scipy.integrate' in sys.modules)\n"
    )
    digest, route = _run_child(hidden)
    assert route == "True True"  # scipy.integrate.quad did the work
    assert digest == curves_digest


@pytest.mark.parametrize("shim_first", [True, False], ids=["shim-first", "scipy-integrate-first"])
def test_either_import_order_leaves_one_quadpack_module(shim_first, curves_digest):
    code = (
        "import sys\n"
        "from qrmt import specfun\n"
        + ("loaded = specfun._quadpack()\n"
           "assert 'scipy.integrate' not in sys.modules\n"
           "import scipy.integrate\n" if shim_first else
           "import scipy.integrate\n"
           "loaded = specfun._quadpack()\n") +
        "from scipy.integrate import _quadpack, _quadpack_py\n"
        "assert loaded is _quadpack is _quadpack_py._quadpack is sys.modules['scipy.integrate._quadpack']\n"
        "mass = scipy.integrate.dblquad(lambda y, x: x * y, 0.0, 1.0, 0.0, 2.0)[0]\n"
        "assert abs(mass - 1.0) < 1e-12, mass\n"
        + _CURVES
    )
    assert _run_child(code)[-1] == curves_digest


class _VerifyComparing:
    """Stands in for qrmt.cli.integrate: each of verify's calls runs the shim, then scipy on the same values.

    As in _Comparing, scipy's quad reads the integrand's values at the nodes the shim's run
    visited, with and without full_output: an outer call's integrand, which makes the inner calls,
    runs once, so each inner call is compared once.  `calls` holds each call's depth of nesting.
    """

    def __init__(self):
        self.calls, self.depth = [], 0

    def quad(self, func, *args, **kwargs):
        assert "wvar" not in kwargs  # QAGS and QAGI: verify's quadratures take no weight
        self.calls.append(self.depth)
        seen = {}

        def recording(x):
            seen[x] = value = func(x)
            return value

        self.depth += 1
        got = _integrate.quad(recording, *args, **kwargs)
        self.depth -= 1
        _assert_same(got, scipy.integrate.quad(seen.__getitem__, *args, **kwargs))
        _assert_same(_integrate.quad(seen.__getitem__, *args, full_output=1, **kwargs),
                     scipy.integrate.quad(seen.__getitem__, *args, full_output=1, **kwargs))
        return got


def test_shim_equals_scipy_on_the_verify_suites_quadratures(monkeypatch, capsys):
    comparing = _VerifyComparing()
    monkeypatch.setattr(qrmt.cli, "integrate", comparing)
    assert main(["verify", "--suite", "analytic"]) == 0
    capsys.readouterr()
    # the element and level density masses (QAGI), the density integral on [0, 1] (QAGS) and the
    # joint density's mass: QAGI over v of 75 inner QAGI calls over u
    assert comparing.calls == [0, 0, 0, 0] + [1] * 75
    # a stand-in for the engine's qrmt.analytic.integrate sees none of these: see
    # test_gap_curve_quadratures_go_through_analytic_integrate in test_cli.py


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.5, math.inf), (-math.inf, 0.25), (-math.inf, math.inf)],
                         ids=["finite", "to-inf", "from-minus-inf", "whole-line"])
def test_qags_and_qagi_routes_equal_scipy_quad(a, b):
    def f(x, c):
        return math.exp(-c * x * x) * (1.0 + 0.5 * math.sin(3.0 * x))

    for full_output in (0, 1):
        _assert_same(_integrate.quad(f, a, b, args=(2.0,), full_output=full_output, limit=100),
                     scipy.integrate.quad(f, a, b, args=(2.0,), full_output=full_output, limit=100))


# integrands that make QAGS (finite ends) and QAGI (an infinite end) stop with ier 1, 2 and 4
_FAILING_UNWEIGHTED = {
    "qags-1": (lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0, {"limit": 3}),
    "qags-2": (lambda x: math.exp(x) + 1e-9 * math.sin(1e7 * x * x), 0.0, 1.0, {"epsabs": 1e-300, "epsrel": 1e-13}),
    "qagi-1": (lambda x: math.exp(-x * x), -math.inf, math.inf, {"limit": 1}),
    "qagi-2": (lambda x: math.exp(-x) * (1.0 + 1e-9 * math.sin(1e7 * x * x)), 0.0, math.inf,
               {"epsabs": 1e-300, "epsrel": 1e-13}),
    "qagi-4": (lambda x: 1.0 / (1.0 + x * x) + 1e-12 * math.sin(1e5 * x), -math.inf, 0.0,
               {"epsabs": 1e-300, "epsrel": 1e-13, "limit": 200}),
}


@pytest.mark.parametrize("case", sorted(_FAILING_UNWEIGHTED))
@pytest.mark.parametrize("full_output", [0, 1])
def test_qags_and_qagi_warn_as_scipy_quad_where_quadpack_fails(case, full_output):
    f, a, b, kwargs = _FAILING_UNWEIGHTED[case]
    results = []
    for quad in (_integrate.quad, scipy.integrate.quad):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append(quad(f, a, b, full_output=full_output, **kwargs))  # both from this line
        results.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    got, got_warned, want, want_warned = results
    _assert_same(got, want)
    assert got_warned == want_warned
    msg = got[3] if full_output else got_warned[0][1]
    assert len(got_warned) == (0 if full_output else 1)
    assert _quadpack_ier(msg, kwargs.get("limit", 50)) == int(case[-1])


@pytest.mark.parametrize("args, kwargs", [
    ((math.exp, 0.0, 1.0), {"limit": 0}),
    ((math.exp, -math.inf, 0.0), {"limit": 0}),
    ((math.exp, 0.0, 1.0), {"epsabs": 0.0, "epsrel": 1e-20}),
    ((lambda x: math.exp(-x), 0.0, math.inf), {"epsabs": -1.0, "epsrel": 1e-20}),
], ids=["qags-limit-0", "qagi-limit-0", "qags-epsrel-too-small", "qagi-epsrel-too-small"])
def test_qags_and_qagi_raise_what_scipy_quad_raises(args, kwargs):
    with pytest.raises(ValueError) as want:
        scipy.integrate.quad(*args, **kwargs)
    with pytest.raises(ValueError) as got:
        _integrate.quad(*args, **kwargs)
    assert str(got.value) == str(want.value)


def test_verify_output_is_the_same_when_the_extension_file_is_hidden():
    code = (
        "import sys\n"
        "if sys.argv[1] == 'hidden':\n"
        "    import importlib.machinery\n"
        "    importlib.machinery.EXTENSION_SUFFIXES = []\n"
        "import qrmt.cli as cli\n"
        "from qrmt import specfun\n"
        "code = cli.main(['verify', '--suite', 'all'])\n"
        "print(code, specfun._quadpack() is None, 'scipy.integrate' in sys.modules)\n"
    )
    *tap, route = _run_child(code, "shown")
    *hidden_tap, hidden_route = _run_child(code, "hidden")
    assert (route, hidden_route) == ("0 False False", "0 True True")
    assert hidden_tap == tap and tap[-1] == "# 31/31 passed"
