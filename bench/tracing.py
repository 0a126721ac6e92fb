"""In-memory span tracing of qrmt's layer boundaries, installed from outside.

Every public name is wrapped where its consumer looks it up (for example
``qrmt.cli.sample_batch`` and ``qrmt.spectral.mean_count``), so no qrmt
source changes.  Two kinds of wrapper exist:

* span wrappers record (id, op, name, start, end, parent, self time) and are
  used where a call does a sizeable piece of work;
* counted wrappers only add to per-name totals; they guard the hot scalar
  entry points (``ln_gamma``, ``joint_eigen_density``, ``eigenvalues``) that
  are called up to a million times per pass.

Both kinds sit on one frame stack, so a frame's self time is its duration
minus the time its child frames cover, whichever kind they are.  Only the
thread that installed the patches is traced; calls from pool workers pass
straight through, so the aggregates need no lock.
"""
from __future__ import annotations

import functools
import threading
import time
import warnings
from collections import defaultdict

import numpy as np

# names whose spans make up spectral.stats_busy_s
SPECTRAL_STATS = (
    "empirical_density", "empirical_gap", "nn_spacings", "nn_spacing",
    "ks_distance", "ks_distance_two", "tail_index",
)
# analytic kinds counted in points: the position and name of the argument
# whose size is the number of points a call evaluates
ANALYTIC_KINDS = {
    "density_curve": (1, "e_grid"), "element_curve": (1, "x_grid"),
    "gap_curve": (1, "theta_grid"), "gap_probability_bulk": (0, "s"),
    "level_density": (0, "e"), "mean_count": (0, "theta"), "gap_probability": (0, "theta"),
}
SIZES = (2, 4, 10, 20, 40, 50)


class Tracer:
    """Frame stack plus aggregates; patches are installed only while tracing."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)  # name -> calls
        self.incl = defaultdict(float)  # name -> inclusive seconds
        self.self_s = defaultdict(float)  # name -> self seconds
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)  # sub-keyed counters (draws per n, ...)
        self.failed = defaultdict(int)  # layer -> frames that raised
        self.op = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._saved: list[tuple] = []
        self._quad_modules: list = []
        self._thread = None

    # -- patch table -------------------------------------------------------

    def add(self, owner, attr: str, layer: str, span: bool, hook=None):
        self._patches.append((owner, attr, layer, span, hook))

    def add_quad(self, module) -> None:
        """Count ``module``'s QUADPACK calls through a stand-in ``integrate``."""
        self._quad_modules.append(module)

    def install(self) -> None:
        self._thread = threading.get_ident()
        for module in self._quad_modules:
            self._install_quad(module)
        for owner, attr, layer, span, hook in self._patches:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, f"{layer}.{attr}", span, hook)))
            else:
                setattr(owner, attr, self._wrap(raw, f"{layer}.{attr}", span, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- frames ------------------------------------------------------------

    def _wrap(self, fn, full: str, span: bool, hook):
        layer = full.split(".", 1)[0]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            sid = None
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            # frame: start, child seconds, nearest span id
            frame = [time.perf_counter(), 0.0, sid if span else parent]
            stack.append(frame)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.calls[full] += 1
                tracer.incl[full] += dur
                tracer.self_s[full] += own
                tracer.layer_self[layer] += own
                if not ok:
                    tracer.failed[layer] += 1
                if span:
                    tracer.spans.append((sid, tracer.op, full, frame[0], end, parent, own))
                if hook is not None and ok:
                    hook(tracer, args, kwargs, dur)

        return wrapper

    def _install_quad(self, module) -> None:
        real = module.integrate
        tracer = self

        class _Integrate:
            def __getattr__(self, attr):
                return getattr(real, attr)

            @staticmethod
            def quad(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return real.quad(*args, **kwargs)
                want_full = kwargs.get("full_output", 0)
                res = real.quad(*args, **{**kwargs, "full_output": 1})
                tracer.counts["analytic.quad_calls"] += 1
                tracer.counts["analytic.quad_neval"] += int(res[2].get("neval", 0))
                tracer.counts["analytic.quad_worst_err"] = max(
                    tracer.counts["analytic.quad_worst_err"], float(res[1]))
                if want_full:
                    return res
                if len(res) > 3:  # the warning full_output suppressed
                    warnings.warn(str(res[3]), real.IntegrationWarning, stacklevel=2)
                return res[:2]

        self._saved.append((module, "integrate", real))
        module.integrate = _Integrate()


# -- hooks: sub-keyed counters at the boundary where the work is known ------


def _arg(args, kwargs, position: int, name: str, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _hook_sample_batch(tr: Tracer, args, kwargs, dur):
    n, count = _arg(args, kwargs, 0, "params").n, int(_arg(args, kwargs, 1, "count"))
    threads = _arg(args, kwargs, 3, "threads", 1) or 1
    tr.counts["sampler.draws"] += count
    tr.counts[f"sampler.draws.n{n}"] += count
    tr.counts[f"sampler.s.n{n}"] += dur
    tr.counts["sampler.bytes_out"] += count * n * n * 8
    tr.counts["sampler.threads"] = max(tr.counts["sampler.threads"], threads)


def _hook_sample_goe(tr: Tracer, args, kwargs, dur):
    n = int(_arg(args, kwargs, 0, "n"))
    tr.counts["sampler.draws"] += 1
    tr.counts["sampler.bytes_out"] += n * n * 8
    tr.counts["sampler.threads"] = max(tr.counts["sampler.threads"], 1)


def _hook_eigenvalues(tr: Tracer, args, kwargs, dur):
    n = int(np.shape(_arg(args, kwargs, 0, "h"))[0])
    tr.counts[f"spectral.eig.n{n}"] += 1
    tr.counts[f"spectral.eig_s.n{n}"] += dur


def _points_hook(kind: str, position: int, keyword: str):
    def hook(tr: Tracer, args, kwargs, dur):
        tr.counts[f"analytic.points.{kind}"] += int(np.size(_arg(args, kwargs, position, keyword)))
    return hook


def configure(tracer: Tracer, qrmt_modules) -> None:
    """Register every layer boundary; ``qrmt_modules`` maps short names to modules."""
    cli = qrmt_modules["cli"]
    sampler = qrmt_modules["sampler"]
    spectral = qrmt_modules["spectral"]
    analytic = qrmt_modules["analytic"]
    params = qrmt_modules["params"]

    for attr in ("from_q", "from_lambda", "gaussian"):
        tracer.add(params.EnsembleParams, attr, "params", span=False)

    for owner in (cli, sampler):
        tracer.add(owner, "sample_batch", "sampler", span=True, hook=_hook_sample_batch)
    tracer.add(cli, "sample_goe", "sampler", span=False, hook=_hook_sample_goe)
    tracer.add(cli, "sample_levy_stable", "sampler", span=False)

    tracer.add(spectral, "spectra_from_samples", "spectral", span=True)
    tracer.add(spectral, "eigenvalues", "spectral", span=False, hook=_hook_eigenvalues)
    for attr in SPECTRAL_STATS:
        tracer.add(spectral, attr, "spectral", span=True)

    for kind, where in ANALYTIC_KINDS.items():
        tracer.add(analytic, kind, "analytic", span=True, hook=_points_hook(kind, *where))
    # spectral imported mean_count by name: its calls only show up there
    tracer.add(spectral, "mean_count", "analytic", span=True,
               hook=_points_hook("mean_count", *ANALYTIC_KINDS["mean_count"]))
    tracer.add(analytic, "level_density_mixture", "analytic", span=True)
    for attr in ("joint_eigen_density", "element_pdf", "semicircle_density", "log_partition",
                 "wigner_surmise_cdf"):
        tracer.add(analytic, attr, "analytic", span=False)

    for attr in ("kummer_m", "ln_gamma", "bessel_k"):
        tracer.add(analytic, attr, "specfun", span=False)
    for attr in ("kummer_m", "kummer_m_transformed", "ln_gamma", "bessel_k", "erf", "levy_density"):
        tracer.add(cli, attr, "specfun", span=False)

    tracer.add_quad(analytic)
    tracer.add(cli, "main", "cli", span=True)
    tracer.add(cli, "render_svg", "cli", span=True)


def per_layer(tr: Tracer, passes: int, cli_files: float, cli_bytes: float) -> dict:
    """Per-pass per-layer metrics as (value, unit) pairs."""
    p = float(max(passes, 1))
    c, calls, incl = tr.counts, tr.calls, tr.incl
    out: dict[str, tuple[float, str]] = {}

    out["params.calls"] = (sum(calls[f"params.{a}"] for a in ("from_q", "from_lambda", "gaussian")) / p,
                           "count")
    out["params.busy_s"] = (tr.layer_self["params"] / p, "s")

    out["sampler.draws"] = (c["sampler.draws"] / p, "count")
    out["sampler.busy_s"] = (tr.layer_self["sampler"] / p, "s")
    for n in SIZES:
        d = c[f"sampler.draws.n{n}"]
        out[f"sampler.us_per_draw.n{n}"] = (1e6 * c[f"sampler.s.n{n}"] / d if d else 0.0, "us")
    out["sampler.threads"] = (c["sampler.threads"], "count")
    out["sampler.bytes_out"] = (c["sampler.bytes_out"] / p, "B_computed")

    eig_total = sum(v for k, v in c.items() if k.startswith("spectral.eig.n"))
    out["spectral.eig_matrices"] = (eig_total / p, "count")
    out["spectral.eig_busy_s"] = (incl["spectral.eigenvalues"] / p, "s")
    for n in SIZES:
        m = c[f"spectral.eig.n{n}"]
        out[f"spectral.eig_us_per_matrix.n{n}"] = (1e6 * c[f"spectral.eig_s.n{n}"] / m if m else 0.0,
                                                   "us")
    out["spectral.stats_busy_s"] = (sum(tr.self_s[f"spectral.{a}"] for a in SPECTRAL_STATS) / p, "s")
    out["spectral.gap_pairing_self_s"] = (tr.self_s["spectral.empirical_gap"] / p, "s")

    for kind in ANALYTIC_KINDS:
        pts = c[f"analytic.points.{kind}"]
        out[f"analytic.points.{kind}"] = (pts / p, "count")
        out[f"analytic.us_per_point.{kind}"] = (1e6 * incl[f"analytic.{kind}"] / pts if pts else 0.0,
                                                "us")
    out["analytic.quad_calls"] = (c["analytic.quad_calls"] / p, "count")
    out["analytic.quad_neval"] = (c["analytic.quad_neval"] / p, "count")
    out["analytic.joint_calls"] = (calls["analytic.joint_eigen_density"] / p, "count")
    out["analytic.quad_worst_err"] = (c["analytic.quad_worst_err"], "abs")
    out["analytic.failed"] = (tr.failed["analytic"] / p, "count")
    out["analytic.busy_s"] = (tr.layer_self["analytic"] / p, "s")

    out["specfun.kummer_calls"] = ((calls["specfun.kummer_m"] + calls["specfun.kummer_m_transformed"]) / p,
                                   "count")
    out["specfun.ln_gamma_calls"] = (calls["specfun.ln_gamma"] / p, "count")
    out["specfun.busy_s"] = (tr.layer_self["specfun"] / p, "s")

    out["cli.self_s"] = (tr.layer_self["cli"] / p, "s")
    out["cli.svg_s"] = (incl["cli.render_svg"] / p, "s")
    out["cli.files_written"] = (cli_files / p, "count")
    out["cli.bytes_written"] = (cli_bytes / p, "B")
    out["trace.spans"] = (len(tr.spans) / p, "count")
    return out
