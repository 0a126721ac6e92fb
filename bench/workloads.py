"""The three benchmark workloads: their timed ops, correctness gates and edge probes.

Each op is timed on its own.  Its gate runs afterwards, untimed, and returns a
list of failure messages (empty when the op passed).  An op fails if it
raises, exits non-zero, returns a non-finite value or misses a fixed
tolerance.

Why these workloads:

* ``mc_spectra`` is the Monte Carlo path: the sampler and spectral layers do
  almost all the work and analytic is idle.  Library cases run the README
  quick-start path at ``threads=1``; the raw case goes through ``cli.main``
  and writes n^2 floats per draw.
* ``analytic_curves`` is closed-form and quadrature curves only: analytic and
  specfun do the work and nothing is sampled.  lambda is swept because Kummer
  and QUADPACK costs depend on it.
* ``paper_figures`` is what a user runs to check the paper, at CLI defaults
  (default seeds and default thread count).  It is the only workload on the
  thread-pool path and mixes every layer.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, special

# draws whose threads=2 redraw must be byte-identical to the threads=1 batch
PREFIX = 200
# |z| of a histogram bin against the level density before the bin counts as
# a miss; 5 sigma keeps false alarms below 1e-5 per run over ~100 bins
Z_MAX = 5.0
# level_density is a Gamma mixture of semicircles, exact only as n -> inf;
# its finite-n error (measured: 10% of rho at n=2, 2.5% at n=10) is allowed
# as FINITE_N / n of the local density on top of Z_MAX standard errors
FINITE_N = 0.3
# KS distance of GOE nearest-neighbour spacings to the Wigner surmise: the
# surmise's own error, plus the 1% critical value 1.63/sqrt(m) of m spacings
KS_SURMISE = 0.015
# edge probes: the lambda values and matrix size of the q -> 1 limit
PROBE_LAMBDAS = (50.0, 300.0, 1e4)
PROBE_N = 20
# theta points of the gap probe: the CLI default range (0 and 0.01..3), at a
# size that keeps the probes near two seconds a run
PROBE_THETAS = 6


@dataclass
class Op:
    """One timed operation: ``run(pass_index)`` is timed, ``check(result)`` is not."""

    name: str
    run: Callable[[int], object]
    check: Callable[[object], list]
    work: int = 0  # matrices or curve points per call
    out_dir: str | None = None  # CLI output directory, for the traced file counts
    runs: int = 0
    fails: int = 0
    errors: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.runs += 1
        if problems:
            self.fails += 1
            if len(self.errors) < 5:
                self.errors.extend(problems[:2])


def derive_seed(seed: int, *keys: int) -> int:
    """A master seed for the program, derived from the workload seed only."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint32)[0])


def run_cli(cli, argv: list) -> tuple[int, str]:
    """Run ``qrmt.cli.main`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def read_csv(path: str) -> tuple[list, np.ndarray]:
    """Header and float rows of a qrmt CSV (``#`` metadata lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    body = ",".join(lines[1:])
    rows = np.array(body.split(","), dtype=float) if body else np.empty(0)
    return header, rows.reshape(len(lines) - 1, len(header))


def check_manifest(out_dir: str) -> list:
    """Re-hash every output a manifest lists."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    bad = []
    for entry in doc["outputs"]:
        with open(os.path.join(out_dir, entry["path"]), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                bad.append(f"{entry['path']}: sha256 mismatch")
    return bad


def _finite(name: str, *arrays) -> list:
    return [f"{name}: non-finite values"] if not all(np.all(np.isfinite(a)) for a in arrays) else []


def _symmetric(name: str, v: np.ndarray) -> list:
    return [f"{name}: not even in x"] if np.max(np.abs(v - v[::-1])) > 1e-12 * np.max(np.abs(v)) else []


class Workload:
    """Ops of one workload plus its once-per-run checks."""

    name = ""

    def __init__(self, q, work_dir: str, seed: int):
        self.q = q  # namespace of qrmt modules
        self.work_dir = work_dir
        self.seed = seed
        self.ops: list[Op] = []

    def warm_up(self) -> None:
        """Untimed: fill lazy imports and caches users do not pay per call."""

    def final_checks(self) -> None:
        """Untimed, once per run after the timed loop."""

    def detail(self, op_cpu: dict) -> dict:
        """The workload's own throughput and latency figures from per-op mean scaled CPU seconds."""
        return {}


# ---------------------------------------------------------------------------
# mc_spectra


@dataclass
class CaseResult:
    spectra: np.ndarray
    values: tuple
    prefix: np.ndarray
    seed: int


class McSpectra(Workload):
    name = "mc_spectra"

    def __init__(self, q, work_dir, seed, smoke):
        super().__init__(q, work_dir, seed)
        ep = q.params.EnsembleParams
        k = 40 if smoke else 1
        # (name, params, draws): each case takes 0.4-1.5 s on 2 cores, so a
        # run holds several passes
        self.cases = [
            ("mc.n2", ep.from_lambda(2, 1.0, alpha="auto"), 10000 // k),
            ("mc.n10", ep.from_lambda(10, 1.5, alpha="auto"), 5000 // k),
            ("mc.n40", ep.gaussian(40, "auto"), 1000 // k),
        ]
        self.raw_params = ep.from_q(4, 0.5, alpha="auto")
        self.raw_count = 5000 // k
        self.last: dict[str, CaseResult] = {}
        self.band = {}
        for i, (name, p, count) in enumerate(self.cases):
            self.ops.append(Op(name, self._lib_runner(i, p, count), self._lib_checker(name, p),
                               work=count))
        raw_dir = os.path.join(work_dir, "raw_n4")
        self.ops.append(Op("mc.raw_n4", self._raw_run, self._raw_check, work=self.raw_count,
                           out_dir=raw_dir))
        self.raw_dir = raw_dir

    def _geometry(self, p):
        radius = math.sqrt(p.n / p.alpha)
        bins = np.linspace(-2.0 * radius, 2.0 * radius, 61)
        thetas = np.concatenate([[0.0], np.geomspace(0.01 * radius, radius, 39)])
        return bins, thetas

    def _lib_runner(self, index: int, p, count: int):
        q = self.q
        bins, thetas = self._geometry(p)

        def run(k: int) -> CaseResult:
            seed = derive_seed(self.seed, index, k)
            samples = q.sampler.sample_batch(p, count, master_seed=seed, threads=1)
            batch = q.spectral.spectra_from_samples(samples)
            hist = q.spectral.empirical_density(batch, bins)
            ks = q.spectral.ks_distance(q.spectral.nn_spacings(batch), q.analytic.wigner_surmise_cdf)
            tail = q.spectral.tail_index(batch.pooled())
            gap = q.spectral.empirical_gap(batch, thetas, s_source="empirical")
            prefix = np.stack([s.h for s in samples[:PREFIX]])
            return CaseResult(batch.spectra, (hist.heights, ks, tail.index, gap.e_hat, gap.s_hat),
                              prefix, seed)

        return run

    def _density_band(self, p):
        """Bins over the central 80% of level-density mass, with bin-averaged rho."""
        an = self.q.analytic
        base = math.sqrt(p.n / p.alpha)
        grid = np.unique(np.concatenate(
            [np.linspace(0.0, 3.0 * base, 900), np.geomspace(3.0 * base, 3000.0 * base, 600)]))
        rho = np.asarray(an.level_density(grid, p), dtype=float)
        mass = integrate.cumulative_trapezoid(rho, grid, initial=0.0) / p.n
        x80 = float(np.interp(0.4, mass, grid))
        edges = np.linspace(-x80, x80, 37)
        mids = 0.5 * (edges[:-1] + edges[1:])
        ends = np.asarray(an.level_density(edges, p), dtype=float)
        expect = (ends[:-1] + 4.0 * np.asarray(an.level_density(mids, p)) + ends[1:]) / 6.0
        return edges, expect

    def _lib_checker(self, name: str, p):
        def check(res: CaseResult) -> list:
            self.last[name] = res
            problems = _finite(name, res.spectra, *res.values)
            if problems:
                return problems
            if p.regime is self.q.params.Regime.GAUSSIAN:
                ks = res.values[1]
                tol = KS_SURMISE + 1.63 / math.sqrt(res.spectra.shape[0] * (round(0.6 * p.n) - 1))
                if not ks < tol:
                    problems.append(f"{name}: spacing KS {ks:.4f} >= {tol:.4f}")
            else:
                if name not in self.band:
                    self.band[name] = self._density_band(p)
                edges, expect = self.band[name]
                m = res.spectra.shape[0]
                counts, _ = np.histogram(res.spectra.ravel(), bins=edges)
                w = np.diff(edges)
                heights = counts / (m * w)
                prob = np.clip(expect * w / p.n, 0.0, 1.0)
                se = np.sqrt(np.maximum(p.n * prob * (1.0 - prob) / m, 1e-300)) / w
                z = float(np.max((np.abs(heights - expect) - FINITE_N / p.n * expect) / se))
                if not z <= Z_MAX:
                    problems.append(f"{name}: histogram vs level_density |z| {z:.2f} > {Z_MAX} "
                                    f"beyond the finite-n allowance")
            return problems

        return check

    def _raw_run(self, k: int):
        seed = derive_seed(self.seed, len(self.cases), k)
        rc, _ = run_cli(self.q.cli, ["sample", "--n", 4, "--q", 0.5, "--count", self.raw_count,
                                     "--seed", seed, "--raw", "--threads", 1, "--out", self.raw_dir])
        return rc, seed

    def _raw_check(self, res) -> list:
        rc, seed = res
        if rc != 0:
            return [f"mc.raw_n4: exit code {rc}"]
        problems = []
        rc_v, _ = run_cli(self.q.cli, ["verify", "--manifest", os.path.join(self.raw_dir, "manifest.json")])
        if rc_v != 0:
            problems.append(f"mc.raw_n4: verify --manifest exit code {rc_v}")
        _, spectra = read_csv(os.path.join(self.raw_dir, "spectra.csv"))
        _, mats = read_csv(os.path.join(self.raw_dir, "matrices.csv"))
        problems += _finite("mc.raw_n4", spectra, mats)
        if spectra.shape[0] != self.raw_count or mats.shape[0] != self.raw_count:
            problems.append("mc.raw_n4: row count differs from --count")
        p = self.raw_params
        ball = -p.lam / p.alpha  # tr H^2 < -lambda/alpha on the restricted branch
        outside = int(np.count_nonzero(np.sum(mats * mats, axis=1) >= ball))
        if outside:
            problems.append(f"mc.raw_n4: {outside} draws outside the trace ball")
        self.last["mc.raw_n4"] = CaseResult(spectra, (), mats[:PREFIX].reshape(-1, 4, 4), seed)
        return problems

    def final_checks(self) -> None:
        """threads=2 prefix of every case's last batch must equal the threads=1 draws."""
        params = {name: p for name, p, _ in self.cases}
        params["mc.raw_n4"] = self.raw_params
        for op in self.ops:
            res = self.last.get(op.name)
            if res is None:
                continue
            redraw = self.q.sampler.sample_batch(params[op.name], len(res.prefix),
                                                 master_seed=res.seed, threads=2)
            same = np.stack([s.h for s in redraw]).tobytes() == res.prefix.tobytes()
            op.record([] if same else [f"{op.name}: threads=2 prefix differs from threads=1"])

    def detail(self, op_cpu: dict) -> dict:
        return {f"{op.name}_per_s": (op.work / op_cpu[op.name], "1/s") for op in self.ops}

    def warm_up(self) -> None:
        for _, p, _ in self.cases:
            b = self.q.spectral.spectra_from_samples(self.q.sampler.sample_batch(p, 20, master_seed=1))
            self.q.spectral.empirical_gap(b, [0.0, 0.1], s_source="empirical")


# ---------------------------------------------------------------------------
# analytic_curves


class AnalyticCurves(Workload):
    name = "analytic_curves"

    def __init__(self, q, work_dir, seed, smoke):
        super().__init__(q, work_dir, seed)
        lams = (1.0, 10.0) if smoke else (0.5, 1.0, 1.5, 3.0, 10.0)
        ns = (20,) if smoke else (20, 50)
        self.gap_ops = set()
        self.oracle_done = set()
        for n in ns:
            for lam in lams:
                for cmd, pts in (("density", 201), ("element", 201), ("gap", 40)):
                    name = f"{cmd}.n{n}.lam{lam:g}"
                    out = os.path.join(work_dir, name)
                    self.ops.append(Op(name, self._cli_runner(cmd, n, lam, out),
                                       self._cli_checker(cmd, name, n, lam, out), work=pts, out_dir=out))
                    if cmd == "gap":
                        self.gap_ops.add(name)
        s_grid = np.linspace(0.0, 10.0, 201)
        for lam in ((1.5,) if smoke else (0.5, 1.5, 3.0, 10.0)):
            name = f"bulk.lam{lam:g}"
            self.ops.append(Op(name, self._bulk_runner(s_grid, lam), self._bulk_checker(name, s_grid, lam),
                               work=len(s_grid)))
            self.gap_ops.add(name)
        ep = q.params.EnsembleParams
        for lam in ((1.5,) if smoke else (0.5, 1.5, 3.0)):
            p = ep.from_lambda(50, lam, alpha="auto")
            lim = 2.0 * math.sqrt(p.n / p.alpha) + 5.0 * p.e_char
            grid = np.linspace(-lim, lim, 2001)
            name = f"level_density.n50.lam{lam:g}"
            self.ops.append(Op(name, self._ld_runner(p, grid), self._ld_checker(name, p, grid),
                               work=len(grid)))

    def _cli_runner(self, cmd, n, lam, out):
        def run(k: int):
            return run_cli(self.q.cli, [cmd, "--n", n, "--lambda", lam, "--out", out])[0]
        return run

    def _cli_checker(self, cmd, name, n, lam, out):
        an = self.q.analytic
        p = self.q.params.EnsembleParams.from_lambda(n, lam, alpha="auto")

        def check(rc) -> list:
            if rc != 0:
                return [f"{name}: exit code {rc}"]
            problems = check_manifest(out)
            _, rows = read_csv(os.path.join(out, "curve.csv"))
            x, v, err = rows[:, 0], rows[:, 1], rows[:, 2]
            problems += _finite(name, x, v, err)
            if problems:
                return problems
            once = name not in self.oracle_done
            self.oracle_done.add(name)
            if cmd == "density":
                problems += _symmetric(name, v)
                if np.any(v < 0):
                    problems.append(f"{name}: negative density")
                if once:  # independent route: Gamma mixture of semicircles by QAWS
                    for e, val in zip(x[::50], v[::50]):
                        ref = an.level_density_mixture(float(e), p).value
                        if not abs(ref - val) <= 1e-8 * max(1.0, abs(ref)):
                            problems.append(f"{name}: rho({e:g}) {val!r} vs mixture {ref!r}")
            elif cmd == "element":
                problems += _symmetric(name, v)
                if np.argmax(v) != len(v) // 2:
                    problems.append(f"{name}: element density not peaked at 0")
                mass = float(integrate.trapezoid(v, x))
                ref = float(an.element_cdf(x[-1], p) - an.element_cdf(x[0], p))
                if not abs(mass - ref) <= 1e-3 * ref:
                    problems.append(f"{name}: grid mass {mass:.6f} vs cdf {ref:.6f}")
            else:
                if not (x[0] == 0.0 and v[0] == 1.0 and np.all(np.diff(x) > 0)):
                    problems.append(f"{name}: s(0) != 0, E(0) != 1 or s not increasing")
                if np.any(np.diff(v) > 1e-9) or np.any(v < -1e-9) or x[-1] > n * (1 + 1e-9):
                    problems.append(f"{name}: E outside [0, 1], increasing, or s beyond n")
                if once:  # s(theta_max) against twice the integrated level density
                    direct = 2.0 * integrate.quad(lambda e: an.level_density(e, p), 0.0, 3.0,
                                                  limit=200)[0]
                    if not abs(direct - x[-1]) <= 1e-6 * max(1.0, direct):
                        problems.append(f"{name}: s(3) {x[-1]!r} vs density integral {direct!r}")
            return problems

        return check

    def _bulk_runner(self, s_grid, lam):
        def run(k: int):
            return np.asarray(self.q.analytic.gap_probability_bulk(s_grid, lam), dtype=float)
        return run

    def _bulk_checker(self, name, s_grid, lam):
        def oracle(s: float) -> float:
            # substitution xi = t^2 removes the algebraic weight: plain quad
            slope = math.exp(special.gammaln(lam) - special.gammaln(lam + 0.5))
            f = lambda t: 2.0 * t ** (2 * lam - 1) * math.exp(-t * t) * special.erfc(
                s * t * slope * math.sqrt(math.pi) / 2.0)
            return integrate.quad(f, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=200)[0] / special.gamma(lam)

        def check(v) -> list:
            problems = _finite(name, v)
            if problems:
                return problems
            if v[0] != 1.0 or np.any(np.diff(v) > 1e-12) or np.any(v < 0):
                problems.append(f"{name}: E(0) != 1, E increasing or negative")
            if name not in self.oracle_done:
                self.oracle_done.add(name)
                for i in (10, 40, 160):
                    ref = oracle(float(s_grid[i]))
                    if not abs(ref - v[i]) <= 1e-7:
                        problems.append(f"{name}: E({s_grid[i]:g}) {v[i]!r} vs oracle {ref!r}")
            return problems

        return check

    def _ld_runner(self, p, grid):
        def run(k: int):
            return np.asarray(self.q.analytic.level_density(grid, p), dtype=float)
        return run

    def _ld_checker(self, name, p, grid):
        def check(v) -> list:
            problems = _finite(name, v)
            if problems:
                return problems
            problems += _symmetric(name, v)
            if np.any(v < 0):
                problems.append(f"{name}: negative density")
            if name not in self.oracle_done:
                self.oracle_done.add(name)
                for i in (1000, 1100, 1500):
                    ref = self.q.analytic.level_density_mixture(float(grid[i]), p).value
                    if not abs(ref - v[i]) <= 1e-8 * max(1.0, abs(ref)):
                        problems.append(f"{name}: rho({grid[i]:g}) {v[i]!r} vs mixture {ref!r}")
            return problems

        return check

    def warm_up(self) -> None:
        out = os.path.join(self.work_dir, "warm")
        run_cli(self.q.cli, ["density", "--n", 4, "--lambda", 2.0, "--grid=-1:1:5", "--out", out])

    def detail(self, op_cpu: dict) -> dict:
        def rate(names):
            return sum(op.work for op in self.ops if op.name in names) / sum(op_cpu[n] for n in names)
        return {
            "curve_points_per_s": (rate([op.name for op in self.ops]), "1/s"),
            "gap_points_per_s": (rate(self.gap_ops), "1/s"),
        }


# ---------------------------------------------------------------------------
# paper_figures


class PaperFigures(Workload):
    name = "paper_figures"

    def __init__(self, q, work_dir, seed, smoke):
        super().__init__(q, work_dir, seed)
        # CLI defaults (seeds 7, default threads) keep the figures' own
        # statistical acceptance checks at the inputs they were set for
        for fig, smoke_samples in (("fig1", 200), ("fig2", 2000)):
            out = os.path.join(work_dir, fig)
            argv = ["reproduce", fig, "--out", out] + (["--samples", smoke_samples] if smoke else [])
            self.ops.append(Op(f"{fig}", self._runner(argv), self._fig_checker(fig, out), out_dir=out))
        argv = ["verify", "--suite", "specfun" if smoke else "all"]
        self.ops.append(Op("verify", self._runner(argv), self._verify_check))

    def _runner(self, argv):
        def run(k: int):
            return run_cli(self.q.cli, argv)
        return run

    def _fig_checker(self, fig, out):
        def check(res) -> list:
            rc, _ = res
            if rc != 0:
                return [f"{fig}: exit code {rc}"]
            problems = check_manifest(out)
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                if json.load(fh).get("pass") is not True:
                    problems.append(f"{fig}: report.json pass is not true")
            return problems
        return check

    @staticmethod
    def _verify_check(res) -> list:
        rc, text = res
        lines = text.splitlines()
        plan = [ln for ln in lines if ln.startswith("1..")]
        bad = [ln for ln in lines if ln.startswith("not ok")]
        total = int(plan[0][3:]) if plan else 0
        if rc != 0 or bad or total == 0 or f"# {total}/{total} passed" not in lines:
            return [f"verify: exit code {rc}, {len(bad)} failed of {total}"]
        return []

    def detail(self, op_cpu: dict) -> dict:
        return {f"{op.name}_s": (op_cpu[op.name], "s") for op in self.ops}


WORKLOADS = {w.name: w for w in (McSpectra, AnalyticCurves, PaperFigures)}


# ---------------------------------------------------------------------------
# edge probes at the q -> 1 limit: untimed, once per run, counted as ops


def edge_probes(q) -> list:
    """density_curve and gap_curve at n=20 for large lambda; each must approach the GOE."""
    an, ep = q.analytic, q.params.EnsembleParams
    results = []
    for lam in PROBE_LAMBDAS:
        p = ep.from_lambda(PROBE_N, lam, alpha="auto")
        a_eff = p.alpha * (lam - 1.0) / lam
        radius = math.sqrt(p.n / a_eff)
        grid = np.linspace(-1.2 * radius, 1.2 * radius, 201)
        thetas = np.concatenate([[0.0], np.geomspace(0.01, 3.0, PROBE_THETAS - 1)])

        def density():
            c = an.density_curve(p, grid)
            ref = an.semicircle_density(grid, p.n, a_eff)
            core = np.abs(grid) <= 0.7 * radius
            sup = float(np.max(np.abs(c.values[core] - ref[core])))
            return [] if sup < 0.05 * float(np.max(ref)) else [f"sup distance to semicircle {sup:.3g}"]

        def gap():
            c = an.gap_curve(p, thetas)
            dev = float(np.max(np.abs(c.values - an.goe_gap(c.abscissae))))
            return [] if dev < 0.05 else [f"max distance to GOE gap law {dev:.3g}"]

        for kind, fn in (("density_curve", density), ("gap_curve", gap)):
            name = f"probe.{kind}.lam{lam:g}"
            try:
                with np.errstate(all="ignore"):
                    problems = fn()
            except Exception as exc:  # a probe records any failure, typed or not
                problems = [f"{type(exc).__name__}: {exc}"]
            results.append((name, problems))
    return results
