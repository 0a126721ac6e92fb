"""Command-line surface: sampling runs, analytic curves, figure reproduction,
verification suites, and reproducible flat-file outputs.

Exit codes are a stable contract: 0 success, 2 parameter error (an array the
parameters call for that does not fit in memory included), 3 I/O error,
4 acceptance/verification failure, 5 numerical failure (valid parameters at
which a closed-form law has no finite, checked value).
"""
from __future__ import annotations

import argparse
import datetime as _dt
import functools
import hashlib
import importlib
import itertools
import json
import math
import operator
import os
import sys

from . import __version__
from .params import EnsembleParams, NumericalError, ParameterError, Regime, _nonnegative_int
from .svg import Series, render_svg


class _FirstUse:
    """This module's global `name`, standing in for `source` until its first use.

    `source` is a module, or "module:attribute".  The first call or attribute
    access imports it and, unless a patch has replaced this stand-in, binds the
    real object to `name`, so later lookups are plain global lookups.  A module
    is the one object in sys.modules, so a patch on numpy or `qrmt.analytic`
    reaches the commands.  numpy, scipy and the other qrmt modules so load only
    when a command computes: `--version`, `--help`, an argument or parameter
    error and `verify --manifest` import none of them.
    """

    def __init__(self, name: str, source: str) -> None:
        self._name, self._source = name, source

    def _resolve(self):
        module, _, attr = self._source.partition(":")
        obj = importlib.import_module(module, __package__)
        if attr:
            obj = getattr(obj, attr)
        if globals().get(self._name) is self:
            globals()[self._name] = obj
        return obj

    def __getattr__(self, attr: str):
        return getattr(self._resolve(), attr)

    def __call__(self, *args, **kwargs):
        return self._resolve()(*args, **kwargs)


np = _FirstUse("np", "numpy")
an = _FirstUse("an", ".analytic")
sp = _FirstUse("sp", ".spectral")
# verify's public quad and dblquad: a name of its own, apart from analytic's
# QUADPACK route, so verify's quadratures stay out of what a stand-in for
# analytic.integrate sees
integrate = _FirstUse("integrate", "scipy.integrate")
# the sampler and specfun names the commands call; the benchmark's tracer
# counts the calls made through several of them, so sample_goe, which is not
# called here, stays one of them
RngStream = _FirstUse("RngStream", ".sampler:RngStream")
SampleBatch = _FirstUse("SampleBatch", ".sampler:SampleBatch")
_draw_packed = _FirstUse("_draw_packed", ".sampler:_draw_packed")
_entry_columns = _FirstUse("_entry_columns", ".sampler:_entry_columns")
sample_batch = _FirstUse("sample_batch", ".sampler:sample_batch")
sample_blocks = _FirstUse("sample_blocks", ".sampler:sample_blocks")
sample_goe = _FirstUse("sample_goe", ".sampler:sample_goe")
sample_levy_stable = _FirstUse("sample_levy_stable", ".sampler:sample_levy_stable")
_sp = _FirstUse("_sp", ".specfun:_sp")
bessel_k = _FirstUse("bessel_k", ".specfun:bessel_k")
erf = _FirstUse("erf", ".specfun:erf")
kummer_m = _FirstUse("kummer_m", ".specfun:kummer_m")
kummer_m_transformed = _FirstUse("kummer_m_transformed", ".specfun:kummer_m_transformed")
levy_density = _FirstUse("levy_density", ".specfun:levy_density")
ln_gamma = _FirstUse("ln_gamma", ".specfun:ln_gamma")

__all__ = ["main", "RunManifest"]


# ---------------------------------------------------------------------------
# manifest and file plumbing


class RunManifest:
    """Run metadata with content digests; field order in the JSON is fixed.

    Every file of the run is written through `add`, so each one is listed, in
    write order, with its sha256.  The output directory is created by the
    first `add`, so a run that fails before writing anything leaves none.
    `check` re-hashes the files a written manifest lists.
    """

    def __init__(self, out_dir: str, command: str, params: EnsembleParams | None,
                 master_seed: int | None, sample_count: int | None):
        self.out_dir = out_dir
        self.doc = {
            "tool_version": __version__,
            "command": command,
            "params": params.as_dict() if params is not None else None,
            "master_seed": master_seed,
            "sample_count": sample_count,
            "started": _now(),
            "finished": None,
            "outputs": [],
        }

    def add(self, name: str, writer, *args, **kwargs) -> str:
        """Write `name` in the run directory by writer(path, *args, **kwargs); record its sha256."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        writer(path, *args, **kwargs)
        self.doc["outputs"].append({"path": name, "sha256": _sha256(path)})
        return path

    def write(self) -> str:
        self.doc["finished"] = _now()
        path = os.path.join(self.out_dir, "manifest.json")
        _write_json(path, self.doc)
        return path

    @staticmethod
    def check(path: str) -> list:
        """One (ok, file name, note) row per output the manifest at `path` lists."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # malformed JSON or not UTF-8 text
                raise ParameterError(f"{path} is not a JSON manifest: {exc}") from None
        # a run writes bare file names into its own directory: nothing else is hashed
        outputs = doc.get("outputs") if isinstance(doc, dict) else None
        if not (isinstance(outputs, list) and outputs) or not all(
            isinstance(e, dict) and isinstance(e.get("path"), str) and isinstance(e.get("sha256"), str)
            and e["path"] not in ("", ".", "..") and os.path.basename(e["path"]) == e["path"]
            for e in outputs
        ):
            raise ParameterError(
                f"{path}: 'outputs' must be a non-empty list of {{path, sha256}} entries "
                "whose path is a bare file name"
            )
        base = os.path.dirname(os.path.abspath(path))
        rows = []
        for entry in outputs:
            fpath = os.path.join(base, entry["path"])
            if not os.path.isfile(fpath):
                rows.append((False, entry["path"], "missing"))
            elif _sha256(fpath) == entry["sha256"]:
                rows.append((True, entry["path"], "sha256 verified"))
            else:
                rows.append((False, entry["path"], "digest mismatch"))
        return rows


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _meta_lines(params: EnsembleParams | None, **extra) -> list[str]:
    lines = [f"# tool_version={__version__}"]
    if params is not None:
        lines.append(
            "# n={n} q={q} lambda={lam} alpha={alpha} regime={regime}".format(
                n=params.n, q=params.q, lam=params.lam, alpha=repr(params.alpha),
                regime=params.regime.value,
            )
        )
    for k, v in extra.items():
        lines.append(f"# {k}={v}")
    return lines


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, meta: list[str], header: list[str], blocks, layout=None, suffix: str = "") -> None:
    """Write each 2-D float array of `blocks` in turn, one repr per value, so a table can stream.

    With `layout`, field k of a line is column layout[k] of the block's row,
    so a value that fills several fields is formatted once.  `suffix` ends
    every line: a column that holds one value, formatted once by the caller.
    """
    if layout is None:
        place = None
    elif len(layout) == 1:  # itemgetter of one index gives the item, not a 1-tuple
        place = lambda strs, k=layout[0]: (strs[k],)
    else:
        place = operator.itemgetter(*layout)
    with open(path, "w", encoding="utf-8") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for block in blocks:
            rows = (list(map(repr, row)) for row in block.tolist())
            if place is not None:
                rows = map(place, rows)
            end = suffix + "\n"
            fh.writelines(",".join(fields) + end for fields in rows)


def _write_curve(path: str, curve: an.AnalyticCurve, fmt: str, meta_extra: dict) -> None:
    meta = _meta_lines(curve.params, kind=curve.kind, **meta_extra)
    if fmt == "json":
        _write_json(path, {
            "kind": curve.kind,
            "params": curve.params.as_dict() if curve.params is not None else None,
            "x": [float(v) for v in curve.abscissae],
            "value": [float(v) for v in curve.values],
            "quadrature_error": float(curve.quadrature_error),
        })
        return
    # quad_error: the worst-case estimate, same for every row
    table = np.column_stack([curve.abscissae, curve.values])
    _write_csv(path, meta, ["x", "value", "quad_error"], [table], suffix="," + repr(float(curve.quadrature_error)))


# ---------------------------------------------------------------------------
# argument plumbing


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", type=float, help="entropic index (q=1 is the Gaussian ensemble)")
    g.add_argument("--lambda", dest="lam", type=float, help="shape parameter lambda")
    p.add_argument(
        "--alpha", default="auto",
        help="confinement alpha, or 'auto' for the n^(2/sigma)/2 scaling (default)",
    )


def _build_params(args) -> EnsembleParams:
    if args.lam is not None:
        return EnsembleParams.from_lambda(args.n, args.lam, alpha=args.alpha)
    return EnsembleParams.from_q(args.n, args.q, alpha=args.alpha)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, cnt_s = spec.split(":")
        lo, hi, cnt = float(lo_s), float(hi_s), int(cnt_s)
    except ValueError:
        raise ParameterError(f"grid must be 'min:max:count', got {spec!r}") from None
    # a finite span hi - lo also rules out an infinite or nan end
    if cnt < 2 or not (lo < hi and hi - lo < math.inf):
        raise ParameterError(f"grid needs max > min with a finite span max - min, and count >= 2, "
                             f"got {spec!r}")
    return np.linspace(lo, hi, cnt)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    params = _build_params(args)
    if not 1 <= args.count < 1 << 32:
        raise ParameterError(f"--count must be at least 1 and below 2**32, got {args.count}")
    manifest = RunManifest(args.out, "sample", params, args.seed, args.count)
    # --raw writes the matrices after the spectra, so it keeps the whole batch;
    # otherwise the draws stream through the eigensolve one block at a time
    if args.raw:
        samples = sample_batch(params, args.count, master_seed=args.seed)
    else:
        samples = sample_blocks(params, args.count, master_seed=args.seed)
    spectra = sp.spectra_from_samples(samples).spectra
    meta = _meta_lines(params, master_seed=args.seed, count=args.count)
    step = SampleBatch.chunk_rows(params.n)
    starts = range(0, args.count, step)
    spath = manifest.add("spectra.csv", _write_csv, meta, [f"e{i + 1}" for i in range(params.n)],
                         (spectra[lo : lo + step] for lo in starts))
    if args.raw:
        # one packed row per matrix; each entry's field is placed from its packed column
        header = [f"h{i + 1}{j + 1}" for i in range(params.n) for j in range(params.n)]
        blocks = (samples.packed[lo : lo + step] for lo in starts)
        manifest.add("matrices.csv", _write_csv, meta, header, blocks, _entry_columns(params.n).tolist())
    mpath = manifest.write()
    print(f"wrote {spath} ({args.count} x {params.n}) and {mpath}")
    return 0


def _grid(params: EnsembleParams, args, what: str) -> np.ndarray:
    """The --grid value, or a default E (or x) grid that spans the curve's mass."""
    if args.grid:
        return _parse_grid(args.grid)
    if what == "element":
        scale = 1.0 / math.sqrt(2.0 * params.alpha)
        return np.linspace(-10.0 * scale, 10.0 * scale, 201)
    if params.regime is Regime.LEVY_BRANCH:
        lim = 2.0 * math.sqrt(params.n / params.alpha) + 5.0 * params.e_char
        span = f"2 sqrt(n/alpha) + 5 e_char with characteristic energy e_char = {params.e_char!r}"
    else:
        lim = 1.2 * math.sqrt(params.n / params.alpha)
        span = "1.2 sqrt(n/alpha)"
    if not math.isfinite(lim):
        raise NumericalError(f"the default grid's half-width, {span}, is not finite at n={params.n}, "
                             f"lambda={params.lam:g}, alpha={params.alpha!r}; give --grid")
    return np.linspace(-lim, lim, 201)


def _gap_theta_grid(theta_max: float, points: int) -> np.ndarray:
    """theta = 0, then points - 1 geometric steps from theta-max/300 to theta-max itself."""
    first = theta_max / 300.0
    if not (0 < first and theta_max < math.inf) or points < 3:
        raise ParameterError(f"need a finite theta-max whose theta-max/300 is > 0, and points >= 3 "
                             f"(0, theta-max/300 and theta-max), got {theta_max}, {points}")
    # geomspace's 10**log10(theta-max) can overflow; it sets its endpoint to theta-max itself
    with np.errstate(over="ignore"):
        body = np.geomspace(first, theta_max, points - 1)
    return np.concatenate([[0.0], body])


def _gap_series(curve: an.AnalyticCurve, args) -> list:
    s = curve.abscissae
    return [
        Series(s, curve.values, label="E(s)"),
        Series(s[s > 0], 1.0 / (2.0 * s[s > 0] ** 2), label="1/(2s^2)", style="dotted"),
    ]


# curve commands: name -> (help, (params, args) -> grid, (params, grid, args) ->
# (curve, extra metadata), (curve, args) -> SVG series, render_svg labels);
# the grid comes first, so a bad grid is refused before qrmt.analytic loads
_CURVES = {
    "density": (
        "mean level density curve",
        lambda p, args: _grid(p, args, "density"),
        lambda p, grid, args: (an.density_curve(p, grid), {}),
        lambda c, args: [Series(c.abscissae, c.values, label=f"lambda={c.params.lam:g}")],
        {"title": "mean level density", "xlabel": "E", "ylabel": "rho(E)"},
    ),
    "element": (
        "matrix-element density curve",
        lambda p, args: _grid(p, args, "element"),
        lambda p, grid, args: (an.element_curve(p, grid, entry=args.entry), {"entry": args.entry}),
        lambda c, args: [Series(c.abscissae, c.values, label=f"{args.entry} element")],
        {"title": "element density", "xlabel": "x", "ylabel": "p(x)"},
    ),
    "gap": (
        "gap probability curve E(s)",
        lambda p, args: _gap_theta_grid(args.theta_max, args.points),
        lambda p, grid, args: (an.gap_curve(p, grid), {"theta_max": args.theta_max}),
        _gap_series,
        {"title": "gap probability", "xlabel": "s", "ylabel": "E", "ylog": True},
    ),
}


def cmd_curve(args) -> int:
    params = _build_params(args)
    _, grid, build, series, labels = _CURVES[args.cmd]
    curve, meta_extra = build(params, grid(params, args), args)
    manifest = RunManifest(args.out, args.cmd, params, None, None)
    cpath = manifest.add(f"curve.{args.format}", _write_curve, curve, args.format, meta_extra)
    if args.svg:
        manifest.add("plot.svg", render_svg, series(curve, args), **labels)
    manifest.write()
    print(f"wrote {cpath}")
    return 0


# ---------------------------------------------------------------------------
# figure reproduction


def _mass_quantiles(params: EnsembleParams, *one_sided: float) -> tuple[float, ...]:
    """For each one_sided, x with (fraction of eigenvalue mass in [-x, x]) = 1 - 2*one_sided.

    Heavy-tailed members only: the grid reaches 3000 semicircle radii.
    """
    base = math.sqrt(params.n / params.alpha)
    grid = np.unique(
        np.concatenate([np.linspace(0.0, 3.0 * base, 900), np.geomspace(3.0 * base, 3000.0 * base, 600)])
    )
    rho = np.asarray(an.level_density(grid, params), dtype=float)
    # one-sided mass: scipy's cumulative_trapezoid(rho, grid, initial=0.0), operation for operation
    cum = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (rho[1:] + rho[:-1]) / 2.0)]) / params.n
    return tuple(float(np.interp(0.5 - tail, cum, grid)) for tail in one_sided)


def _overlay_violations(params, batch, x_ok: float) -> tuple[int, int, float]:
    """Histogram the central window and count bins beyond 4 binomial errors.

    Bins are laid over [-x_ok, x_ok] directly, and the analytic expectation is
    the bin-averaged density (Simpson), so narrow peaks are not misread as
    sampling error.  Returns (violations, bins checked, worst z)."""
    edges = np.linspace(-x_ok, x_ok, 37)
    h = sp.empirical_density(batch, edges)
    n = params.n
    ends = np.asarray(an.level_density(edges, params), dtype=float)
    mids = np.asarray(an.level_density(0.5 * (edges[:-1] + edges[1:]), params), dtype=float)
    rho = (ends[:-1] + 4.0 * mids + ends[1:]) / 6.0
    p = np.clip(rho * h.widths / n, 0.0, 1.0)  # per-eigenvalue bin probability
    se = np.sqrt(np.maximum(n * p * (1.0 - p) / batch.count, 1e-300)) / h.widths
    z = np.abs(h.heights - rho) / se
    return int(np.count_nonzero(z > 4.0)), len(h.widths), float(max(z.max(), 0.0))


def cmd_reproduce(args) -> int:
    """Run one figure, then write its report.json; exit 4 when any check fails."""
    run, default_samples = _FIGURES[args.figure]
    samples = args.samples if args.samples is not None else default_samples
    _nonnegative_int(args.seed, "master seed")  # reject a bad seed or count before any output exists
    if not 1 <= samples < 1 << 32:
        raise ParameterError(f"--samples must be at least 1 and below 2**32, got {samples}")
    report, manifest = run(args.out, args.seed, samples)
    ok = all(chk["pass"] for chk in report["checks"].values())
    report["pass"] = ok
    manifest.add("report.json", _write_json, report)
    manifest.write()
    for name, chk in report["checks"].items():
        print(f"{'ok' if chk['pass'] else 'FAIL'} {name}")
    print(f"{args.figure} {'pass' if ok else 'FAIL'}; outputs in {args.out}")
    return 0 if ok else 4


def _reproduce_fig1(out: str, seed: int, samples: int) -> tuple[dict, RunManifest]:
    lams = (10.0, 1.0, 0.75, 0.5)
    n = 50
    manifest = RunManifest(out, "reproduce fig1", None, seed, samples)
    report: dict = {"figure": "fig1", "n": n, "samples": samples, "curves": [], "checks": {}}
    series = []
    curves = {}
    for i, lam in enumerate(lams):
        params = EnsembleParams.from_lambda(n, lam, alpha="auto")
        # the member's spectra before its first file, as in fig2
        batch = sp.spectra_from_samples(sample_blocks(params, samples, master_seed=seed + i))
        lim, x80 = _mass_quantiles(params, 0.005, 0.10)  # x80: the central 80% of mass
        grid = np.linspace(-lim, lim, 241)
        curve = an.density_curve(params, grid)
        curves[lam] = (params, curve, x80)
        cname = f"fig1_density_lam{lam:g}.csv"
        manifest.add(cname, _write_curve, curve, "csv", {"figure": "fig1"})
        report["curves"].append({"lambda": lam, "alpha": params.alpha, "file": cname})
        series.append(Series(grid / math.sqrt(n / params.alpha), curve.values * math.sqrt(n / params.alpha) / n,
                             label=f"lambda={lam:g}", color=None))

        # Monte Carlo overlay, binomial band check on the central 80% of mass
        bad, checked, worst = _overlay_violations(params, batch, x80)
        hist = sp.empirical_density(batch, np.linspace(-lim, lim, 49))
        manifest.add(
            f"fig1_hist_lam{lam:g}.csv", _write_csv,
            _meta_lines(params, figure="fig1", master_seed=seed + i, count=samples),
            ["center", "height", "count"],
            [np.column_stack([hist.centers, hist.heights, hist.counts])],
        )
        report["checks"][f"mc_overlay_lam{lam:g}"] = {
            "bins_checked": checked, "violations": bad, "worst_z": worst, "pass": bad == 0,
        }

    # reference: semicircle at the lambda -> inf effective confinement of lam=10
    p10, c10, x80 = curves[10.0]
    a_eff = (10.0 - 1.0) / 10.0 * p10.alpha
    ref = an.semicircle_density(c10.abscissae, n, a_eff)
    manifest.add(
        "fig1_density_goe_ref.csv", _write_csv,
        _meta_lines(p10, figure="fig1", reference="semicircle", alpha_eff=repr(a_eff)),
        ["x", "value"],
        [np.column_stack([c10.abscissae, ref])],
    )
    series.append(
        Series(c10.abscissae / math.sqrt(n / p10.alpha), ref * math.sqrt(n / p10.alpha) / n,
               label="semicircle ref", style="dashed", color="#444444")
    )

    # check 1: lam=10 sup distance to the shifted semicircle, central 80% of mass
    mask = np.abs(c10.abscissae) <= x80
    sup = float(np.max(np.abs(c10.values[mask] - ref[mask])))
    peak = float(np.max(ref))
    report["checks"]["lam10_semicircle"] = {
        "sup_distance": sup, "peak": peak, "ratio": sup / peak, "pass": sup < 0.05 * peak,
    }

    # check 2: lam=0.5 log-log tail slope on [3, 30] characteristic energies
    p05 = curves[0.5][0]
    ec = p05.e_char
    es = np.geomspace(3.0 * ec, 30.0 * ec, 40)
    rho = np.asarray(an.level_density(es, p05), dtype=float)
    slope = float(np.polyfit(np.log(es), np.log(rho), 1)[0])
    report["checks"]["lam05_tail_slope"] = {
        "slope": slope, "target": -2.0, "pass": abs(slope + 2.0) < 0.1,
    }

    manifest.add(
        "fig1.svg", render_svg, series, title="level densities, n=50 (scaled units)",
        xlabel="E / sqrt(n/alpha)", ylabel="rho * sqrt(n/alpha) / n",
    )
    return report, manifest


def _reproduce_fig2(out: str, seed: int, samples: int) -> tuple[dict, RunManifest]:
    n, lam = 20, 1.0
    params = EnsembleParams.from_lambda(n, lam, alpha="auto")
    manifest = RunManifest(out, "reproduce fig2", params, seed, samples)
    # the simulation's spectra first: a sample count too large for memory fails before any file exists
    batch = sp.spectra_from_samples(sample_blocks(params, samples, master_seed=seed))

    # analytic reference: scaling-limit curve, plus its power-law asymptote and
    # the GOE gap law; the asymptote column is exactly 1/(2 s^2)
    s_grid = np.linspace(0.0, 10.0, 201)
    e_bulk = np.asarray(an.gap_probability_bulk(s_grid, lam), dtype=float)
    with np.errstate(divide="ignore"):
        asym = np.where(s_grid > 0.0, 1.0 / (2.0 * s_grid**2), np.inf)
    e_goe = np.asarray(an.goe_gap(s_grid), dtype=float)
    manifest.add(
        "fig2_analytic.csv", _write_csv,
        _meta_lines(params, figure="fig2"),
        ["s", "gap_probability", "asymptote", "goe"],
        [np.column_stack([s_grid, e_bulk, asym, e_goe])],
    )

    # simulation overlay: empirical gap fractions with the analytic s pairing
    thetas = np.concatenate([[0.0], np.geomspace(0.004, 0.30, 39)])
    gap = sp.empirical_gap(batch, thetas)
    manifest.add(
        "fig2_sim.csv", _write_csv,
        _meta_lines(params, figure="fig2", master_seed=seed, count=samples),
        ["theta", "s", "e_hat", "stderr"],
        [np.column_stack([gap.theta, gap.s_hat, gap.e_hat, gap.stderr])],
    )

    # acceptance: simulation within 0.03 of the curve on s in [0, 4]
    mask = gap.s_hat <= 4.0
    deltas = np.abs(gap.e_hat[mask] - np.asarray(an.gap_probability_bulk(gap.s_hat[mask], lam)))
    max_delta = float(np.max(deltas))
    # acceptance: s^2 E within [0.45, 0.55] on s in [5, 10]
    band_mask = (s_grid >= 5.0) & (s_grid <= 10.0)
    band = s_grid[band_mask] ** 2 * e_bulk[band_mask]
    report = {
        "figure": "fig2", "n": n, "lambda": lam, "alpha": params.alpha, "samples": samples,
        "checks": {
            "sim_vs_curve": {"max_abs_delta": max_delta, "s_range": [0.0, 4.0],
                             "tolerance": 0.03, "pass": max_delta <= 0.03},
            "asymptote_band": {"min": float(band.min()), "max": float(band.max()),
                               "window": [0.45, 0.55],
                               "pass": bool(np.all((band >= 0.45) & (band <= 0.55)))},
        },
    }

    pos = s_grid > 0.2
    manifest.add(
        "fig2.svg", render_svg,
        [
            Series(s_grid[pos], e_bulk[pos], label=f"E(s), lambda={lam:g}"),
            Series(s_grid[pos], asym[pos], label="1/(2s^2)", style="dotted", color="#444444"),
            Series(s_grid[pos], e_goe[pos], label="GOE", style="dashed", color="#1a7f37"),
            Series(gap.s_hat[gap.e_hat > 0], gap.e_hat[gap.e_hat > 0],
                   label=f"simulation n={n}", markers=True, color="#d1242f"),
        ],
        title="gap probability vs mean count", xlabel="s", ylabel="E(s)", ylog=True,
    )
    return report, manifest


# figure -> (runner returning its report and manifest, default sample count)
_FIGURES = {"fig1": (_reproduce_fig1, 1000), "fig2": (_reproduce_fig2, 10000)}


# ---------------------------------------------------------------------------
# verification suites


def _check(name, metric, tol, detail=""):
    # strict inequality, so a check at tolerance 0 fails whatever its metric
    ok = metric < tol
    note = f"{detail + ' ' if detail else ''}metric={metric:.3g} tol={tol:.3g}"
    return ok, name, note


def _suite_specfun(seed: int) -> list:
    checks = []
    checks.append(_check(
        "bessel_k half-integer closed form",
        abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2.0) * math.exp(-1.0)), 1e-12))
    checks.append(_check(
        "bessel_k(1,1) anchor", abs(bessel_k(1.0, 1.0) - 0.60190723019723457), 1e-12))
    checks.append(_check(
        "kummer_m(1,2,-1) closed form", abs(kummer_m(1.0, 2.0, -1.0) - (1.0 - math.exp(-1.0))),
        1e-12))
    checks.append(_check("erf(1) anchor", abs(erf(1.0) - 0.84270079294971487), 1e-12))
    checks.append(_check(
        "ln_gamma(7.25) anchor", abs(ln_gamma(7.25) - 7.0521854507385394), 1e-12))
    checks.append(_check(
        "levy_density cauchy point", abs(levy_density(1.0, 1.0, 1.0) - 1.0 / (2.0 * math.pi)),
        1e-12))
    checks.append(_check(
        "levy_density oscillatory anchor",
        abs(levy_density(1.0, 0.5, 1.0) - 0.086107146912604118), 1e-9))
    checks.append(_check(
        "kummer transform consistency",
        abs(kummer_m(1.5, 3.0, -30.0) - kummer_m_transformed(1.5, 3.0, -30.0)), 1e-9))
    return checks


def _trace_sq(batch) -> np.ndarray:
    """tr H^2 of every draw in a batch, byte for byte `MatrixSample.trace_sq`, one dense chunk at a time."""
    return np.concatenate([np.sum(h * h, axis=(1, 2)) for h in batch.chunks()])


def _suite_samplers(seed: int) -> list:
    checks = []
    # 3000 GOE draws in turn on one stream, byte for byte 3000 sample_goe(8, 0.7, g) calls;
    # a Gaussian row packs the upper off-diagonals in triu order, then the diagonal
    pg = EnsembleParams.gaussian(8, 0.7)
    g = RngStream(seed, 101).generator()
    packed = _draw_packed(pg, itertools.repeat(g, 3000), 3000)[0]
    m = pg.f - pg.n
    diag = packed[:, m:].ravel()
    off = packed[:, :m].ravel()
    checks.append(_check(
        "goe diagonal variance", abs(diag.var() * 2.0 * 0.7 - 1.0), 0.08, "target 1/(2a)"))
    checks.append(_check(
        "goe off-diagonal variance", abs(off.var() * 4.0 * 0.7 - 1.0), 0.08, "target 1/(4a)"))

    p = EnsembleParams.from_lambda(5, 3.0, alpha=0.5)
    tr = _trace_sq(sample_batch(p, 4000, master_seed=seed + 1))
    expect = p.f * 3.0 / (2.0 * 0.5 * (3.0 - 1.0))
    checks.append(_check(
        "gamma-mixture trace mean", abs(tr.mean() / expect - 1.0), 0.1,
        f"target {expect:g}"))

    p0 = EnsembleParams.from_q(3, 0.0, alpha=1.0)
    us = _trace_sq(sample_batch(p0, 3000, master_seed=seed + 2)) * p0.alpha / (-p0.lam)
    checks.append(_check(
        "restricted-trace support", float(np.count_nonzero(us >= 1.0)) / len(us), 1e-12,
        "fraction outside the ball"))

    pb = EnsembleParams.from_q(3, -math.inf, alpha=1.0)
    ub = _trace_sq(sample_batch(pb, 3000, master_seed=seed + 3)) * pb.alpha / (-pb.lam)
    ks = sp.ks_distance(ub, lambda u: np.clip(u, 0.0, 1.0) ** (pb.f / 2.0))
    checks.append(_check("bounded-trace radial law", ks, 0.04, "KS vs u^(f/2)"))

    g2 = RngStream(seed, 102).generator()
    stable2 = sample_levy_stable(2.0, 0.8, g2, size=20000)
    checks.append(_check(
        "stable sigma=2 variance", abs(stable2.var() / (2.0 * 0.8**2) - 1.0), 0.08))
    g3 = RngStream(seed, 103).generator()
    stable15 = sample_levy_stable(1.5, 1.0, g3, size=20000)
    emp_cf = float(np.mean(np.cos(stable15)))
    checks.append(_check(
        "stable sigma=1.5 char fn at k=1", abs(emp_cf - math.exp(-1.0)), 0.02))

    h1 = sample_batch(p, 3, master_seed=seed + 4)[2].h
    h2 = sample_batch(p, 3, master_seed=seed + 4)[2].h
    checks.append(_check(
        "determinism per-index streams", float(np.max(np.abs(h1 - h2))), 1e-15))
    return checks


def _suite_analytic(seed: int) -> list:
    checks = []
    p1 = EnsembleParams.from_lambda(1, 2.0, alpha=1.0)
    checks.append(_check(
        "log partition f=1 anchor",
        abs(an.log_partition(p1) - math.log(1.8856180831641267)), 1e-12))

    p = EnsembleParams.from_lambda(10, 1.5, alpha=5.0)
    mass = integrate.quad(lambda x: an.element_pdf(x, p, "diag"), -np.inf, np.inf)[0]
    checks.append(_check("element density mass", abs(mass - 1.0), 1e-8))

    lv = 2.0 * integrate.quad(lambda e: an.level_density(e, p), 0.0, np.inf, limit=400)[0]
    checks.append(_check("level density mass", abs(lv - p.n), 1e-6))

    worst = 0.0
    for e in (0.0, 0.3, 1.0, 2.5, 14.0):
        worst = max(worst, abs(an.level_density_mixture(e, p).value - an.level_density(e, p)))
    checks.append(_check("mixture route vs closed form", worst, 1e-10))

    th = np.concatenate([[0.0], np.geomspace(0.02, 2.0, 12)])
    pg = EnsembleParams.from_lambda(20, 1.0, alpha=10.0)
    curve = an.gap_curve(pg, th)
    mono = float(np.max(np.append(np.diff(curve.values), -1.0)))
    checks.append(_check(
        "gap curve anchored and monotone",
        max(abs(curve.values[0] - 1.0), mono, 0.0), 1e-9))

    s_direct = 2.0 * integrate.quad(lambda e: an.level_density(e, pg), 0.0, 1.0, limit=200)[0]
    checks.append(_check(
        "mean count vs density integral", abs(an.mean_count(1.0, pg) - s_direct), 1e-7))

    sv = np.array([0.5, 2.0, 8.0])
    bulk_closed = an.gap_probability_bulk(sv, 1.0)
    bulk_quad = an.gap_probability_bulk(sv, 1.0 + 1e-13)
    checks.append(_check(
        "bulk gap closed form vs quadrature", float(np.max(np.abs(bulk_closed - bulk_quad))),
        1e-9))

    # x = (u - v)/sqrt 2, y = (u + v)/sqrt 2 turns the |x - y| kink on the diagonal into
    # the edge v = 0 of the half-plane; the density is symmetric, so that half holds mass/2
    p2 = EnsembleParams.from_lambda(2, 2.5, alpha=0.8)
    r2 = math.sqrt(2.0)
    mass2 = 2.0 * integrate.dblquad(
        lambda u, v: an.joint_eigen_density([(u - v) / r2, (u + v) / r2], p2),
        0.0, np.inf, -np.inf, np.inf, epsabs=1e-8,
    )[0]
    checks.append(_check("joint eigenvalue density mass (n=2)", abs(mass2 - 1.0), 1e-5))
    return checks


def _suite_spectral(seed: int) -> list:
    checks = []
    ev = sp.eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    checks.append(_check(
        "pauli-x eigenvalues", float(np.max(np.abs(ev - np.array([-1.0, 1.0])))), 1e-12))

    g = RngStream(seed, 201).generator()
    h = g.normal(size=(30, 30))
    h = h + h.T
    ev = sp.eigenvalues(h)
    t1 = abs(ev.sum() - np.trace(h))
    t2 = abs((ev**2).sum() - np.sum(h * h)) / np.sum(h * h)
    checks.append(_check("trace identities", max(t1, t2), 1e-10))

    o, _ = np.linalg.qr(g.normal(size=(30, 30)))
    ev2 = sp.eigenvalues(o.T @ h @ o)
    checks.append(_check(
        "rotation invariance of spectra", float(np.max(np.abs(ev - ev2))), 1e-10))

    gp = RngStream(seed, 202).generator()
    pareto = 1.0 / gp.uniform(size=100000)
    ti = sp.tail_index(pareto, k=1000)
    checks.append(_check("hill estimator on pareto(1)", abs(ti.index - 1.0), 0.05))

    pgoe = EnsembleParams.gaussian(50, 25.0)
    bg = sp.spectra_from_samples(sample_blocks(pgoe, 400, master_seed=seed + 5))
    ks = sp.ks_distance(sp.nn_spacings(bg, 0.6), an.wigner_surmise_cdf)
    checks.append(_check("goe spacings vs wigner surmise", ks, 0.03))

    gn = RngStream(seed, 203).generator()
    ksn = sp.ks_distance(gn.normal(size=100000), _sp.ndtr)
    checks.append(_check(
        "ks statistic on own law", ksn, 1.95 / math.sqrt(100000.0), "asymptotic critical"))

    pl = EnsembleParams.from_lambda(20, 1.0, alpha=10.0)
    bl = sp.spectra_from_samples(sample_blocks(pl, 2000, master_seed=seed + 6))
    gap = sp.empirical_gap(bl, np.array([0.1]))
    z = abs(gap.e_hat[0] - an.gap_probability(0.1, pl)) / gap.stderr[0]
    checks.append(_check("empirical gap near analytic", z, 4.0, "z score"))
    return checks


_SUITES = {
    "specfun": _suite_specfun,
    "samplers": _suite_samplers,
    "analytic": _suite_analytic,
    "spectral": _suite_spectral,
}


def cmd_verify(args) -> int:
    """Print TAP rows for the suites, or for the files a manifest lists; exit 4 on any failure."""
    _nonnegative_int(args.seed, "master seed")  # reject a bad seed in every mode, before any TAP line
    if args.manifest:
        rows = RunManifest.check(args.manifest)
    else:
        names = list(_SUITES) if args.suite == "all" else [args.suite]
        rows = [row for name in names for row in _SUITES[name](args.seed)]
    print(f"1..{len(rows)}")
    for i, (ok, name, note) in enumerate(rows, start=1):
        print(f"{'ok' if ok else 'not ok'} {i} - {name} # {note}")
    passed = sum(1 for ok, _, _ in rows if ok)
    if not args.manifest:
        print(f"# {passed}/{len(rows)} passed")
    return 0 if passed == len(rows) else 4


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qrmt",
        description="numerical laboratory for q-generalized Gaussian matrix ensembles",
    )
    p.add_argument("--version", action="version", version=f"qrmt {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("sample", help="draw matrices and write their spectra")
    _add_param_args(ps)
    ps.add_argument("--count", type=int, required=True, help="number of matrices")
    ps.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--raw", action="store_true", help="also write the raw matrices")
    ps.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility and ignored: sampling runs on one thread, "
                         "and outputs never depended on the thread count")
    ps.set_defaults(func=cmd_sample)

    for name, (help_text, *_) in _CURVES.items():
        pc = sub.add_parser(name, help=help_text)
        _add_param_args(pc)
        if name in ("density", "element"):
            pc.add_argument("--grid", default=None, help="grid as min:max:count")
        if name == "element":
            pc.add_argument("--entry", choices=("diag", "offdiag"), default="diag")
        if name == "gap":
            pc.add_argument("--theta-max", type=float, default=3.0)
            pc.add_argument("--points", type=int, default=40)
        pc.add_argument("--out", default=".", help="output directory")
        pc.add_argument("--format", choices=("csv", "json"), default="csv")
        pc.add_argument("--svg", action="store_true", help="also write plot.svg")
        pc.set_defaults(func=cmd_curve)

    pr = sub.add_parser("reproduce", help="regenerate a reference figure with checks")
    pr.add_argument("figure", choices=tuple(_FIGURES))
    pr.add_argument("--out", default=".", help="output directory")
    pr.add_argument("--seed", type=int, default=7)
    pr.add_argument("--samples", type=int, default=None,
                    help="override the Monte Carlo sample count (smoke runs)")
    pr.set_defaults(func=cmd_reproduce)

    pv = sub.add_parser("verify", help="run verification suites (TAP output)")
    pv.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--manifest", default=None,
                    help="instead of suites: re-hash the outputs listed in this manifest")
    pv.set_defaults(func=cmd_verify)
    return p


# main's parser, built on first use: parsing leaves no state in it, so one
# parser serves every call in the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
