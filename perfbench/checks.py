"""Correctness checks on the outputs of one ``klgauss compare`` run.

Every check compares against a computation made here, with numpy and scipy
alone, or against a property the method must have. None compares against a
stored copy of earlier output. Each returns ``(ok, detail)``; the workload
functions at the bottom read a run's output directory and return one
``(name, ok, detail)`` per check.

Statistical checks allow five standard errors of the Monte Carlo estimate
they test (six per mode where 124 modes are tested at once), so a correct
program fails one in about a million times.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solveh_banded

Z_MAX = 5.0
Z_MAX_PER_MODE = 6.0


# ---------------------------------------------------------------------------
# checks on values


def scalar_sigma2_opt(eps: float) -> float:
    """Root of ``12 s^2 + s - eps = 0`` in ``s = sigma^2``: the best variance."""
    return (np.sqrt(1.0 + 48.0 * eps) - 1.0) / 24.0


def check_sigma2(sigma: float, eps: float, tol: float = 1e-3):
    want = scalar_sigma2_opt(eps)
    err = abs(sigma**2 - want)
    return err <= tol, f"sigma^2 {sigma**2:.6g} vs closed form {want:.6g}, |err| {err:.2e} (<= {tol:g})"


def check_abs_at_most(value: float, bound: float, what: str):
    return abs(value) <= bound, f"|{what}| = {abs(value):.4g} (<= {bound:g})"


def check_accept_ratio(ref_rate: float, fit_rate: float, factor: float):
    ratio = fit_rate / ref_rate if ref_rate > 0 else float("inf")
    ok = ref_rate > 0 and ratio >= factor
    return ok, f"acceptance {ref_rate:.4f} -> {fit_rate:.4f}, ratio {ratio:.2f} (>= {factor:g})"


def double_well_moments(eps: float) -> tuple[float, float]:
    """``E[x^2]`` and ``E[x^4]`` under ``exp(-(x^4 + x^2/2)/eps)`` by quadrature."""
    width = 12.0 * np.sqrt(eps)  # the density is below exp(-72) beyond this

    def moment(k: int) -> float:
        val, _ = quad(lambda x: x**k * np.exp(-(x**4 + 0.5 * x**2) / eps),
                      -width, width, epsabs=0.0, epsrel=1e-12, limit=200)
        return val

    z = moment(0)
    return moment(2) / z, moment(4) / z


def check_chain_variance(var_est: float, iact_thinned: float, n_thinned: int, eps: float):
    """A chain's probe variance against the target's, within its Monte Carlo error.

    ``var_est`` comes from ``n_thinned`` thinned post-burn states whose
    integrated autocorrelation time is ``iact_thinned``; the spread of one
    squared state is taken from quadrature of the target.
    """
    m2, m4 = double_well_moments(eps)
    se = np.sqrt((m4 - m2**2) * max(iact_thinned, 1.0) / n_thinned)
    z = (var_est - m2) / se
    return abs(z) <= Z_MAX, f"variance {var_est:.6g} vs quadrature {m2:.6g}, {z:+.2f} SE"


def check_gradient_fd(phi, grad_phi, point: np.ndarray, weight: float,
                      rng: np.random.Generator, n_dirs: int = 3, eta: float = 1e-5,
                      tol: float = 1e-6):
    """Directional derivatives ``weight * <grad, d>`` against central differences."""
    grad = np.asarray(grad_phi(point[None]), dtype=float)[0]
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(point.size)
        up = float(np.asarray(phi((point + eta * d)[None]))[0])
        dn = float(np.asarray(phi((point - eta * d)[None]))[0])
        fd = (up - dn) / (2.0 * eta)
        an = weight * float(grad @ d)
        worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    return worst <= tol, f"worst relative error {worst:.2e} over {n_dirs} directions (<= {tol:g})"


def check_factor_spectrum(factor: np.ndarray, lo: float, hi: float):
    factor = np.asarray(factor, dtype=float)
    scale = max(1.0, float(np.abs(factor).max()))
    asym = float(np.abs(factor - factor.T).max())
    vals = np.linalg.eigvalsh(0.5 * (factor + factor.T))
    slack = 1e-12 * scale
    ok = asym <= slack and vals.min() >= lo - slack and vals.max() <= hi + slack
    return ok, (f"asymmetry {asym:.1e}, spectrum [{vals.min():.4g}, {vals.max():.4g}] "
                f"in [{lo:g}, {hi:g}]")


def fourier_basis(n: int, n_modes: int) -> np.ndarray:
    """Rows ``sqrt(2) sin(2 pi k x)``, ``sqrt(2) cos(2 pi k x)`` for k = 1, 2, ..."""
    x = np.arange(n) / n
    k = (np.arange(1, n_modes + 1) + 1) // 2
    phase = 2.0 * np.pi * np.outer(k, x)
    odd = (np.arange(1, n_modes + 1) % 2 == 1)[:, None]
    return np.sqrt(2.0) * np.where(odd, np.sin(phase), np.cos(phase))


def check_finite_rank_draws(draws: np.ndarray, factor: np.ndarray, scale: float):
    """Mode covariance of periodic-grid draws: ``B @ B`` leading, reference tail.

    The tail variance of wavenumber ``k`` is ``scale / (2 pi k)^2``.
    """
    m, n = draws.shape
    n_modes = 2 * ((n - 1) // 2)
    rank = factor.shape[0]
    coeffs = draws @ fourier_basis(n, n_modes).T / n
    cov = coeffs.T @ coeffs / m  # the draws are centred by construction

    lead = factor @ factor
    d = np.diag(lead)
    se_lead = np.sqrt((np.outer(d, d) + lead**2) / m)
    z_lead = float(np.abs((cov[:rank, :rank] - lead) / se_lead).max())

    k = (np.arange(rank + 1, n_modes + 1) + 1) // 2
    ratio = np.diag(cov)[rank:] / (scale / (2.0 * np.pi * k) ** 2)
    se_mode = np.sqrt(2.0 / m)
    z_mode = float(np.abs(ratio - 1.0).max() / se_mode)
    z_pool = float(abs(ratio.mean() - 1.0) / (se_mode / np.sqrt(ratio.size)))
    ok = z_lead <= Z_MAX and z_pool <= Z_MAX and z_mode <= Z_MAX_PER_MODE
    return ok, (f"{m} draws: leading block worst {z_lead:.2f} SE, tail pooled "
                f"{z_pool:.2f} SE, worst tail mode {z_mode:.2f} SE")


def bridge_precision_banded(potential: np.ndarray, eps: float) -> np.ndarray:
    """Upper banded form of ``h (S + diag(b / (2 eps^2)))`` for ``solveh_banded``.

    ``S`` is the stencil of ``-(1/2) d^2/dt^2`` on ``n`` interior nodes with
    spacing ``h = 1/(n+1)``: ``1/h^2`` on the diagonal, ``-1/(2 h^2)`` off it.
    """
    n = potential.size
    h = 1.0 / (n + 1)
    ab = np.zeros((2, n))
    ab[0, 1:] = h * (-0.5 / h**2)
    ab[1] = h * (1.0 / h**2 + potential / (2.0 * eps**2))
    return ab


def check_bridge_functionals(draws: np.ndarray, potential: np.ndarray, eps: float,
                             rng: np.random.Generator, n_funcs: int = 4):
    """Variance of ``<a, u>`` over the draws against ``a' P^{-1} a``."""
    m, n = draws.shape
    ab = bridge_precision_banded(np.asarray(potential, dtype=float), eps)
    worst = 0.0
    for _ in range(n_funcs):
        a = rng.standard_normal(n)
        exact = float(a @ solveh_banded(ab, a))
        proj = draws @ a
        var = float(proj @ proj) / m  # the draws are centred by construction
        worst = max(worst, abs(var / exact - 1.0) / np.sqrt(2.0 / m))
    return worst <= Z_MAX, f"{m} draws, {n_funcs} functionals: worst {worst:.2f} SE"


def check_within(values, lo: float, hi: float, what: str):
    v = np.asarray(values, dtype=float)
    ok = bool(np.all(np.isfinite(v)) and v.min() >= lo and v.max() <= hi)
    return ok, f"{what} in [{v.min():.4g}, {v.max():.4g}] (bounds [{lo:g}, {hi:g}])"


def check_all_finite(table: dict[str, list[float]], what: str):
    bad = {k: int(np.sum(~np.isfinite(v))) for k, v in table.items()}
    bad = {k: v for k, v in bad.items() if v}
    rows = len(next(iter(table.values()), []))
    return not bad and rows > 0, f"{what}: {rows} rows, non-finite {bad or 'none'}"


def check_manifest(outdir: Path, command: str = "compare"):
    """Every output the manifest lists exists and has the SHA-256 it records."""
    manifest = json.loads((outdir / f"manifest_{command}.json").read_text())
    outputs = manifest.get("outputs", {})
    bad = [name for name, digest in outputs.items()
           if not (outdir / name).is_file()
           or hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest]
    return bool(outputs) and not bad, f"{len(outputs)} files listed, mismatched {bad or 'none'}"


# ---------------------------------------------------------------------------
# reading the outputs


def read_spec(path: Path) -> dict[str, str]:
    """The documented ``key = value`` lines of ``final_spec.txt``."""
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def read_columns(path: Path) -> dict[str, list]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [row[key] for row in rows] for key in (rows[0] if rows else {})}


def compare_summary(outdir: Path) -> dict[str, dict[str, float]]:
    """Per algorithm: acceptance rate, thinned IACT, lag-0 autocovariance, steps."""
    out = {}
    with (outdir / "compare.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["lag"] == "0":
                out[row["algorithm"]] = {
                    "acceptance": float(row["acceptance_rate"]),
                    "iact": float(row["iact"]),
                    "var": float(row["autocov"]),
                    "steps": int(row["steps"]),
                }
    return out


# ---------------------------------------------------------------------------
# per-workload check lists


def _program_draws(klgauss, spec_path: Path, rng: np.random.Generator, size: int):
    spec = klgauss.cli.load_gaussian_spec(spec_path)
    return klgauss.sample_centered(spec, rng, size)


def scalar_checks(outdir: Path, cfg: dict, klgauss, rng: np.random.Generator):
    eps = float(cfg["problem"]["eps"])
    spec = read_spec(outdir / "final_spec.txt")
    summary = compare_summary(outdir)
    ref, fit = summary["reference"], summary["informed"]
    chain = cfg["chain"]
    thin, steps = int(chain["thin"]), fit["steps"]
    n_thinned = steps // thin - int(float(chain["burn_frac"]) * steps) // thin
    return [
        ("scalar.manifest", *check_manifest(outdir)),
        ("scalar.sigma2", *check_sigma2(float(spec["sigma"]), eps)),
        ("scalar.mean", *check_abs_at_most(float(vector(spec["mean"])[0]), 0.02, "m")),
        ("scalar.accept_ratio", *check_accept_ratio(ref["acceptance"], fit["acceptance"], 5.0)),
        ("scalar.chain_variance",
         *check_chain_variance(fit["var"], fit["iact"], n_thinned, eps)),
    ]


def darcy_checks(outdir: Path, cfg: dict, klgauss, rng: np.random.Generator):
    prob, opt = cfg["problem"], cfg["optimize"]
    spec = read_spec(outdir / "final_spec.txt")
    n, rank = int(spec["n"]), int(spec["rank"])
    factor = vector(spec["factor"]).reshape(rank, rank)
    data = read_columns(outdir / "data.csv")
    problem = klgauss.DarcyProblem(
        n, float(prob["noise"]), np.array(data["y"], dtype=float),
        tuple(np.array(data["x"], dtype=float)),
        (float(prob["p_lo"]), float(prob["p_hi"])))
    draws = _program_draws(klgauss, outdir / "final_spec.txt", rng, 4000)
    summary = compare_summary(outdir)
    return [
        ("darcy.manifest", *check_manifest(outdir)),
        ("darcy.grad_fd", *check_gradient_fd(problem.phi, problem.grad_phi,
                                             vector(spec["mean"]), 1.0 / n, rng)),
        ("darcy.factor_spectrum", *check_factor_spectrum(
            factor, float(opt["cov_lo"]), float(opt["cov_hi"]))),
        ("darcy.sampler_covariance",
         *check_finite_rank_draws(draws, factor, float(spec["scale"]))),
        ("darcy.accept_ratio", *check_accept_ratio(
            summary["reference"]["acceptance"], summary["informed"]["acceptance"], 2.0)),
    ]


def bridge_checks(outdir: Path, cfg: dict, klgauss, rng: np.random.Generator):
    opt = cfg["optimize"]
    spec = read_spec(outdir / "final_spec.txt")
    n, eps = int(spec["n"]), float(spec["eps"])
    potential = vector(spec["potential"])
    problem = klgauss.DiffusionProblem(float(cfg["problem"]["eps"]), n)
    draws = _program_draws(klgauss, outdir / "final_spec.txt", rng, 4000)
    trace = {k: np.array(v, dtype=float) for k, v in read_columns(outdir / "trace.csv").items()}
    mean = vector(spec["mean"])
    return [
        ("bridge.manifest", *check_manifest(outdir)),
        ("bridge.sampler_covariance",
         *check_bridge_functionals(draws, potential, eps, rng)),
        ("bridge.grad_fd", *check_gradient_fd(problem.phi, problem.grad_phi,
                                              mean, 1.0 / (n + 1), rng)),
        ("bridge.potential_bounds", *check_within(
            potential, float(opt["cov_lo"]), float(opt["cov_hi"]), "potential")),
        ("bridge.mean_bounds", *check_within(
            mean, float(opt["mean_lo"]), float(opt["mean_hi"]), "mean")),
        ("bridge.trace_finite", *check_all_finite(trace, "trace.csv")),
    ]
