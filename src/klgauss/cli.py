"""Command-line front end: fit, sample, compare, closed forms, self-check.

Subcommands
-----------
optimize
    Fit the Gaussian by projected stochastic descent; writes ``trace.csv``,
    ``snapshots.csv`` and the final fit (``final_spec.txt``).
sample
    Run one pCN chain -- reference proposals, or proposals from a
    previously fitted Gaussian (``chain.algorithm = informed``, which
    requires ``final_spec.txt`` in the output directory); writes
    ``chain_diag.csv``, ``posterior_summary.csv``, ``autocov.csv``.
compare
    Fit, then run both chains back to back on the same target; writes
    ``compare.csv`` (acceptance rate, probe autocovariances and integrated
    autocorrelation time per chain) and prints the summary table.
scalar-analytic
    Closed forms for the one-dimensional double-well target: prints the
    optimal spread and its small-temperature expansion, writes a sigma-grid
    divergence table for plotting.
check
    Fast deterministic self-test battery (also runs as bare ``--check``).

Configuration is ``key = value`` INI text with sections ``[problem]``,
``[fit]``, ``[optimize]``, ``[chain]``; ``--config`` takes a file path or a
preset name. Every file an invocation writes is listed with its SHA-256 in
``manifest_<command>.json`` together with the hash of the canonicalized
configuration; rerunning a subcommand with ``--check`` verifies the files
in the output directory against that manifest instead of recomputing.
Unknown config keys are usage errors (exit 2); numerical failures exit 3
and leave an error manifest behind.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DegenerateWeightsError, NonFiniteObjectiveError, NotACovarianceError
from .gaussians import (
    FAMILIES,
    ConstantPotential,
    FiniteRank,
    GaussianSpec,
    ScalarVariance,
    VariablePotential,
    project_spd,
    sample_centered,
)
from .mcmc import (
    ChainConfig,
    ChainDiag,
    autocovariance,
    fit_chain,
    iact,
    reference_chain,
    run_chain,
)
from .objective import (
    estimate_dkl,
    estimate_gradients,
    scalar_acceptance_asymptote,
    scalar_dkl_analytic,
    scalar_sigma_opt,
)
from .optimize import RMConfig, StepSchedule, rm_minimize
from .problems import (
    DarcyProblem,
    DiffusionProblem,
    ScalarDoubleWell,
    synthesize_darcy_data,
)
from .reference import BridgeReference, PeriodicReference, ScalarReference, dirichlet_precision

__all__ = ["main", "load_config", "config_hash", "save_gaussian_spec", "load_gaussian_spec"]

SPEC_FORMAT = "gaussian-spec.v1"
SPEC_FILENAME = "final_spec.txt"
_DATA_STREAM = 0x44415243  # fixed data-synthesis stream tag


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


_KEY_TYPES = {
    "problem": {
        "kind": str, "eps": float, "n": int, "noise": float, "scale": float,
        "obs_points": _float_list, "p_lo": float, "p_hi": float,
    },
    "fit": {
        "family": str,
        "rank": int,
        "init_sigma": float,
        "init_mean": float,
        "init_strength": float,
        "init_potential": float,
        "smoothing": float,
    },
    "optimize": {
        "iterations": int,
        "batch_size": int,
        "a0": float,
        "decay": float,
        "mean_lo": float,
        "mean_hi": float,
        "cov_lo": float,
        "cov_hi": float,
        "snapshot_every": int,
    },
    "chain": {
        "steps": int,
        "beta": float,
        "thin": int,
        "burn_frac": float,
        "probe_index": int,
        "algorithm": str,
        "max_lag": int,
    },
}

_FAMILY_FOR_KIND = {
    "scalar": ("scalar-variance",),
    "darcy": ("finite-rank",),
    "diffusion": ("constant-potential", "variable-potential"),
}

PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "scalar": {
        "problem": {"kind": "scalar", "eps": "0.01"},
        "fit": {"family": "scalar-variance", "init_sigma": "1.0", "init_mean": "0.25"},
        "optimize": {
            "iterations": "10000", "batch_size": "100", "a0": "0.1", "decay": "0.6",
            "mean_lo": "-0.5", "mean_hi": "0.5", "cov_lo": "0.001", "cov_hi": "1.0",
            "snapshot_every": "100",
        },
        "chain": {
            "steps": "100000", "beta": "1.0", "thin": "100", "burn_frac": "0.1",
            "algorithm": "informed", "max_lag": "100",
        },
    },
    "darcy-noise0.1": {
        "problem": {"kind": "darcy", "n": "128", "noise": "0.1", "scale": "1.0",
                    "obs_points": "0.2,0.4,0.6,0.8", "p_lo": "0.0", "p_hi": "2.0"},
        "fit": {"family": "finite-rank", "rank": "2"},
        "optimize": {
            "iterations": "10000", "batch_size": "100", "a0": "0.1", "decay": "0.6",
            "mean_lo": "-5.0", "mean_hi": "5.0", "cov_lo": "0.0001", "cov_hi": "1.0",
            "snapshot_every": "100",
        },
        "chain": {
            "steps": "100000", "beta": "0.6", "thin": "100", "burn_frac": "0.1",
            "algorithm": "informed", "max_lag": "100",
        },
    },
    "diffusion-constant": {
        "problem": {"kind": "diffusion", "eps": "0.05", "n": "99"},
        "fit": {"family": "constant-potential", "init_strength": "1.0"},
        "optimize": {
            "iterations": "10000", "batch_size": "100", "a0": "2.0", "decay": "0.6",
            "mean_lo": "0.0", "mean_hi": "1.5", "cov_lo": "0.001", "cov_hi": "10.0",
            "snapshot_every": "100",
        },
        "chain": {
            "steps": "100000", "beta": "0.6", "thin": "100", "burn_frac": "0.1",
            "algorithm": "informed", "max_lag": "100",
        },
    },
}
PRESETS["darcy-noise0.01"] = {
    sec: dict(keys) for sec, keys in PRESETS["darcy-noise0.1"].items()
}
PRESETS["darcy-noise0.01"]["problem"] = dict(PRESETS["darcy-noise0.1"]["problem"])
PRESETS["darcy-noise0.01"]["problem"]["noise"] = "0.01"
PRESETS["diffusion-variable"] = {
    sec: dict(keys) for sec, keys in PRESETS["diffusion-constant"].items()
}
PRESETS["diffusion-variable"]["fit"] = {
    "family": "variable-potential", "init_potential": "2.0", "smoothing": "0.01",
}

# long-run sizes used for the published figures, switched in by --paper-scale
_PAPER_SCALE = {
    "scalar": {"iterations": 1_000_000, "steps": 1_000_000},
    "darcy": {"iterations": 100_000, "steps": 1_000_000},
    "diffusion": {"iterations": 100_000, "steps": 1_000_000},
}


def load_config(source: str) -> dict[str, dict[str, object]]:
    """Parse, type and range-check a config from a file path or preset name.

    Returns ``{section: {key: typed value}}``. Unknown sections or keys and
    out-of-range values raise :class:`UsageError`.
    """
    if source in PRESETS:
        raw = {sec: dict(keys) for sec, keys in PRESETS[source].items()}
    else:
        path = Path(source)
        if not path.is_file():
            raise UsageError(
                f"config {source!r} is neither a file nor a preset "
                f"(presets: {', '.join(sorted(PRESETS))})"
            )
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(path.read_text())
        except configparser.Error as exc:
            raise UsageError(f"cannot parse {source}: {exc}") from exc
        raw = {sec: dict(parser.items(sec)) for sec in parser.sections()}

    cfg: dict[str, dict[str, object]] = {}
    for sec, keys in raw.items():
        if sec not in _KEY_TYPES:
            raise UsageError(f"unknown config section [{sec}]")
        cfg[sec] = {}
        for key, value in keys.items():
            if key not in _KEY_TYPES[sec]:
                raise UsageError(f"unknown config key {sec}.{key}")
            caster = _KEY_TYPES[sec][key]
            try:
                cfg[sec][key] = caster(value)
            except ValueError as exc:
                raise UsageError(
                    f"config key {sec}.{key} needs {caster.__name__}, got {value!r}"
                ) from exc

    kind = cfg.get("problem", {}).get("kind")
    if kind not in _FAMILY_FOR_KIND:
        raise UsageError(
            f"problem.kind must be one of {sorted(_FAMILY_FOR_KIND)}, got {kind!r}"
        )
    family = cfg.get("fit", {}).get("family")
    if family not in _FAMILY_FOR_KIND[kind]:
        raise UsageError(
            f"fit.family {family!r} does not go with problem.kind {kind!r} "
            f"(expected one of {_FAMILY_FOR_KIND[kind]})"
        )
    if cfg["problem"].get("eps", 1.0) <= 0:
        raise UsageError("problem.eps must be positive")
    if cfg["problem"].get("noise", 1.0) <= 0:
        raise UsageError("problem.noise must be positive")
    if cfg["fit"].get("rank", 1) < 1:
        raise UsageError("fit.rank must be at least 1")
    if cfg["fit"].get("smoothing", 1.0) <= 0:
        raise UsageError("fit.smoothing must be positive")
    min_n = {"darcy": 4, "diffusion": 2}.get(kind, 0)  # smallest grids the references take
    if cfg["problem"].get("n", min_n) < min_n:
        raise UsageError(f"problem.n must be at least {min_n} for {kind}")
    if cfg.get("chain", {}).get("steps", 1) < 1:
        raise UsageError("chain.steps must be at least 1")
    beta = cfg.get("chain", {}).get("beta", 1.0)
    if not 0.0 < beta <= 1.0:
        raise UsageError(f"chain.beta must lie in (0, 1], got {beta}")
    algo = cfg.get("chain", {}).get("algorithm", "informed")
    if algo not in ("reference", "informed"):
        raise UsageError(f"chain.algorithm must be 'reference' or 'informed', got {algo!r}")
    return cfg


def canonical_config_text(cfg: dict[str, dict[str, object]]) -> str:
    """Stable text form: sorted sections and keys, repr-exact floats."""
    lines = []
    for sec in sorted(cfg):
        lines.append(f"[{sec}]")
        for key in sorted(cfg[sec]):
            value = cfg[sec][key]
            if isinstance(value, float):
                text = f"{value:.17g}"
            elif isinstance(value, tuple):
                text = ",".join(f"{v:.17g}" for v in value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict[str, dict[str, object]]) -> str:
    """Git-blob style SHA-1 of the canonical config text."""
    body = canonical_config_text(cfg).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


def apply_paper_scale(cfg: dict[str, dict[str, object]]) -> None:
    sizes = _PAPER_SCALE[cfg["problem"]["kind"]]
    cfg.setdefault("optimize", {})["iterations"] = sizes["iterations"]
    cfg.setdefault("chain", {})["steps"] = sizes["steps"]


# ---------------------------------------------------------------------------
# building the pieces from a config


class Setup:
    """Everything a command needs, built once from the validated config."""

    def __init__(self, cfg: dict[str, dict[str, object]], seed: int):
        self.cfg = cfg
        self.seed = seed
        prob = cfg["problem"]
        fit = cfg["fit"]
        self.kind = prob["kind"]
        self.data: np.ndarray | None = None
        self.true_field: np.ndarray | None = None

        if self.kind == "scalar":
            eps = float(prob.get("eps", 0.01))
            self.ref = ScalarReference()
            self.problem = ScalarDoubleWell(eps)
            mean0 = np.array([float(fit.get("init_mean", 0.0))])
            cov0 = ScalarVariance(float(fit.get("init_sigma", 1.0)))
        elif self.kind == "darcy":
            n = int(prob.get("n", 128))
            noise = float(prob.get("noise", 0.1))
            scale = float(prob.get("scale", 1.0))
            obs = tuple(prob.get("obs_points", (0.2, 0.4, 0.6, 0.8)))
            pressures = (float(prob.get("p_lo", 0.0)), float(prob.get("p_hi", 2.0)))
            self.ref = PeriodicReference(n, scale)
            rank = int(fit.get("rank", 2))
            if rank > self.ref.n_modes:
                raise UsageError(f"fit.rank {rank} exceeds the {self.ref.n_modes} modes "
                                 f"retained on a grid of {n} points")
            data_rng = np.random.default_rng([seed, _DATA_STREAM])
            self.true_field, self.data = synthesize_darcy_data(
                n, noise, data_rng, obs, pressures)
            self.problem = DarcyProblem(n, noise, self.data, obs, pressures)
            mean0 = np.zeros(n)
            cov0 = FiniteRank(np.diag(self.ref.lam[:rank]))
        else:
            eps = float(prob.get("eps", 0.05))
            n = int(prob.get("n", 99))
            t = np.arange(1, n + 1) / (n + 1)
            self.ref = BridgeReference(n, mean0=t)
            self.problem = DiffusionProblem(eps, n)
            mean0 = t.copy()
            if fit["family"] == "constant-potential":
                cov0 = ConstantPotential(float(fit.get("init_strength", 1.0)), eps)
            else:
                cov0 = VariablePotential(
                    np.full(n, float(fit.get("init_potential", 2.0))),
                    eps,
                    smoothing=float(fit.get("smoothing", 1e-2)),
                )
        self.spec0 = GaussianSpec(mean=mean0, cov=cov0, ref=self.ref)

        opt = cfg.get("optimize", {})
        self.rm_config = RMConfig(
            iterations=int(opt.get("iterations", 10_000)),
            batch_size=int(opt.get("batch_size", 100)),
            schedule=StepSchedule(float(opt.get("a0", 0.1)), float(opt.get("decay", 0.6))),
            mean_bounds=(float(opt.get("mean_lo", -5.0)), float(opt.get("mean_hi", 5.0))),
            cov_bounds=(float(opt.get("cov_lo", 1e-4)), float(opt.get("cov_hi", 1.0))),
            snapshot_every=int(opt.get("snapshot_every", 100)),
        )
        ch = cfg.get("chain", {})
        self.chain_config = ChainConfig(
            steps=int(ch.get("steps", 100_000)),
            beta=float(ch.get("beta", 1.0)),
            thin=int(ch.get("thin", 100)),
            probe_index=ch.get("probe_index"),
            burn_frac=float(ch.get("burn_frac", 0.1)),
            max_lag=int(ch.get("max_lag", 100)),
        )
        self.algorithm = str(ch.get("algorithm", "informed"))

    def probe_index(self) -> int:
        if self.chain_config.probe_index is not None:
            return self.chain_config.probe_index
        return self.ref.dim // 2


def _zero_potential(fields: np.ndarray) -> np.ndarray:
    return np.zeros(np.asarray(fields).shape[0])


# ---------------------------------------------------------------------------
# file output helpers


def _fmt(x: object) -> str:
    if isinstance(x, np.ndarray):
        return ",".join(_fmt(v) for v in x)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def save_gaussian_spec(path: Path, spec: GaussianSpec) -> None:
    """Write a fit as restartable ``key = value`` text (gaussian-spec.v1)."""
    lines = [f"format = {SPEC_FORMAT}"]
    ref = spec.ref
    if isinstance(ref, ScalarReference):
        lines.append("reference = scalar")
    elif isinstance(ref, PeriodicReference):
        lines.append("reference = periodic")
        lines.append(f"n = {ref.n}")
        lines.append(f"scale = {_fmt(ref.scale)}")
    else:
        lines.append("reference = bridge")
        lines.append(f"n = {ref.n}")
        lines.append(f"mean0 = {_fmt(ref.mean0)}")
    lines.append(f"family = {spec.cov.spec_name}")
    lines += [f"{key} = {_fmt(value)}" for key, value in spec.cov.spec_fields().items()]
    lines.append(f"mean = {_fmt(spec.mean)}")
    path.write_text("\n".join(lines) + "\n")


def load_gaussian_spec(path: Path) -> GaussianSpec:
    """Read back a fit written by :func:`save_gaussian_spec`.

    A malformed or incomplete file raises ``ValueError``.
    """
    fields: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if fields.get("format") != SPEC_FORMAT:
        raise ValueError(f"{path} is not a {SPEC_FORMAT} file")

    def vec(key: str) -> np.ndarray:
        return np.array(_float_list(fields[key]))

    try:
        refkind = fields["reference"]
        if refkind == "scalar":
            ref = ScalarReference()
        elif refkind == "periodic":
            ref = PeriodicReference(int(fields["n"]), float(fields["scale"]))
        elif refkind == "bridge":
            mean0 = vec("mean0") if "mean0" in fields else None
            ref = BridgeReference(int(fields["n"]), mean0=mean0)
        else:
            raise ValueError(f"unknown reference kind {refkind!r} in {path}")
        family = FAMILIES.get(fields["family"])
        if family is None:
            raise ValueError(f"unknown family {fields['family']!r} in {path}")
        return GaussianSpec(mean=vec("mean"), cov=family.from_spec_fields(fields), ref=ref)
    except KeyError as exc:
        raise ValueError(f"{path} has no {exc.args[0]} entry") from exc


def _write_manifest(out: Path, command: str, cfg, seed: int, paper_scale: bool,
                    filenames: list[str], started: str,
                    error: str | None = None) -> None:
    outputs = {}
    for name in sorted(filenames):
        outputs[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config": canonical_config_text(cfg),
        "config_hash": config_hash(cfg),
        "seed": seed,
        "paper_scale": paper_scale,
        "outputs": outputs,
        "started": started,
        "finished": _now(),
    }
    if error is not None:
        manifest["error"] = error
    (out / f"manifest_{command}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _verify_manifest(out: Path, command: str) -> int:
    """Check the files listed in ``manifest_<command>.json`` against their hashes."""
    path = out / f"manifest_{command}.json"
    if not path.is_file():
        print(f"error: no manifest at {path}", file=sys.stderr)
        return 2
    manifest = json.loads(path.read_text())
    bad = 0
    for name, digest in sorted(manifest.get("outputs", {}).items()):
        target = out / name
        if not target.is_file():
            print(f"verify {name}: MISSING")
            bad += 1
            continue
        got = hashlib.sha256(target.read_bytes()).hexdigest()
        ok = got == digest
        print(f"verify {name}: {'OK' if ok else 'HASH MISMATCH'}")
        bad += 0 if ok else 1
    if bad:
        print(f"verify: {bad} file(s) failed against {path.name}")
        return 3
    print(f"verify: all {len(manifest.get('outputs', {}))} files match {path.name}")
    return 0


# ---------------------------------------------------------------------------
# command bodies


def _write_trace_files(out: Path, trace) -> list[str]:
    files = ["trace.csv", "snapshots.csv"]
    _write_csv(
        out / "trace.csv",
        ["n", "a_n", "dkl_estimate", "dkl_stderr", "mean_norm",
         "cov_param_summary", "proj_active"],
        zip(trace.steps, trace.step_sizes, trace.dkl, trace.dkl_stderr,
            trace.mean_norm, trace.cov_summary, trace.proj_active),
    )

    def snapshot_rows():
        for step, mean, cov in zip(trace.snapshot_steps, trace.snapshot_means,
                                   trace.snapshot_covs):
            for i, v in enumerate(mean):
                yield step, "mean", i, v
            for i, v in enumerate(cov):
                yield step, "cov", i, v

    _write_csv(out / "snapshots.csv", ["n", "field", "index", "value"],
               snapshot_rows())
    return files


def _write_darcy_data(out: Path, setup: Setup) -> list[str]:
    clean = setup.problem.observe(setup.true_field)
    _write_csv(out / "data.csv", ["index", "x", "y", "clean"],
               [(i, x, y, c) for i, (x, y, c) in
                enumerate(zip(setup.problem.obs_points, setup.data, clean))])
    return ["data.csv"]


def _run_optimize_stage(setup: Setup, out: Path) -> tuple[GaussianSpec, list[str]]:
    """Fit and write the optimizer outputs; raises with partial trace attached."""
    rng = np.random.default_rng([setup.seed, 1])
    t0 = time.perf_counter()
    final, trace = rm_minimize(setup.spec0, setup.problem, setup.rm_config, rng)
    elapsed = time.perf_counter() - t0

    files = _write_trace_files(out, trace)
    save_gaussian_spec(out / SPEC_FILENAME, final)
    files.append(SPEC_FILENAME)
    if setup.kind == "darcy":
        files += _write_darcy_data(out, setup)

    print(f"optimize: {setup.rm_config.iterations} iterations in {elapsed:.1f} s")
    print(f"optimize: divergence {trace.dkl[0]:.4f} -> {trace.dkl[-1]:.4f} (up to log Z)")
    return final, files


def cmd_optimize(args, cfg) -> int:
    setup = Setup(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    try:
        final, files = _run_optimize_stage(setup, out)
    except (NonFiniteObjectiveError, NotACovarianceError) as exc:
        files = []
        trace = getattr(exc, "trace", None)
        if trace is not None and trace.steps:
            files = _write_trace_files(out, trace)
        _write_manifest(out, "optimize", cfg, args.seed, args.paper_scale, files,
                        started, error=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    est = estimate_dkl(final, setup.problem, 2000, np.random.default_rng([args.seed, 7]))
    print(f"optimize: fresh-batch divergence estimate {est.value:.4f} "
          f"(stderr {est.stderr:.4f})")
    _write_manifest(out, "optimize", cfg, args.seed, args.paper_scale, files, started)
    return 0


def _chain_outputs(out: Path, diag: ChainDiag, max_lag: int) -> list[str]:
    files = ["chain_diag.csv", "posterior_summary.csv", "autocov.csv"]
    _write_csv(
        out / "chain_diag.csv",
        ["k", "accepted", "running_accept_rate", "probe_value"],
        ((s, a, a / s, p) for s, p, a in
         zip(diag.probe_steps, diag.probe, diag.accepts_cum)),
    )
    _write_csv(
        out / "posterior_summary.csv",
        ["node", "mean", "variance"],
        ((i, m, v) for i, (m, v) in enumerate(zip(diag.node_mean, diag.node_var))),
    )
    probe = diag.probe_post_burn
    if probe.size >= 2:
        acov = autocovariance(probe, max_lag)
        _write_csv(out / "autocov.csv", ["lag", "value"],
                   ((k, acov[k]) for k in range(len(acov))))
    else:
        _write_csv(out / "autocov.csv", ["lag", "value"], [])
    return files


def cmd_sample(args, cfg) -> int:
    setup = Setup(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    if setup.algorithm == "informed":
        spec_path = out / SPEC_FILENAME
        if not spec_path.is_file():
            raise UsageError(
                f"informed sampling needs a fitted Gaussian, but {spec_path} "
                "does not exist (run optimize into this directory first)"
            )
        try:
            spec = load_gaussian_spec(spec_path)
        except ValueError as exc:
            raise UsageError(f"cannot use {spec_path}: {exc}") from exc
        if spec.cov.spec_name != setup.cfg["fit"]["family"]:
            raise UsageError(f"{spec_path} holds a {spec.cov.spec_name} fit, "
                             f"config wants fit.family = {setup.cfg['fit']['family']}")
        if spec.ref.dim != setup.ref.dim:
            raise UsageError(
                f"{spec_path} has dimension {spec.ref.dim}, config wants {setup.ref.dim}"
            )
        stream, mean, sampler = 3, spec.mean, partial(sample_centered, spec)
        chain = partial(fit_chain, setup.problem, spec)
    else:
        stream, mean, sampler = 2, setup.ref.mean0, setup.ref.sample_centered
        chain = partial(reference_chain, setup.problem, setup.ref)
    if args.zero_potential:
        chain = partial(run_chain, _zero_potential, mean, sampler)
    rng = np.random.default_rng([args.seed, stream])
    t0 = time.perf_counter()
    diag = chain(setup.chain_config, rng)
    elapsed = time.perf_counter() - t0
    print(f"sample[{setup.algorithm}]: {diag.steps} steps in {elapsed:.1f} s, "
          f"acceptance {diag.acceptance_rate:.4f}, "
          f"{diag.nonfinite_proposals} non-finite proposals")
    files = _chain_outputs(out, diag, setup.chain_config.max_lag)
    _write_manifest(out, "sample", cfg, args.seed, args.paper_scale, files, started)
    return 0


def cmd_compare(args, cfg) -> int:
    setup = Setup(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    spec, files = _run_optimize_stage(setup, out)

    max_lag = setup.chain_config.max_lag
    pi = setup.probe_index()
    rows = []
    summary = []
    for name, chain, stream in (
        ("reference", partial(reference_chain, setup.problem, setup.ref), 2),
        ("informed", partial(fit_chain, setup.problem, spec), 3),
    ):
        t0 = time.perf_counter()
        diag = chain(setup.chain_config, np.random.default_rng([args.seed, stream]))
        elapsed = time.perf_counter() - t0
        probe = diag.probe_post_burn
        if probe.size >= 2:
            acov = autocovariance(probe, max_lag)
            tau = iact(probe, max_lag)
        else:
            acov = np.zeros(1)
            tau = float("nan")
        for lag in range(len(acov)):
            rows.append((name, diag.steps, diag.acceptance_rate, tau, lag, acov[lag]))
        summary.append((name, diag.acceptance_rate, tau,
                        diag.node_mean[pi], diag.node_var[pi]))
        print(f"compare[{name}]: acceptance {diag.acceptance_rate:.4f}, "
              f"probe autocorrelation time {tau:.2f} (thinned), {elapsed:.1f} s")
    _write_csv(out / "compare.csv",
               ["algorithm", "steps", "acceptance_rate", "iact", "lag", "autocov"],
               rows)
    files.append("compare.csv")
    ref_s, inf_s = summary
    print("compare: algorithm  accept     iact   probe_mean  probe_var")
    for name, rate, tau, pm, pv in summary:
        print(f"compare: {name:<10} {rate:<10.4f} {tau:<6.2f} {pm:<11.4g} {pv:.4g}")
    if ref_s[1] > 0:
        print(f"compare: acceptance ratio informed/reference = {inf_s[1] / ref_s[1]:.2f}")
    _write_manifest(out, "compare", cfg, args.seed, args.paper_scale, files, started)
    return 0


def cmd_scalar_analytic(args, cfg) -> int:
    setup = Setup(cfg, args.seed)
    if setup.kind != "scalar":
        raise UsageError("scalar-analytic needs a config with problem.kind = scalar")
    eps = setup.problem.eps
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    s_opt = scalar_sigma_opt(eps)
    d_opt = scalar_dkl_analytic(0.0, s_opt, eps)
    sigmas = np.linspace(0.5 * s_opt, 2.0 * s_opt, 151)
    rows = [(s, scalar_dkl_analytic(0.0, s, eps),
             scalar_dkl_analytic(0.0, s, eps) - d_opt) for s in sigmas]
    _write_csv(out / "scalar_analytic.csv",
               ["sigma", "dkl", "dkl_minus_opt"], rows)
    print(f"scalar-analytic: eps = {eps:g}")
    print(f"scalar-analytic: sigma_opt = {s_opt:.10g} "
          f"(sigma_opt^2 = {s_opt**2:.10g}; small-eps expansion "
          f"eps - 12 eps^2 = {eps - 12 * eps**2:.10g})")
    print(f"scalar-analytic: divergence at optimum {d_opt:.6f} (up to log Z), "
          f"{scalar_dkl_analytic(0.0, s_opt, eps, absolute=True):.6f} (absolute)")
    print(f"scalar-analytic: reference-proposal acceptance asymptote "
          f"{scalar_acceptance_asymptote(eps):.6f}")
    _write_manifest(out, "scalar-analytic", cfg, args.seed, args.paper_scale,
                    ["scalar_analytic.csv"], started)
    return 0


# ---------------------------------------------------------------------------
# self-check battery


def _check_sigma_opt() -> tuple[bool, str]:
    got = scalar_sigma_opt(1.0 / 16.0) ** 2
    err = abs(got - 1.0 / 24.0)
    return err <= 1e-15, f"sigma_opt(1/16)^2 = {got:.17g}, |err| = {err:.3g}"


def _check_bridge_kernel() -> tuple[bool, str]:
    n = 49
    t = np.arange(1, n + 1) / (n + 1)
    h = 1.0 / (n + 1)
    kernel = 2.0 * (np.minimum.outer(t, t) - np.outer(t, t))
    err = np.abs(np.linalg.inv(dirichlet_precision(n)) - h * kernel).max()
    return err <= 1e-8, f"max |inv(stencil) - h*kernel| = {err:.3g}"


def _check_bridge_banded() -> tuple[bool, str]:
    ref = BridgeReference(49)
    cov = np.linalg.inv(ref.h * dirichlet_precision(49))
    # the sampler's draws are U^{-1} xi; regressing them on xi recovers U^{-1}
    xi = np.random.default_rng(4).standard_normal((196, 49))
    u_inv_t = np.linalg.lstsq(xi, ref.sample_centered(np.random.default_rng(4), 196),
                              rcond=None)[0]
    errs = [np.abs(c - cov).max() / np.abs(cov).max()
            for c in (ref.apply_cov(np.eye(49)) / ref.h, u_inv_t.T @ u_inv_t)]
    return max(errs) <= 1e-10, f"rel errs apply_cov {errs[0]:.3g}, sampler factor {errs[1]:.3g}"


def _check_darcy_linear() -> tuple[bool, str]:
    prob = DarcyProblem(64, 0.1, np.zeros(4))
    p = prob.observe(np.full(64, 0.7))
    expect = prob.pressures[0] + (prob.pressures[1] - prob.pressures[0]) * prob.obs_points
    err = np.abs(p - expect).max()
    return err <= 1e-12, f"constant field pressure error {err:.3g}"


def _check_diffusion_quadrature() -> tuple[bool, str]:
    prob = DiffusionProblem(0.05, 99)
    t = np.arange(1, 100) / 100.0
    got = float(prob.phi(t))
    want = (8.0 / 15.0) / (4.0 * prob.eps**2)
    rel = abs(got - want) / want
    return rel <= 1e-3, f"straight-line potential rel err {rel:.3g}"


def _check_gradient_fd() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    spec = GaussianSpec(np.array([0.1]), ScalarVariance(0.3), ScalarReference())
    problem = ScalarDoubleWell(0.01)
    batch = sample_centered(spec, rng, 400)
    grads = estimate_gradients(spec, problem, batch)
    eta = 1e-6
    up = estimate_dkl(spec.with_mean(spec.mean + eta), problem, batch=batch)
    dn = estimate_dkl(spec.with_mean(spec.mean - eta), problem, batch=batch)
    fd_m = (up.value - dn.value) / (2 * eta)
    err_m = abs(fd_m - float(grads.mean[0])) / max(1.0, abs(fd_m))
    up = estimate_dkl(spec.with_cov(ScalarVariance(0.3 + eta)), problem,
                      batch=batch, base=spec)
    dn = estimate_dkl(spec.with_cov(ScalarVariance(0.3 - eta)), problem,
                      batch=batch, base=spec)
    fd_s = (up.value - dn.value) / (2 * eta)
    err_s = abs(fd_s - float(grads.cov)) / max(1.0, abs(fd_s))
    ok = err_m <= 1e-5 and err_s <= 1e-5
    return ok, f"rel errs mean {err_m:.3g}, sigma {err_s:.3g}"


def _check_spd_projection() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        p = project_spd(a, 0.1, 2.0)
        vals = np.linalg.eigvalsh(p)
        worst = max(worst,
                    abs(p[0, 1] - p[1, 0]),
                    max(0.0, 0.1 - vals.min()),
                    max(0.0, vals.max() - 2.0),
                    np.abs(project_spd(p, 0.1, 2.0) - p).max())
    return worst <= 1e-12, f"worst violation {worst:.3g}"


def cmd_check(args, cfg=None) -> int:
    checks = [
        ("sigma-opt-closed-form", _check_sigma_opt),
        ("bridge-kernel-inverse", _check_bridge_kernel),
        ("bridge-banded-solve", _check_bridge_banded),
        ("darcy-linear-pressure", _check_darcy_linear),
        ("diffusion-quadrature", _check_diffusion_quadrature),
        ("gradient-matches-fd", _check_gradient_fd),
        ("spd-projection", _check_spd_projection),
    ]
    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    if failed:
        print(f"check: {failed} of {len(checks)} checks failed")
        return 3
    print(f"check: all {len(checks)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default="scalar",
                     help="config file path or preset name (default: scalar)")
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--out", default=".", help="output directory (default: cwd)")
    sub.add_argument("--paper-scale", action="store_true",
                     help="use the long-run iteration/step counts")
    sub.add_argument("--check", action="store_true",
                     help="verify this command's manifest instead of recomputing")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="klgauss",
        description="Gaussian fits to non-Gaussian targets and proposal-informed pCN",
    )
    parser.add_argument("--check", action="store_true",
                        help="run the self-test battery and exit")
    subparsers = parser.add_subparsers(dest="command")
    for name, fn in (
        ("optimize", cmd_optimize),
        ("sample", cmd_sample),
        ("compare", cmd_compare),
        ("scalar-analytic", cmd_scalar_analytic),
        ("check", cmd_check),
    ):
        sub = subparsers.add_parser(name)
        if name != "check":
            _add_common(sub)
            if name == "sample":
                sub.add_argument("--zero-potential", action="store_true",
                                 help="diagnostic: force the potential to zero")
        else:
            sub.add_argument("--seed", type=int, default=0)
        sub.set_defaults(func=fn)

    args = parser.parse_args(argv)
    if args.command is None:
        if args.check:
            return cmd_check(args)
        parser.print_help(sys.stderr)
        return 2
    if args.command == "check":
        return cmd_check(args)
    if args.check:
        return _verify_manifest(Path(args.out), args.command)

    try:
        cfg = load_config(args.config)
        if args.paper_scale:
            apply_paper_scale(cfg)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteObjectiveError, NotACovarianceError, DegenerateWeightsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
