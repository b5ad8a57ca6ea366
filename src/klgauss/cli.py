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
What each ``problem.kind`` reads, with defaults and ranges, is declared once
in ``KINDS``. Unknown keys, keys that the config's kind or family does not
read and out-of-range values are usage errors (exit 2) and write no
manifest. Every command but ``check`` runs through one runner, ``_run``,
which builds the :class:`Setup`, makes the output directory and writes the
manifest; a numerical failure exits 3 with an ``error`` field in it, listing
the files the command wrote before it failed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonFiniteObjectiveError, NotACovarianceError
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
# exit 3: float overflow counts, since an in-range parameter can overflow a power
_NUMERICAL_FAILURES = (NonFiniteObjectiveError, NotACovarianceError, OverflowError)


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


# a key's range: a test its value must pass, and what the test asks for
_POSITIVE = (lambda v: v > 0, "be positive")


def _at_least(lo: int) -> tuple:
    return (lambda v: v >= lo, f"be at least {lo}")


def _build_scalar(prob, fit, seed):
    return (ScalarReference(), ScalarDoubleWell(prob["eps"]), None,
            np.array([fit["init_mean"]]), ScalarVariance(fit["init_sigma"]))


def _build_darcy(prob, fit, seed):
    n, noise, obs = prob["n"], prob["noise"], prob["obs_points"]
    pressures = (prob["p_lo"], prob["p_hi"])
    ref = PeriodicReference(n, prob["scale"])
    if fit["rank"] > ref.n_modes:
        raise UsageError(f"fit.rank {fit['rank']} exceeds the {ref.n_modes} modes "
                         f"retained on a grid of {n} points")
    data_rng = np.random.default_rng([seed, _DATA_STREAM])
    true_field, data = synthesize_darcy_data(n, noise, data_rng, obs, pressures)
    return (ref, DarcyProblem(n, noise, data, obs, pressures), (true_field, data),
            np.zeros(n), FiniteRank(np.diag(ref.lam[:fit["rank"]])))


def _build_diffusion(prob, fit, seed):
    eps, n = prob["eps"], prob["n"]
    t = np.arange(1, n + 1) / (n + 1)
    if fit["family"] == "constant-potential":
        cov0 = ConstantPotential(fit["init_strength"], eps)
    else:
        cov0 = VariablePotential(np.full(n, fit["init_potential"]), eps,
                                 smoothing=fit["smoothing"])
    return BridgeReference(n, mean0=t), DiffusionProblem(eps, n), None, t.copy(), cov0


class _Kind(NamedTuple):
    """What one ``problem.kind`` means: its keys, run sizes and how it is built.

    Keys map to ``(type, default, range)``; a ``None`` default keeps the key
    out of the presets, a ``None`` range takes any value. ``build(problem,
    fit, seed)`` returns the reference, the problem, the Darcy ``(true_field,
    data)`` or ``None``, and the starting mean and covariance.
    """

    problem: dict[str, tuple]
    fits: dict[str, dict[str, tuple]]  # fit.family -> its [fit] keys
    paper_scale: tuple[int, int]  # (iterations, steps) for --paper-scale
    seeded_data: bool  # the seed draws the synthetic data
    build: Callable


KINDS = {
    "scalar": _Kind(
        problem={"eps": (float, 0.01, _POSITIVE)},
        fits={"scalar-variance": {"init_sigma": (float, 1.0, _POSITIVE),
                                  "init_mean": (float, 0.0, None)}},
        paper_scale=(1_000_000, 1_000_000), seeded_data=False, build=_build_scalar),
    "darcy": _Kind(
        problem={"n": (int, 128, _at_least(4)), "noise": (float, 0.1, _POSITIVE),
                 "scale": (float, 1.0, _POSITIVE),
                 "obs_points": (_float_list, (0.2, 0.4, 0.6, 0.8),
                                (lambda v: all(0 < x < 1 for x in v), "lie in (0, 1)")),
                 "p_lo": (float, 0.0, None), "p_hi": (float, 2.0, None)},
        fits={"finite-rank": {"rank": (int, 2, _at_least(1))}},
        paper_scale=(100_000, 1_000_000), seeded_data=True, build=_build_darcy),
    "diffusion": _Kind(
        problem={"eps": (float, 0.05, _POSITIVE), "n": (int, 99, _at_least(2))},
        fits={"constant-potential": {"init_strength": (float, 1.0, _POSITIVE)},
              "variable-potential": {"init_potential": (float, 2.0, _POSITIVE),
                                     "smoothing": (float, 1e-2, _POSITIVE)}},
        paper_scale=(100_000, 1_000_000), seeded_data=False, build=_build_diffusion),
}

# the [optimize] and [chain] keys every kind reads
_SHARED = {
    "optimize": {
        "iterations": (int, 10_000, _at_least(1)), "batch_size": (int, 100, _at_least(2)),
        "a0": (float, 0.1, _POSITIVE),
        "decay": (float, 0.6, (lambda v: 0.5 < v <= 1, "lie in (0.5, 1]")),
        "mean_lo": (float, -5.0, None), "mean_hi": (float, 5.0, None),
        "cov_lo": (float, 1e-4, _POSITIVE), "cov_hi": (float, 1.0, _POSITIVE),
        "snapshot_every": (int, 100, _at_least(1)),
    },
    "chain": {
        "steps": (int, 100_000, _at_least(1)),
        "beta": (float, 1.0, (lambda v: 0 < v <= 1, "lie in (0, 1]")),
        "thin": (int, 100, _at_least(1)),
        "burn_frac": (float, 0.1, (lambda v: 0 <= v < 1, "lie in [0, 1)")),
        "probe_index": (int, None, _at_least(0)),
        "algorithm": (str, "informed",
                      (lambda v: v in ("reference", "informed"), "be 'reference' or 'informed'")),
        "max_lag": (int, 100, _at_least(1)),
    },
}


def _declared(kind: str, family: str) -> dict[str, dict[str, tuple]]:
    """The keys a config of this kind and family reads, by section."""
    return {"problem": {"kind": (str, None, None), **KINDS[kind].problem},
            "fit": {"family": (str, None, None), **KINDS[kind].fits[family]},
            **_SHARED}


# the type of every key that some kind and family reads
_TYPES = {sec: {key: spec[0] for kind in KINDS for family in KINDS[kind].fits
                for key, spec in _declared(kind, family)[sec].items()}
          for sec in ("problem", "fit", *_SHARED)}


def _filled(cfg: dict[str, dict[str, object]]) -> dict[str, dict[str, object]]:
    """Every key the config's kind and family read, with the table's defaults filled in."""
    declared = _declared(cfg["problem"]["kind"], cfg["fit"]["family"])
    return {sec: {key: cfg.get(sec, {}).get(key, default) for key, (_, default, _) in keys.items()}
            for sec, keys in declared.items()}


def _preset(kind: str, family: str, **overrides: dict[str, object]):
    """The kind's and family's defaults, then ``overrides`` by section."""
    cfg = _filled({"problem": {"kind": kind}, "fit": {"family": family}})
    for sec, keys in overrides.items():
        cfg[sec].update(keys)
    return {sec: {key: v for key, v in keys.items() if v is not None}
            for sec, keys in cfg.items()}


_DIFFUSION_RM = {"a0": 2.0, "mean_lo": 0.0, "mean_hi": 1.5, "cov_lo": 1e-3, "cov_hi": 10.0}

PRESETS: dict[str, dict[str, dict[str, object]]] = {
    "scalar": _preset("scalar", "scalar-variance", fit={"init_mean": 0.25},
                      optimize={"mean_lo": -0.5, "mean_hi": 0.5, "cov_lo": 1e-3}),
    "darcy-noise0.1": _preset("darcy", "finite-rank", chain={"beta": 0.6}),
    "darcy-noise0.01": _preset("darcy", "finite-rank", problem={"noise": 0.01},
                               chain={"beta": 0.6}),
    "diffusion-constant": _preset("diffusion", "constant-potential", optimize=_DIFFUSION_RM,
                                  chain={"beta": 0.6}),
    "diffusion-variable": _preset("diffusion", "variable-potential", optimize=_DIFFUSION_RM,
                                  chain={"beta": 0.6}),
}


def load_config(source: str) -> dict[str, dict[str, object]]:
    """Parse, type and range-check a config from a file path or preset name.

    Returns ``{section: {key: typed value}}``. Unknown sections, keys that
    the config's kind or family does not read, and out-of-range values
    raise :class:`UsageError`.
    """
    if source in PRESETS:
        cfg = {sec: dict(keys) for sec, keys in PRESETS[source].items()}
    else:
        path = Path(source)
        if not path.is_file():
            raise UsageError(
                f"config {source!r} is neither a file nor a preset "
                f"(presets: {', '.join(sorted(PRESETS))})"
            )
        cfg = _parse_config_text(path.read_text(), source)

    kind = cfg.get("problem", {}).get("kind")
    if kind not in KINDS:
        raise UsageError(f"problem.kind must be one of {sorted(KINDS)}, got {kind!r}")
    family = cfg.get("fit", {}).get("family")
    if family not in KINDS[kind].fits:
        raise UsageError(
            f"fit.family {family!r} does not go with problem.kind {kind!r} "
            f"(expected one of {tuple(KINDS[kind].fits)})"
        )
    declared = _declared(kind, family)
    for sec, keys in cfg.items():
        for key, value in keys.items():
            if key not in declared[sec]:
                raise UsageError(f"config key {sec}.{key} is not read by problem.kind = "
                                 f"{kind} with fit.family = {family}")
            test, need = declared[sec][key][2] or (None, None)
            if test is not None and not test(value):
                raise UsageError(f"{sec}.{key} must {need}, got {value!r}")
    return cfg


def _parse_config_text(text: str, source: str) -> dict[str, dict[str, object]]:
    """Parse and type INI text; unknown sections or keys raise :class:`UsageError`.

    Any key that some kind or family reads is typed, so the configs that
    older manifests record parse too.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse {source}: {exc}") from exc
    cfg: dict[str, dict[str, object]] = {}
    for sec in parser.sections():
        if sec not in _TYPES:
            raise UsageError(f"unknown config section [{sec}]")
        cfg[sec] = {}
        for key, value in parser.items(sec):
            if key not in _TYPES[sec]:
                raise UsageError(f"unknown config key {sec}.{key}")
            caster = _TYPES[sec][key]
            try:
                cfg[sec][key] = caster(value)
            except ValueError as exc:
                raise UsageError(
                    f"config key {sec}.{key} needs {caster.__name__}, got {value!r}"
                ) from exc
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
    iterations, steps = KINDS[cfg["problem"]["kind"]].paper_scale
    cfg.setdefault("optimize", {})["iterations"] = iterations
    cfg.setdefault("chain", {})["steps"] = steps


# ---------------------------------------------------------------------------
# building the pieces from a config


class Setup:
    """Everything a command needs, built once from the validated config.

    Conditions that tie keys together are checked here, before any fit runs.
    """

    def __init__(self, cfg: dict[str, dict[str, object]], seed: int):
        self.cfg = cfg
        self.seed = seed
        self.kind = cfg["problem"]["kind"]
        filled = _filled(cfg)
        opt, ch = filled["optimize"], filled["chain"]
        for name in ("mean", "cov"):
            lo, hi = opt[f"{name}_lo"], opt[f"{name}_hi"]
            if not lo < hi:
                raise UsageError(f"optimize.{name}_lo must be below optimize.{name}_hi, "
                                 f"got {lo!r} and {hi!r}")
        self.ref, self.problem, darcy_data, mean0, cov0 = KINDS[self.kind].build(
            filled["problem"], filled["fit"], seed)
        self.true_field, self.data = darcy_data or (None, None)
        self.spec0 = GaussianSpec(mean=mean0, cov=cov0, ref=self.ref)
        probe = self.ref.dim // 2 if ch["probe_index"] is None else ch["probe_index"]
        if probe >= self.ref.dim:
            raise UsageError(f"chain.probe_index must be below the dimension {self.ref.dim}, "
                             f"got {probe}")

        self.rm_config = RMConfig(
            iterations=opt["iterations"],
            batch_size=opt["batch_size"],
            schedule=StepSchedule(opt["a0"], opt["decay"]),
            mean_bounds=(opt["mean_lo"], opt["mean_hi"]),
            cov_bounds=(opt["cov_lo"], opt["cov_hi"]),
            snapshot_every=opt["snapshot_every"],
        )
        self.algorithm = ch.pop("algorithm")
        self.chain_config = ChainConfig(**{**ch, "probe_index": probe})


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

    A malformed or incomplete file, or one with a non-finite number, raises
    ``ValueError``.
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
    for key, value in fields.items():
        try:
            numbers = _float_list(value)
        except ValueError:
            continue  # a name, or a malformed entry that its own parser reports
        if not np.isfinite(numbers).all():
            raise ValueError(f"{path} has a non-finite {key} entry")

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


def _write_manifest(out: Path, args, cfg, filenames: list[str], started: str,
                    error: str | None) -> None:
    outputs = {}
    for name in sorted(filenames):
        outputs[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest = {
        "command": args.command,
        "config": canonical_config_text(cfg),
        "config_hash": config_hash(cfg),
        "seed": args.seed,
        "paper_scale": args.paper_scale,
        "outputs": outputs,
        "started": started,
        "finished": _now(),
    }
    if error is not None:
        manifest["error"] = error
    (out / f"manifest_{args.command}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _read_manifest(path: Path) -> dict | None:
    """The manifest at ``path`` if it is a JSON object with an ``outputs`` object, else None."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):  # missing, unreadable or not JSON
        return None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("outputs"), dict):
        return None
    return manifest


def _verify_manifest(out: Path, command: str) -> int:
    """Check the files listed in ``manifest_<command>.json`` against their hashes."""
    path = out / f"manifest_{command}.json"
    manifest = _read_manifest(path)
    if manifest is None:
        print(f"error: no readable manifest at {path}", file=sys.stderr)
        return 2
    bad = 0
    for name, digest in sorted(manifest["outputs"].items()):
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
    print(f"verify: all {len(manifest['outputs'])} files match {path.name}")
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


def _run(args, cfg) -> int:
    """Run the command body ``args.func`` and write its manifest; returns the exit code.

    The body takes ``(args, setup, out, files)`` and appends to ``files``
    each file it writes in ``out``. On a numerical failure the manifest
    lists those files and the trace files of a fit that failed partway,
    written here, and carries the ``error``; the exit code is then 3. A
    :class:`UsageError` passes through and leaves no manifest.
    """
    setup = Setup(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    files: list[str] = []
    error = None
    try:
        args.func(args, setup, out, files)
    except _NUMERICAL_FAILURES as exc:
        trace = getattr(exc, "trace", None)
        if trace is not None and trace.steps:
            files += _write_trace_files(out, trace)
        error = str(exc)
    _write_manifest(out, args, cfg, files, started, error)
    if error is None:
        return 0
    print(f"numerical failure: {error}", file=sys.stderr)
    return 3


def _run_optimize_stage(setup: Setup, out: Path, files: list[str]) -> GaussianSpec:
    """Fit and write the optimizer outputs, appending them to ``files``; a
    numerical failure raises with the partial trace attached."""
    rng = np.random.default_rng([setup.seed, 1])
    t0 = time.perf_counter()
    final, trace = rm_minimize(setup.spec0, setup.problem, setup.rm_config, rng)
    elapsed = time.perf_counter() - t0

    files += _write_trace_files(out, trace)
    save_gaussian_spec(out / SPEC_FILENAME, final)
    files.append(SPEC_FILENAME)
    if setup.data is not None:  # the synthetic observations of an inverse problem
        clean = setup.problem.observe(setup.true_field)
        _write_csv(out / "data.csv", ["index", "x", "y", "clean"],
                   ((i, *row) for i, row in
                    enumerate(zip(setup.problem.obs_points, setup.data, clean))))
        files.append("data.csv")

    print(f"optimize: {setup.rm_config.iterations} iterations in {elapsed:.1f} s")
    print(f"optimize: divergence {trace.dkl[0]:.4f} -> {trace.dkl[-1]:.4f} (up to log Z)")
    return final


def cmd_optimize(args, setup: Setup, out: Path, files: list[str]) -> None:
    final = _run_optimize_stage(setup, out, files)
    est = estimate_dkl(final, setup.problem, 2000, np.random.default_rng([args.seed, 7]))
    print(f"optimize: fresh-batch divergence estimate {est.value:.4f} "
          f"(stderr {est.stderr:.4f})")


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


def _check_spec_provenance(out: Path, setup: Setup) -> None:
    """Refuse a spec that a manifest in ``out`` records as fitted on another problem.

    The spec is matched to the ``optimize`` or ``compare`` manifest that
    lists it with its current SHA-256. That run's problem settings (and,
    for Darcy, its seed, which draws the synthetic data) must equal this
    run's; a spec that no manifest lists, or whose manifest records no
    config naming a kind and family, is used as it is.
    """
    digest = hashlib.sha256((out / SPEC_FILENAME).read_bytes()).hexdigest()
    current = _filled(setup.cfg)["problem"]
    mismatches = []
    for command in ("optimize", "compare"):
        path = out / f"manifest_{command}.json"
        manifest = _read_manifest(path)
        if manifest is None or manifest["outputs"].get(SPEC_FILENAME) != digest:
            continue
        try:
            fitted = _filled(_parse_config_text(manifest["config"], path.name))["problem"]
        except (KeyError, TypeError):  # no config text, or none naming a kind and family
            continue
        diff = [f"problem.{key} = {_fmt(fitted.get(key))} there, {_fmt(value)} here"
                for key, value in current.items() if fitted.get(key) != value]
        if KINDS[setup.kind].seeded_data and manifest.get("seed") != setup.seed:
            diff.append(f"seed = {manifest.get('seed')} there, {setup.seed} here "
                        "(the seed draws the synthetic data)")
        if not diff:
            return
        mismatches.append(f"{path.name}: " + "; ".join(diff))
    if mismatches:
        raise UsageError(
            f"{out / SPEC_FILENAME} was fitted on a different problem ("
            + " | ".join(mismatches) + "); rerun optimize with this config and seed"
        )


def cmd_sample(args, setup: Setup, out: Path, files: list[str]) -> None:
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
        _check_spec_provenance(out, setup)
        stream, mean, sampler = 3, spec.mean, partial(sample_centered, spec)
        chain = partial(fit_chain, setup.problem, spec)
    else:
        stream, mean, sampler = 2, setup.ref.mean0, setup.ref.sample_centered
        chain = partial(reference_chain, setup.problem, setup.ref)
    if args.zero_potential:
        chain = partial(run_chain, lambda fields: np.zeros(len(fields)), mean, sampler)
    rng = np.random.default_rng([args.seed, stream])
    t0 = time.perf_counter()
    diag = chain(setup.chain_config, rng)
    elapsed = time.perf_counter() - t0
    print(f"sample[{setup.algorithm}]: {diag.steps} steps in {elapsed:.1f} s, "
          f"acceptance {diag.acceptance_rate:.4f}, "
          f"{diag.nonfinite_proposals} non-finite proposals, "
          f"{diag.potential_calls} potential calls on {diag.potential_rows} rows")
    files += _chain_outputs(out, diag, setup.chain_config.max_lag)


def _compare_chains(setup: Setup, spec: GaussianSpec, seed: int):
    """Run the reference and the informed chain; ``compare.csv``'s rows and a
    summary row per chain."""
    max_lag = setup.chain_config.max_lag
    pi = setup.chain_config.probe_index
    rows = []
    summary = []
    for name, chain, stream in (
        ("reference", partial(reference_chain, setup.problem, setup.ref), 2),
        ("informed", partial(fit_chain, setup.problem, spec), 3),
    ):
        t0 = time.perf_counter()
        diag = chain(setup.chain_config, np.random.default_rng([seed, stream]))
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
              f"probe autocorrelation time {tau:.2f} (thinned), {elapsed:.1f} s, "
              f"{diag.potential_calls} potential calls on {diag.potential_rows} rows")
    return rows, summary


def cmd_compare(args, setup: Setup, out: Path, files: list[str]) -> None:
    spec = _run_optimize_stage(setup, out, files)
    rows, summary = _compare_chains(setup, spec, args.seed)
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


def cmd_scalar_analytic(args, setup: Setup, out: Path, files: list[str]) -> None:
    if setup.kind != "scalar":
        raise UsageError("scalar-analytic needs a config with problem.kind = scalar")
    eps = setup.problem.eps
    s_opt = scalar_sigma_opt(eps)
    d_opt = scalar_dkl_analytic(0.0, s_opt, eps)
    sigmas = np.linspace(0.5 * s_opt, 2.0 * s_opt, 151)
    rows = [(s, scalar_dkl_analytic(0.0, s, eps),
             scalar_dkl_analytic(0.0, s, eps) - d_opt) for s in sigmas]
    _write_csv(out / "scalar_analytic.csv",
               ["sigma", "dkl", "dkl_minus_opt"], rows)
    files.append("scalar_analytic.csv")
    print(f"scalar-analytic: eps = {eps:g}")
    print(f"scalar-analytic: sigma_opt = {s_opt:.10g} "
          f"(sigma_opt^2 = {s_opt**2:.10g}; small-eps expansion "
          f"eps - 12 eps^2 = {eps - 12 * eps**2:.10g})")
    print(f"scalar-analytic: divergence at optimum {d_opt:.6f} (up to log Z), "
          f"{scalar_dkl_analytic(0.0, s_opt, eps, absolute=True):.6f} (absolute)")
    print(f"scalar-analytic: reference-proposal acceptance asymptote "
          f"{scalar_acceptance_asymptote(eps):.6f}")


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
    up = estimate_dkl(replace(spec, mean=spec.mean + eta), problem, batch=batch)
    dn = estimate_dkl(replace(spec, mean=spec.mean - eta), problem, batch=batch)
    fd_m = (up.value - dn.value) / (2 * eta)
    err_m = abs(fd_m - float(grads.mean[0])) / max(1.0, abs(fd_m))
    up = estimate_dkl(replace(spec, cov=ScalarVariance(0.3 + eta)), problem,
                      batch=batch, base=spec)
    dn = estimate_dkl(replace(spec, cov=ScalarVariance(0.3 - eta)), problem,
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


def cmd_check() -> int:
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
        sub.set_defaults(func=fn)

    args = parser.parse_args(argv)
    if args.command == "check" or (args.command is None and args.check):
        return cmd_check()
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    if args.check:
        return _verify_manifest(Path(args.out), args.command)

    try:
        cfg = load_config(args.config)
        if args.paper_scale:
            apply_paper_scale(cfg)
        return _run(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
