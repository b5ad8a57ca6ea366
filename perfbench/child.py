"""One ``klgauss compare`` run in a fresh interpreter, timed or traced.

Usage (normally started by ``run.py``)::

    python3 perfbench/child.py SRC INI SEED OUTDIR RESULT T_SPAWN TRACE

``SRC`` is the directory holding the ``klgauss`` package, ``T_SPAWN`` the
parent's ``time.perf_counter()`` just before it started this process (the
monotonic clock is shared between processes on Linux), and ``TRACE`` is 0
for the end-to-end timings or 1 for the per-layer trace. The result is
written as JSON to ``RESULT``.
"""

import os

# BLAS pools are sized when numpy loads, so pin them before any import of it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402


def _install_timers(package, marks: dict) -> None:
    """Time only the ``rm_minimize`` and ``run_chain`` entry points."""
    from tracer import rebind

    rm_minimize = package.optimize.rm_minimize
    run_chain = package.mcmc.run_chain

    @functools.wraps(rm_minimize)
    def timed_rm_minimize(spec, problem, config, rng):
        t0 = perf_counter()
        marks.setdefault("fit_entry", t0)
        out = rm_minimize(spec, problem, config, rng)
        marks["fit"] = {"iterations": len(out[1].steps), "seconds": perf_counter() - t0}
        return out

    @functools.wraps(run_chain)
    def timed_run_chain(*args, **kwargs):
        t0 = perf_counter()
        diag = run_chain(*args, **kwargs)
        marks.setdefault("chains", []).append(
            {"steps": diag.steps, "seconds": perf_counter() - t0})
        return diag

    rebind(package, {id(rm_minimize): timed_rm_minimize, id(run_chain): timed_run_chain})


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _trace_metrics(tracer, package, import_s: float) -> dict:
    stats = tracer.stats

    def get(name: str, field: str) -> float:
        stat = stats.get(name)
        if stat is None:
            return 0
        return {"calls": stat.calls, "rows": stat.rows, "self_s": stat.self_time,
                "total_s": stat.total}[field]

    out = {}
    for name, fields in (
        ("reference.sample_centered", ("rows", "self_s")),
        ("reference.apply_cov", ("self_s",)),
        ("reference.precision_apply", ("self_s",)),
        ("reference.cm_norm_sq", ("self_s",)),
        ("reference.coeffs", ("calls", "self_s")),
        ("reference.synth", ("calls", "self_s")),
        ("sampling.eigen_factorization", ("calls", "self_s")),
        ("sampling.eigh", ("calls", "self_s")),
        ("sampling.sample_finite_rank", ("rows", "self_s")),
        ("sampling.sample_precision_eigen", ("rows", "self_s")),
        ("gaussians.gamma_quad", ("calls", "rows", "self_s")),
        ("gaussians.sample_centered", ("self_s",)),
        ("gaussians.cov_param_derivative", ("self_s",)),
        ("gaussians.descent_direction_cov", ("self_s",)),
        ("objective.estimate_gradients", ("calls", "self_s")),
        ("objective.estimate_dkl", ("calls", "self_s")),
        ("objective.reduced_discrepancy", ("calls",)),
        ("problems.phi", ("calls", "rows", "self_s")),
        ("problems.grad_phi", ("calls", "rows", "self_s")),
        ("optimize.rm_minimize", ("self_s",)),
        ("optimize.project_spd", ("calls", "self_s")),
        ("optimize.project_box", ("self_s",)),
        ("cli.load_config", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        for field in fields:
            out[f"{name}.{field}"] = get(name, field)
    out["reference.init_s"] = get("reference.init", "total_s")
    out["cli.import_s"] = import_s

    iact = package.mcmc.iact.__wrapped__
    for record in tracer.chains:
        label, diag = record["label"], record["diag"]
        out[f"{label}.self_s"] = get(label, "self_s")
        out[f"{label}.potential_calls"] = record["potential_calls"]
        out[f"{label}.accept_rate"] = diag.acceptance_rate
        out[f"{label}.nonfinite"] = diag.nonfinite_proposals
        probe = diag.probe_post_burn
        thin = int(diag.probe_steps[0]) if diag.probe_steps.size else 1
        ess = 0.0
        if probe.size >= 2:
            ess = (diag.steps - diag.burn) / (iact(probe, 100) * thin)
        out[f"{label}.ess_per_s"] = _rate(ess, record["seconds"])
    return out


def main(argv: list[str]) -> int:
    src, ini, seed, outdir, result_path, t_spawn, trace = argv
    t_spawn = float(t_spawn)
    trace = trace == "1"

    sys.path.insert(0, src)
    t0 = perf_counter()
    import klgauss
    import klgauss.cli
    import_s = perf_counter() - t0
    if not os.path.realpath(klgauss.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"klgauss imported from {klgauss.__file__}, not from {src}", file=sys.stderr)
        return 2

    marks: dict = {}
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(klgauss)
    else:
        _install_timers(klgauss, marks)

    rc = klgauss.cli.main(["compare", "--config", ini, "--seed", seed, "--out", outdir])
    t_end = perf_counter()
    if rc != 0:
        print(f"klgauss compare exited with {rc}", file=sys.stderr)
        return 1

    if trace:
        metrics = _trace_metrics(tracer, klgauss, import_s)
        metrics["trace.total_s"] = t_end - t_spawn
    else:
        ref, fit = marks["chains"]
        metrics = {
            "setup_s": marks["fit_entry"] - t_spawn,
            "fit.iters_per_s": _rate(marks["fit"]["iterations"], marks["fit"]["seconds"]),
            "chain.ref.steps_per_s": _rate(ref["steps"], ref["seconds"]),
            "chain.fit.steps_per_s": _rate(fit["steps"], fit["seconds"]),
            "total_s": t_end - t_spawn,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    with open(result_path, "w") as fh:
        json.dump(metrics, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
