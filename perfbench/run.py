"""End-to-end benchmark of ``klgauss compare``, with an optional per-layer trace.

Run from the root of a klgauss checkout::

    python3 perfbench/run.py --workload darcy --seed 1 --seconds 30 --trace 0

Each round writes the workload's INI config, runs one ``klgauss compare`` on
it in a fresh interpreter (``child.py``, BLAS pinned to one thread, one
process: a closed loop with one client), checks the outputs, and repeats
until the next round would overrun ``--seconds`` (at least three rounds).
Every round of a run uses the same seed, so it repeats the same work.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the per-metric medians over the rounds: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The line before it records the machine, its load and the library versions.
"""

from __future__ import annotations

import argparse
import os
import sys

from child import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS, write_ini  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
DEADLINE_S = 170.0  # the whole run, rounds and checks, ends before this

E2E_UNITS = {
    "setup_s": "s", "fit.iters_per_s": "1/s", "chain.ref.steps_per_s": "1/s",
    "chain.fit.steps_per_s": "1/s", "total_s": "s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("ess_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("accept_rate"):
        return "fraction"
    return "count"


def median(values: list):
    """The median, kept a whole number when every value is one (counts)."""
    mid = statistics.median(values)
    if all(isinstance(v, int) for v in values) and mid == int(mid):
        return int(mid)
    return mid


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_round(root: Path, work: Path, ini: Path, seed: int, trace: bool,
              timeout: float) -> tuple[dict | None, str]:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(root / "src"), str(ini),
             str(seed), str(out), str(result), repr(t_spawn), "1" if trace else "0"],
            env=env, cwd=work, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"compare timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(result.read_text()), "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "klgauss" / "__init__.py").is_file():
        print(f"error: no klgauss sources under {root / 'src'}; "
              "run from the root of a klgauss checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import klgauss
    import klgauss.cli

    workload = WORKLOADS[args.workload]
    env_record = environment()
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ini = work / "config.ini"
    write_ini(workload.config, ini)

    rounds: list[dict] = []
    attempts = attempted = failed = 0
    try:
        while True:
            elapsed = perf_counter() - t_start
            metrics, status = run_round(root, work, ini, args.seed, bool(args.trace),
                                        timeout=max(5.0, DEADLINE_S - elapsed))
            attempts += 1
            results = [("compare", metrics is not None, status)]
            if metrics is not None:
                rounds.append(metrics)
                print(f"round {attempts} metrics: {json.dumps(metrics)}", file=sys.stderr)
                rng = np.random.default_rng([args.seed, attempts])
                try:
                    results += workload.checks(work / "out", workload.config, klgauss, rng)
                except (OSError, KeyError, IndexError, ValueError) as exc:
                    results.append(("outputs", False, f"{type(exc).__name__}: {exc}"))
            for name, ok, detail in results:
                print(f"round {attempts} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                      file=sys.stderr)
            # a round that stops early fails every operation it did not run
            attempted += workload.n_ops
            failed += workload.n_ops - sum(bool(ok) for _, ok, _ in results)

            elapsed = perf_counter() - t_start
            per_round = elapsed / attempts
            if elapsed + per_round > DEADLINE_S:
                break
            if attempts >= MIN_ROUNDS and elapsed + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench").rmdir()
        except OSError:
            pass

    env_record["loadavg_end"] = os.getloadavg()
    env_record["rounds"] = len(rounds)
    env_record["wall_s"] = perf_counter() - t_start
    print(json.dumps({"environment": env_record}))

    unit = (lambda name: E2E_UNITS[name]) if not args.trace else layer_unit
    metrics = {name: {"value": median([r[name] for r in rounds]), "unit": unit(name)}
               for name in (rounds[0] if rounds else ())}
    print(json.dumps({"correct": failed == 0 and bool(rounds), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if rounds else 1


if __name__ == "__main__":
    sys.exit(main())
