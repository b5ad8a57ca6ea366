"""The benchmark's workloads: one INI config and one check list each.

``darcy``
    The ``darcy-noise0.1`` problem (periodic grid n = 128, rank-2 fit,
    beta = 0.6). Per-step Python chain loops calling the potential on one
    row; several FFT transforms and eigen-cache lookups per RM iteration.
    No bridge linear algebra runs.
``bridge-var-n1023``
    The ``diffusion-variable`` problem at n = 1023. Each RM iteration runs
    a dense 1023 x 1023 ``eigh``, dense Cholesky solves and n^2 matvecs;
    the chains allocate (8192, n) innovation blocks. No FFT or finite-rank
    code runs. The step ``a0`` is 0.05, not the preset's 2.0: at this grid
    size 2.0 throws the potential between its clamps every iteration, and
    the repeated all-clamped potentials then hit the eigen cache on some
    seeds and not on others, which makes the iteration cost depend on the
    seed. At 0.05 the divergence falls and every iteration factorizes.
``scalar``
    The double-well preset, eps = 0.01 and beta = 1: the only workload on
    the beta = 1 block path of ``mcmc`` and on the scalar family. Python
    bookkeeping in ``optimize`` and ``mcmc`` dominates it.

Iteration and step counts are sized so that one round (set-up, fit, both
chains, outputs and checks) takes about 7.5 s on a 2-core machine (9 s on
``scalar``, whose reference chain needs 600000 steps to last about a
second), which fits four or five rounds into a 40-second run. ``thin = 10`` gives the chain checks
ten times more thinned states than the presets' 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Workload:
    config: dict[str, dict[str, str]]
    checks: Callable
    n_checks: int

    @property
    def n_ops(self) -> int:
        """Operations per round: the compare run and each of its checks."""
        return 1 + self.n_checks


def _chain(steps: int, beta: str) -> dict[str, str]:
    return {"steps": str(steps), "beta": beta, "thin": "10", "burn_frac": "0.1",
            "algorithm": "informed", "max_lag": "100"}


WORKLOADS = {
    "darcy": Workload(
        config={
            "problem": {"kind": "darcy", "n": "128", "noise": "0.1", "scale": "1.0",
                        "obs_points": "0.2,0.4,0.6,0.8", "p_lo": "0.0", "p_hi": "2.0"},
            "fit": {"family": "finite-rank", "rank": "2"},
            "optimize": {"iterations": "700", "batch_size": "100", "a0": "0.1",
                         "decay": "0.6", "mean_lo": "-5.0", "mean_hi": "5.0",
                         "cov_lo": "0.0001", "cov_hi": "1.0", "snapshot_every": "100"},
            "chain": _chain(16384, "0.6"),
        },
        checks=checks.darcy_checks,
        n_checks=5,
    ),
    "bridge-var-n1023": Workload(
        config={
            "problem": {"kind": "diffusion", "eps": "0.05", "n": "1023"},
            "fit": {"family": "variable-potential", "init_potential": "2.0",
                    "smoothing": "0.01"},
            "optimize": {"iterations": "8", "batch_size": "100", "a0": "0.05",
                         "decay": "0.6", "mean_lo": "0.0", "mean_hi": "1.5",
                         "cov_lo": "0.001", "cov_hi": "10.0", "snapshot_every": "4"},
            "chain": _chain(12288, "0.6"),
        },
        checks=checks.bridge_checks,
        n_checks=6,
    ),
    "scalar": Workload(
        config={
            "problem": {"kind": "scalar", "eps": "0.01"},
            "fit": {"family": "scalar-variance", "init_sigma": "1.0", "init_mean": "0.25"},
            "optimize": {"iterations": "10000", "batch_size": "100", "a0": "0.1",
                         "decay": "0.6", "mean_lo": "-0.5", "mean_hi": "0.5",
                         "cov_lo": "0.001", "cov_hi": "1.0", "snapshot_every": "100"},
            "chain": _chain(600000, "1.0"),
        },
        checks=checks.scalar_checks,
        n_checks=5,
    ),
}


def write_ini(config: dict[str, dict[str, str]], path: Path) -> None:
    """Write ``config`` as INI text."""
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n")
