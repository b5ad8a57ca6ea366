"""Projected stochastic descent for the Gaussian fit parameters.

Each iteration draws one centred batch from the current fit and reuses it
for both parameter updates: the mean moves along the covariance-smoothed
mean gradient, the covariance parameter along its gradient preconditioned
by the family's own ``precondition`` method, both with
the decaying step ``a0 * n**(-decay)``. Means are clipped back into their
box; the covariance family projects its own update (a box clip, or an
eigenvalue clamp for the symmetric finite-rank factor) and returns the
family at the projected value.

Each quantity of an iteration is computed once and handed on. The target
is evaluated once, potential and gradient together, on the shifted batch.
The draw returns the batch's Gamma coordinates with the batch, and both the
quadratic form and its parameter derivative read them; the mean's shift
``C0^{-1}(m - m0)`` serves the mean gradient and the divergence estimate;
the finite-rank clamp's eigenpairs become the new family's. On the
periodic grid an iteration therefore transforms the batch once (its
synthesis) and eigendecomposes the factor once (its clamp). The batch's
uniform weights depend only on the batch size and are built once per fit.

The descent step reads only the gradients, so the divergence estimate and
its standard error, which go to the trace and to the non-finite stop, are
computed for a block of iterations at a time: the loop keeps each
iteration's reduced discrepancies, ``<u, Gamma u>`` row and mean-shift term,
and one row-batched call turns them into the block's estimates when the
block is full and once at the end. Each row carries the bits a one-row call
gives it. A non-finite estimate stops the fit at its own iteration, with the
trace cut back to the rows and snapshots before it, as if each iteration
had checked its estimate before its update; any other error from the loop
first computes the pending estimates, so an earlier non-finite estimate is
the error raised.

On small batches an iteration is mostly Python bookkeeping, so the loop and
the functions it calls use array methods (``x.sum()``, ``x.any()``) and
``math`` on plain floats rather than numpy's module-level wrappers
(``np.mean``, ``np.sum``, ``np.all``, ``np.clip``), each of which costs
several Python calls per use. They give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteObjectiveError
from .gaussians import GaussianSpec, project_box
from .objective import _kl_estimate, estimate_gradients, uniform_weights

__all__ = [
    "StepSchedule",
    "RMConfig",
    "RMTrace",
    "rm_minimize",
]

# most reduced-discrepancy and <u, Gamma u> values held for one block of
# divergence estimates: each of the two stays at 64 KB, below glibc's 128 KB
# mmap threshold, so the block's temporaries reuse heap memory instead of
# faulting in fresh pages at every flush
_PENDING_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class StepSchedule:
    """Decaying Robbins-Monro step ``a0 * n**(-decay)``, ``decay in (1/2, 1]``."""

    a0: float
    decay: float = 0.6

    def __post_init__(self) -> None:
        if not self.a0 > 0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if not 0.5 < self.decay <= 1.0:
            raise ValueError(
                f"decay must lie in (1/2, 1] for convergence, got {self.decay}"
            )

    def step_at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"iterations count from 1, got {n}")
        return self.a0 * float(n) ** (-self.decay)


@dataclass(frozen=True)
class RMConfig:
    iterations: int
    batch_size: int
    schedule: StepSchedule
    mean_bounds: tuple[float, float]
    cov_bounds: tuple[float, float]
    snapshot_every: int = 100

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.batch_size < 2:
            raise ValueError("covariance gradients need a batch of at least 2")
        for name, (lo, hi) in (("mean", self.mean_bounds), ("cov", self.cov_bounds)):
            if not lo < hi:
                raise ValueError(f"{name}_bounds must satisfy lo < hi, got ({lo}, {hi})")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")


@dataclass
class RMTrace:
    """Per-iteration diagnostics plus periodic parameter snapshots."""

    steps: list[int] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    dkl: list[float] = field(default_factory=list)
    dkl_stderr: list[float] = field(default_factory=list)
    mean_norm: list[float] = field(default_factory=list)
    cov_summary: list[float] = field(default_factory=list)
    proj_active: list[int] = field(default_factory=list)
    snapshot_steps: list[int] = field(default_factory=list)
    snapshot_means: list[np.ndarray] = field(default_factory=list)
    snapshot_covs: list[np.ndarray] = field(default_factory=list)

    def record(self, n: int, a_n: float, spec: GaussianSpec, proj: int) -> None:
        """Append one iteration's row except its divergence estimate, which
        ``_PendingEstimates.flush`` appends."""
        self.steps.append(n)
        self.step_sizes.append(a_n)
        self.mean_norm.append(math.sqrt(float(spec.ref.inner(spec.mean, spec.mean))))
        self.cov_summary.append(spec.cov.summary)
        self.proj_active.append(proj)

    def snapshot(self, n: int, spec: GaussianSpec) -> None:
        self.snapshot_steps.append(n)
        self.snapshot_means.append(spec.mean.copy())
        self.snapshot_covs.append(np.atleast_1d(np.asarray(spec.cov.theta,
                                                           dtype=float)).ravel().copy())

    def cut(self, n: int) -> None:
        """Drop the rows of iteration ``n`` on and the snapshots taken from ``n`` on."""
        for rows in (self.steps, self.step_sizes, self.dkl, self.dkl_stderr,
                     self.mean_norm, self.cov_summary, self.proj_active):
            del rows[n - 1:]
        kept = sum(step < n for step in self.snapshot_steps)
        for snaps in (self.snapshot_steps, self.snapshot_means, self.snapshot_covs):
            del snaps[kept:]


def _nonfinite(what: str, n: int, trace: RMTrace) -> NonFiniteObjectiveError:
    exc = NonFiniteObjectiveError(f"{what} became non-finite at iteration {n}")
    exc.trace = trace
    exc.iteration = n
    return exc


class _PendingEstimates:
    """The terms of the divergence estimates not yet in the trace.

    The descent step reads only the gradients, so the loop keeps each
    iteration's reduced discrepancies, ``<u, Gamma u>`` row and mean-shift
    term, and :meth:`flush` computes the estimates of up to ``capacity``
    iterations with one row-batched call.
    """

    def __init__(self, batch_size: int, weights: tuple[np.ndarray, np.ndarray]) -> None:
        self.capacity = max(1, _PENDING_ELEMENTS // (2 * batch_size))
        self.weights = weights
        self.delta0: list[np.ndarray] = []
        self.quad: list[np.ndarray] = []
        self.mean_shift: list[float] = []

    def add(self, grads) -> bool:
        """Keep one iteration's terms; true when the block is full."""
        self.delta0.append(grads.delta0)
        self.quad.append(grads.quad)
        self.mean_shift.append(grads.mean_shift)
        return len(self.delta0) == self.capacity

    def flush(self, trace: RMTrace) -> None:
        """Append the estimates of the recorded iterations to ``trace``.

        The pending rows follow the trace's last estimate; a row past its
        last recorded iteration belongs to an iteration that failed. If an
        estimate is non-finite, cut the trace back to the iterations before
        the first such one and raise its error.
        """
        if not self.delta0:
            return
        _, _, value, stderr = _kl_estimate(self.weights, np.array(self.delta0),
                                           np.array(self.quad), np.array(self.mean_shift))
        first = len(trace.dkl) + 1
        self.delta0, self.quad, self.mean_shift = [], [], []
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            n = first + int(bad[0])
            trace.cut(n)
            trace.dkl.extend(value[:n - first].tolist())
            trace.dkl_stderr.extend(stderr[:n - first].tolist())
            raise _nonfinite("divergence estimate", n, trace)
        recorded = len(trace.steps) - len(trace.dkl)
        trace.dkl.extend(value[:recorded].tolist())
        trace.dkl_stderr.extend(stderr[:recorded].tolist())


def rm_minimize(
    spec: GaussianSpec,
    problem,
    config: RMConfig,
    rng: np.random.Generator,
) -> tuple[GaussianSpec, RMTrace]:
    """Run the projected stochastic descent; returns the final fit and trace.

    Both parameters update from the same batch each iteration. The trace
    row for iteration ``n`` holds the divergence estimate at the incoming
    parameters and the projection activity of the outgoing update
    (bit 0: mean clamped, bit 1: covariance clamped).
    """
    trace = RMTrace()
    m_lo, m_hi = config.mean_bounds
    c_lo, c_hi = config.cov_bounds
    weights = uniform_weights(config.batch_size)
    pending = _PendingEstimates(config.batch_size, weights)
    trace.snapshot(0, spec)
    # a non-finite estimate or update raises below: numpy need not warn of
    # the overflow behind it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for n in range(1, config.iterations + 1):
                batch, coords = spec.cov.draw(spec.ref, rng, config.batch_size)
                grads = estimate_gradients(spec, problem, batch, coords, weights)
                full = pending.add(grads)
                a_n = config.schedule.step_at(n)

                raw_mean = spec.mean - a_n * spec.ref.apply_cov(grads.mean)
                cov_step = np.asarray(spec.cov.precondition(spec.ref, grads.cov))
                raw_cov = spec.cov.theta - a_n * cov_step
                if not (np.isfinite(raw_mean).all()
                        and (np.isfinite(raw_cov).all() if raw_cov.ndim
                             else math.isfinite(raw_cov))):
                    raise _nonfinite("parameter update", n, trace)
                new_mean, mean_active = project_box(raw_mean, m_lo, m_hi)
                new_cov, cov_active = spec.cov.project(raw_cov, c_lo, c_hi)

                proj = (1 if mean_active else 0) | (2 if cov_active else 0)
                trace.record(n, a_n, spec, proj)
                spec = GaussianSpec(new_mean, new_cov, spec.ref)
                if n % config.snapshot_every == 0 or n == config.iterations:
                    trace.snapshot(n, spec)
                if full:
                    pending.flush(trace)
            pending.flush(trace)
        except Exception:
            # an iteration checks its estimate before its update, so an
            # estimate that went non-finite by the failing iteration raises
            # in place of the error
            pending.flush(trace)
            raise
    return spec, trace
