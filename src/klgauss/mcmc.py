"""Preconditioned Crank-Nicolson sampling around a Gaussian proposal base.

``run_chain`` drives the classic pCN kernel

    v = mean + sqrt(1 - beta^2) (u - mean) + beta * xi,

with ``xi`` a centred draw from the proposal covariance, accepting with
probability ``min(1, exp(pot(u) - pot(v)))``. Used with the reference
measure and the target's potential this is plain pCN; used with a fitted
Gaussian and the *residual* potential (target potential minus the fit's
Gaussian potential) it is the proposal-informed variant, which degenerates
to an independence sampler at ``beta = 1``.

The chain prefetches (Brockwell 2006, J. Comput. Graph. Stat. 15:246): it
assumes the outcome of the next few steps, builds the proposals that
outcome leads to as one *window*, evaluates their potentials in one call
and scans the rows, as plain floats, in order. The first row that goes the
other way ends the window; the rows after it were built on the wrong
outcome and are thrown away unscanned. Each row is built with the step's
own expression from the state the step would start at, so every row the
scan reaches is bit for bit the step-by-step chain's proposal.

A window assumes one of two outcomes. While proposals are rejected the
state does not move, so a window that assumes rejects proposes every row
from the current state; an accept ends it. It starts at one row and doubles
after each window in which every row was rejected. Right after an accept a
window assumes accepts instead: row ``r`` is proposed from row ``r - 1``,
and a reject or a non-finite potential ends it. It doubles after each
window in which every row was accepted and halves after one that a reject
ended. That reject is the first of a new run of rejects, so the next window
assumes rejects with two rows, as after a rejected one-row window: a chain
that seldom accepts makes no more calls than one whose every accept ends
its window. Neither kind reaches past the current innovation block, so the
block's element budget still bounds memory. A ``beta = 0.6`` Darcy chain
that accepts 7.5% of its proposals makes about one call per 3.6 steps; one
that accepts 85% makes one per 2.7 steps, against one per step when every
accept ended its window, and scores about 1.6 rows per step.

At ``beta = 1`` proposals do not depend on the state at all, so a whole
innovation block is scored with one call and decided before its first
step is taken: its rows, potentials and log uniforms are all known. One
array comparison, ``log_u[r] < pot[r - 1] - pot[r]``, decides each row
that follows an accept; the rows that fail it end the runs of accepts, and
a search of those failures finds each run's end. Only the rows after a
reject are compared one at a time, against the potential held, until the
next accept. Where more than one row in eight fails the comparison, runs
of accepts are too short for the search to pay, and every row is compared
in turn. The accepts, the held states, the probes and the counts then
take a few array operations per block, so the Python work of an
accept-heavy block grows with its rejects, not with its steps.

Below ``beta = 1`` an accept costs the scan no array work: it notes the
accepted row and the step at which the new run of equal states starts.
After each window the accepted rows are copied, with one fancy index, into
a fixed buffer of held states, so that no state keeps its window's array
alive; a ``beta = 1`` block copies its accepts the same way. Whenever the
buffer is full, and once at the end, the node moments take the held runs
with one weighted product each, the weights being the runs' post-burn
lengths. The buffer follows an element budget of its own, so the sums do
not depend on the innovation block size.

The informed chain never evaluates the Gaussian part of its residual
potential on a proposal. The proposal's offset from the fit's mean,
``w = c d + beta xi`` with ``d = u - mean``, is linear, so ``<w, shift>`` and
``<w, Gamma w>`` split into terms of the innovation ``xi``, computed once per
innovation block, terms of ``d``, carried with the state and replaced from
the proposal's own on accept, and the cross term ``<xi, Gamma d>``, one
short dot product per step. At ``beta = 1`` the terms of ``d`` drop out and
the Gaussian part is subtracted from the whole block at once. Only the
target's ``phi`` runs on each proposal. ``fit_chain`` passes the fit's
:class:`~klgauss.gaussians.GaussianPotential` as ``gaussian=``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NonFiniteObjectiveError
from .gaussians import GaussianPotential, GaussianSpec, sample_centered

__all__ = [
    "ChainConfig",
    "ChainDiag",
    "run_chain",
    "reference_chain",
    "fit_chain",
    "autocovariance",
    "iact",
    "expected_acceptance",
    "acceptance_lower_bound",
]

_CHUNK = 8192  # most innovation rows drawn at once
_BLOCK_ELEMENTS = 1 << 20  # most innovation values drawn at once, whatever the dim
_HELD_ELEMENTS = 1 << 16  # most accepted-state values held between two moment updates


@dataclass(frozen=True)
class ChainConfig:
    steps: int
    beta: float
    thin: int = 100
    probe_index: int | None = None
    burn_frac: float = 0.0
    max_lag: int = 100

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if not 0.0 <= self.burn_frac < 1.0:
            raise ValueError(f"burn_frac must lie in [0, 1), got {self.burn_frac}")
        if self.max_lag < 1:
            raise ValueError("max_lag must be positive")


@dataclass
class ChainDiag:
    """Summary of one chain run.

    ``probe`` holds the probe coordinate at every ``thin``-th step together
    with the cumulative acceptance count at that moment (``accepts_cum``).
    ``node_mean``/``node_var`` average the state over every post-burn step,
    summed as runs of equal states weighted by their post-burn lengths.
    ``final_potential`` is the acceptance potential the chain holds for
    ``final_state``. ``potential_calls`` and ``potential_rows`` count the
    calls of the potential and the rows they scored, the start's one row
    and the rows a window drops unscanned included.
    """

    steps: int
    burn: int
    acceptance_rate: float
    probe_steps: np.ndarray
    probe: np.ndarray
    accepts_cum: np.ndarray
    node_mean: np.ndarray
    node_var: np.ndarray
    nonfinite_proposals: int
    potential_calls: int
    potential_rows: int
    final_state: np.ndarray
    final_potential: float

    @property
    def probe_post_burn(self) -> np.ndarray:
        return self.probe[self.probe_steps > self.burn]


class _HeldStates:
    """Node moments of a chain, added a group of held states at a time.

    Each state the chain accepts is copied into one fixed ``(G, dim)`` buffer,
    together with the step at which its run of equal states started. Once
    the buffer is full and the start of the next run is known, the group is
    added with one weighted product per moment, the weights being the
    post-burn lengths of the runs read off consecutive run starts. ``G``
    follows an element budget of its own, so the grouping depends only on
    the number of accepts, not on the innovation block size.
    """

    def __init__(self, first: np.ndarray, burn: int):
        dim = first.size
        size = max(1, _HELD_ELEMENTS // dim)
        self.rows = np.empty((size, dim))
        # the step each held run starts at, and a slot for the next run's start
        self.starts = np.empty(size + 1, dtype=np.int64)
        self.rows[0], self.starts[0], self.held = first, 1, 1
        self.first_kept = burn + 1
        self.node_sum = np.zeros(dim)
        self.node_sq = np.zeros(dim)

    def hold(self, source: np.ndarray, taken: list[int] | np.ndarray,
             first_step: int) -> np.ndarray:
        """Hold rows ``taken`` of ``source``; row ``r`` was proposed at step ``first_step + r``.

        An accepted row's run starts at the step it was proposed at. Returns
        the held copy of the last row: it stays in place until the chain has
        accepted another state.
        """
        size = len(self.rows)
        j = 0
        while j < len(taken):
            if self.held == size:
                self.flush(first_step + taken[j])
            k = min(size - self.held, len(taken) - j)
            if k == 1:  # a lone row, as at the accept that ends a window: no index array
                self.rows[self.held] = source[taken[j]]
                self.starts[self.held] = first_step + taken[j]
            else:
                part = np.asarray(taken[j: j + k])
                self.rows[self.held: self.held + k] = source[part]
                self.starts[self.held: self.held + k] = first_step + part
            self.held += k
            j += k
        return self.rows[self.held - 1]

    def flush(self, next_start: int) -> None:
        """Add the held runs; the run after the last one starts at ``next_start``."""
        self.starts[self.held] = next_start
        weights = np.diff(np.maximum(self.starts[: self.held + 1], self.first_kept))
        rows = self.rows[: self.held]
        self.node_sum += weights @ rows
        self.node_sq += weights @ (rows * rows)
        self.held = 0


def _propose_in_turn(rows: np.ndarray, state: np.ndarray, mean: np.ndarray,
                     contract: float) -> None:
    """Turn scaled innovation rows into proposals made in turn, as if each is accepted.

    Row ``r`` becomes the proposal from row ``r - 1``, row 0 the one from
    ``state``. Each row takes the expression of a proposal from a held
    state, so it is bit for bit the step-by-step chain's proposal. The loop
    has a function of its own so that no view of ``rows`` outlives the call.
    """
    prev = state
    for row in rows:
        row += mean + contract * (prev - mean)
        prev = row


def _scores(potential: Callable[[np.ndarray], np.ndarray], fields: np.ndarray) -> np.ndarray:
    """The potential of each row of ``fields``, checked to be one value per row."""
    pot = np.asarray(potential(fields), dtype=float)
    if pot.shape != (len(fields),):
        raise ValueError(f"the potential returned shape {pot.shape} for fields of shape "
                         f"{fields.shape}; it must return shape {(len(fields),)}")
    return pot


def _independent_accepts(pot: np.ndarray, log_u: np.ndarray, pot_state: float) -> np.ndarray:
    """The rows a ``beta = 1`` block accepts, in order, as an index array.

    ``pot`` holds the rows' acceptance potentials, with ``+inf`` for the
    non-finite ones so that no comparison accepts them, ``log_u`` their log
    uniforms and ``pot_state`` the potential held before row 0. The module
    docstring gives the method. Every comparison is the step-by-step chain's
    own ``log_u < held - pot``; ``pot + log_u < held`` rounds differently.
    """
    rows = len(pot)
    # the rows r >= 1 that are rejected if row r - 1 is accepted
    fails = np.flatnonzero(~(log_u[1:] < pot[:-1] - pot[1:])) + 1
    if 8 * fails.size > rows:  # runs of accepts too short for the search to pay
        held, taken = pot_state, []
        pot, log_u = pot.tolist(), log_u.tolist()
        for i in range(rows):
            if log_u[i] < held - pot[i]:
                held = pot[i]
                taken.append(i)
        return np.array(taken, dtype=np.intp)
    fails = fails.tolist() + [rows]
    starts, ends = [], []  # the runs of accepts
    held, i, j = pot_state, 0, 0
    while True:
        for i in range(i, rows):  # the block's first row, or the rows after a reject
            if log_u[i] < held - pot[i]:
                break
        else:
            break
        j = bisect_left(fails, i + 1, j)  # the run from the accept on row i ends there
        end = fails[j]
        starts.append(i)
        ends.append(end)
        if end == rows:
            break
        held, i = pot[end - 1], end + 1
    # +1 where a run starts, -1 where it ends: the running sum marks the accepts
    edges = np.zeros(rows + 1, dtype=np.int8)
    edges[starts] = 1
    edges[ends] = -1
    return np.flatnonzero(np.cumsum(edges[:-1]))


def run_chain(
    potential: Callable[[np.ndarray], np.ndarray],
    mean: np.ndarray,
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    config: ChainConfig,
    rng: np.random.Generator,
    gaussian=None,
) -> ChainDiag:
    """Run a pCN chain started at the proposal mean.

    ``potential`` must map a batch of fields ``(B, dim)`` to ``(B,)``; any
    other shape raises ``ValueError`` rather than being broadcast into the
    decisions. ``sampler(rng, size)`` must return centred proposal
    innovations ``(size, dim)``. A
    proposal whose potential is not finite is rejected and counted; a
    potential that is not finite at ``mean`` raises
    :class:`~klgauss.errors.NonFiniteObjectiveError`.
    ``gaussian``, if given, is the Gaussian potential of the fit centred at
    ``mean`` (a :class:`~klgauss.gaussians.GaussianPotential`); the
    chain then accepts on ``potential - gaussian``, with the Gaussian part
    carried as the module docstring describes.
    """
    mean = np.asarray(mean, dtype=float)
    if gaussian is not None and not np.array_equal(gaussian.spec.mean, mean):
        raise ValueError("the Gaussian potential is centred away from the chain's mean")
    dim = mean.size
    probe_index = config.probe_index if config.probe_index is not None else dim // 2
    if not 0 <= probe_index < dim:
        raise ValueError(f"probe index {probe_index} out of range for dim {dim}")
    burn = int(config.burn_frac * config.steps)
    noise_rng, accept_rng = rng.spawn(2)
    chunk = min(_CHUNK, max(1, _BLOCK_ELEMENTS // dim))

    state = mean.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite start raises below
        pot_state = float(_scores(potential, state[None])[0])
    if gaussian is not None:
        pot_state -= gaussian.const  # the Gaussian part at its own mean
    if not np.isfinite(pot_state):
        raise NonFiniteObjectiveError("potential is not finite at the proposal mean")

    held = _HeldStates(state, burn)
    thin, state_probe = config.thin, float(state[probe_index])
    records: list[float] = []  # step, probe value and accepts so far, per probe
    accepted = 0
    nonfinite = 0

    # plain floats: numpy scalars would slow the per-step arithmetic below
    contract, beta = float(np.sqrt(1.0 - config.beta**2)), float(config.beta)
    independent = config.beta == 1.0  # proposals do not depend on the state
    carried = gaussian is not None and not independent
    if carried:
        cov, ref, const = gaussian.spec.cov, gaussian.spec.ref, gaussian.const
        gamma_apply = cov.gamma_apply
        cc, cb2, bb = contract * contract, 2.0 * contract * beta, beta * beta
        # <d, shift>, <d, Gamma d> and Gamma d (in Gamma's coordinates), d = state - mean
        s_d = q_d = 0.0
        g_d = np.zeros_like(cov.gamma_coords(ref, mean))
    window = 1  # rows of the next window that assumes rejects
    ahead = 1  # rows of the next window that assumes accepts
    accepting = False  # whether the next window assumes accepts
    calls = rows_scored = 1  # the potential at the start
    step = 0
    # a non-finite proposal, potential or Gaussian term is a rejected proposal:
    # numpy need not warn of the overflow behind it
    with np.errstate(over="ignore", invalid="ignore"):
        while step < config.steps:
            proposals = None  # the last block's proposals go before the next block is drawn
            block = min(chunk, config.steps - step)
            xi = sampler(noise_rng, block)
            log_u = np.log(accept_rng.random(block))
            if gaussian is not None:
                s_xi, a_xi, q_xi = gaussian.innovation_terms(xi)
            if independent:
                # the whole block is one window, scored with one call and decided
                # with array comparisons
                proposals = beta * xi
                proposals += mean + contract * (state - mean)
                pot = _scores(potential, proposals)
                calls += 1
                rows_scored += block
                if gaussian is not None:
                    pot = pot - (-s_xi + 0.5 * q_xi + gaussian.const)
                finite = np.isfinite(pot)
                nonfinite += block - int(np.count_nonzero(finite))
                pot = np.where(finite, pot, np.inf)  # never accepted
                accepts = _independent_accepts(pot, log_u, pot_state)
                first_step = step + 1  # the step that row 0 is proposed at
                # the probe after each accept, led by the one held before the block
                probes = np.concatenate(([state_probe], proposals[accepts, probe_index]))
                if accepts.size:
                    # held copies, so that no state keeps the block's array alive
                    state = held.hold(proposals, accepts, first_step)
                    pot_state, state_probe = float(pot[accepts[-1]]), float(probes[-1])
                probe_steps = np.arange(-(-first_step // thin) * thin, step + block + 1, thin)
                # the accepts up to each probed step
                upto = np.searchsorted(accepts, probe_steps - first_step, side="right")
                records += np.column_stack(
                    (probe_steps, probes[upto], accepted + upto)).ravel().tolist()
                accepted += accepts.size
                step += block
                continue
            log_u = log_u.tolist()
            if carried:
                s_xi, q_xi = s_xi.tolist(), q_xi.tolist()
            lo = 0
            while lo < block:
                hi = min(lo + (ahead if accepting else window), block)
                # the innovation part first, the state's added in place: one array of
                # the window's size is made, not two
                proposals = beta * xi[lo:hi]
                if accepting:
                    _propose_in_turn(proposals, state, mean, contract)
                else:
                    # each row is a proposal from the state, as if the rows before it
                    # were rejected
                    proposals += mean + contract * (state - mean)
                pot_window = _scores(potential, proposals).tolist()
                calls += 1
                rows_scored += hi - lo
                probe_window = proposals[:, probe_index].tolist()
                taken: list[int] = []  # accepted rows of the window
                first_step = step + 1  # the step that row 0 of the window is proposed at
                for i in range(lo, hi):
                    step += 1
                    pot_prop = pot_window[i - lo]
                    if carried:
                        s_w = contract * s_d + beta * s_xi[i]
                        q_w = cc * q_d + cb2 * float(a_xi[i].dot(g_d)) + bb * q_xi[i]
                        pot_prop -= -s_w + 0.5 * q_w + const
                    if not math.isfinite(pot_prop):
                        nonfinite += 1
                        ends = accepting
                    elif log_u[i] < pot_state - pot_prop:
                        pot_state = pot_prop
                        state_probe = probe_window[i - lo]
                        taken.append(i - lo)
                        accepted += 1
                        if carried:
                            s_d, q_d = s_w, q_w
                            g_d = contract * g_d + beta * gamma_apply(ref, a_xi[i])
                        ends = not accepting  # the outcome the window was not built on
                    else:
                        ends = accepting
                    if step % thin == 0:
                        records += step, state_probe, accepted
                    if ends:
                        break  # the rest of the window was built on the other outcome
                if taken:
                    # held copies, so that no state keeps the window's array alive
                    state = held.hold(proposals, taken, first_step)
                lo = i + 1
                if not ends:  # every row went as the window assumed
                    if accepting:
                        ahead = min(2 * ahead, chunk)
                    else:
                        window = min(2 * window, chunk)
                elif accepting:
                    # a reject ends the run of accepts; it is the first of a run of
                    # rejects, as a one-row window that assumes rejects would be
                    ahead = max(1, ahead // 2)
                    window = min(2, chunk)
                    accepting = False
                else:
                    accepting = True
    held.flush(config.steps + 1)

    count = config.steps - burn
    node_mean = held.node_sum / count
    node_var = held.node_sq / count - node_mean**2
    probes = np.array(records, dtype=float).reshape(-1, 3)
    return ChainDiag(
        steps=config.steps,
        burn=burn,
        acceptance_rate=accepted / config.steps,
        probe_steps=probes[:, 0].astype(int),
        probe=probes[:, 1],
        accepts_cum=probes[:, 2].astype(int),
        node_mean=node_mean,
        node_var=np.maximum(node_var, 0.0),
        nonfinite_proposals=nonfinite,
        potential_calls=calls,
        potential_rows=rows_scored,
        final_state=state.copy(),
        final_potential=pot_state,
    )


def reference_chain(problem, ref, config: ChainConfig,
                    rng: np.random.Generator) -> ChainDiag:
    """Plain pCN: reference-measure proposals, full target potential."""
    return run_chain(problem.phi, ref.mean0, ref.sample_centered, config, rng)


def fit_chain(problem, spec: GaussianSpec, config: ChainConfig,
              rng: np.random.Generator) -> ChainDiag:
    """Proposal-informed pCN around a fitted Gaussian.

    Accepts on the residual potential, the target's ``phi`` minus the fit's
    :class:`~klgauss.gaussians.GaussianPotential`, with its Gaussian part
    computed per innovation block and carried per state rather than
    evaluated per step.
    """
    return run_chain(problem.phi, spec.mean, partial(sample_centered, spec), config, rng,
                     gaussian=GaussianPotential(spec))


# ---------------------------------------------------------------------------
# chain diagnostics


def autocovariance(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (1/N) autocovariance of a scalar series for lags 0..max_lag."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two points")
    max_lag = min(max_lag, n - 1)
    x = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1] / n
    return acov


def iact(series: np.ndarray, max_lag: int = 100) -> float:
    """Integrated autocorrelation time ``1 + 2 sum rho_k``.

    The sum runs until the first negative autocorrelation (or ``max_lag``),
    the usual initial-positive-sequence truncation.
    """
    acov = autocovariance(series, max_lag)
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    total = 0.0
    for k in range(1, len(rho)):
        if rho[k] < 0:
            break
        total += rho[k]
    return 1.0 + 2.0 * total


def expected_acceptance(log_ratios: np.ndarray) -> float:
    """Monte Carlo mean of ``min(1, exp(Y))`` from log-ratio samples."""
    y = np.asarray(log_ratios, dtype=float)
    return float(np.mean(np.exp(np.minimum(y, 0.0))))


def acceptance_lower_bound(log_ratios: np.ndarray, gamma: float) -> float:
    """Lower bound ``exp(-gamma) (1 - E|Y|/gamma)`` on the mean acceptance.

    Valid for any ``gamma > 0`` whenever the log acceptance ratio ``Y``
    has ``E[Y] >= 0`` under proposal-from-target sampling; tight as the
    fit approaches the target (``E|Y| -> 0``).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    y = np.asarray(log_ratios, dtype=float)
    return float(np.exp(-gamma) * (1.0 - np.mean(np.abs(y)) / gamma))
