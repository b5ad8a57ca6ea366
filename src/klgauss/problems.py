"""Target measures: potentials against the reference and their gradients.

Each problem defines ``phi(fields)`` (batched potential) and
``phi_and_grad(fields)``, which returns the potential (bit for bit ``phi``)
and its gradient from one pass over the batch: the fit needs both on every batch,
the chains only ``phi``. ``grad_phi(fields)`` is defined once, on the
shared base class, as the gradient ``phi_and_grad`` returns; the benchmark's
checks call it. A problem is its potential only: no command draws from a
target directly.
Gradients follow the package convention: they are fields paired with
directions through the weighted grid inner product ``ref.inner``, so every
quadrature weight is baked in and directional derivatives match finite
differences of ``phi`` to solver precision.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ScalarDoubleWell",
    "DarcyProblem",
    "synthesize_darcy_data",
    "darcy_true_field",
    "DiffusionProblem",
]


class _Problem:
    """``grad_phi`` for every problem, from its ``phi_and_grad``."""

    def grad_phi(self, fields: np.ndarray) -> np.ndarray:
        return self.phi_and_grad(fields)[1]


class ScalarDoubleWell(_Problem):
    """One-dimensional target ``exp(-V(x)/eps)`` with ``V = x^4 + x^2/2``.

    Against the unit-normal reference the potential is
    ``V(x)/eps - x^2/2``; at small ``eps`` the target is nearly
    ``N(0, eps)`` squeezed by the quartic term. The powers are products of
    ``x * x``: numpy hands ``x**4`` and ``x**3`` to the C library's ``pow``,
    many times slower than a multiply.
    """

    def __init__(self, eps: float):
        if not eps > 0:
            raise ValueError(f"temperature must be positive, got {eps}")
        self.eps = float(eps)
        self.dim = 1

    def phi(self, fields: np.ndarray) -> np.ndarray:
        x = np.asarray(fields, dtype=float)[..., 0]
        return self._phi(x * x)

    def phi_and_grad(self, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(fields, dtype=float)
        x2 = x * x
        return self._phi(x2[..., 0]), (4.0 * (x2 * x) + x) / self.eps - x

    def _phi(self, x2: np.ndarray) -> np.ndarray:
        half = 0.5 * x2
        return (x2 * x2 + half) / self.eps - half


# ---------------------------------------------------------------------------
# groundwater flow on the periodic grid


def darcy_true_field(n: int) -> np.ndarray:
    """The log-permeability ``2 sin(2 pi x)`` used to synthesize data."""
    return 2.0 * np.sin(2.0 * np.pi * np.arange(n) / n)


class DarcyProblem(_Problem):
    """Scalar pressure observations of one-dimensional groundwater flow.

    The log-permeability ``u`` lives on the periodic grid; the pressure
    solves ``-(exp(u) p')' = 0`` with ``p(0) = p_lo``, ``p(1) = p_hi``,
    which integrates to ``p(x) = p_lo + (p_hi - p_lo) J(x)/J(1)`` with
    ``J(x)`` the running integral of ``exp(-u)``. Under the trapezoid rule
    each observed ``J(x_o)`` and the total ``J(1)`` are fixed weighted sums
    of ``exp(-u)``, so ``observe``, ``phi`` and ``phi_and_grad`` read them with
    one product against a constant weight array (a row per observation
    point and one for the total); only ``forward`` builds the running
    integral at every node. ``phi`` is the squared misfit of pressure at the
    observation points against ``data``, scaled by the noise variance;
    ``grad_phi`` is its exact discrete adjoint (the derivative of the
    trapezoid-rule forward map, not a discretized continuum formula), so
    gradient checks hold to solver precision.
    """

    def __init__(
        self,
        n: int,
        noise: float,
        data: np.ndarray,
        obs_points: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8),
        pressures: tuple[float, float] = (0.0, 2.0),
    ):
        if not noise > 0:
            raise ValueError(f"noise level must be positive, got {noise}")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.noise = float(noise)
        self.obs_points = np.asarray(obs_points, dtype=float)
        if np.any(self.obs_points <= 0) or np.any(self.obs_points >= 1):
            raise ValueError("observation points must lie strictly inside (0, 1)")
        self.pressures = (float(pressures[0]), float(pressures[1]))
        self.data = np.asarray(data, dtype=float)
        if self.data.shape != self.obs_points.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{self.obs_points.size} observation points"
            )
        self.dim = self.n
        # interpolation cells and the static running-integral weight rows:
        # J(x_o) = h * (ctilde_o . exp(-u)) for every field u.
        scaled = self.obs_points * self.n
        cells = np.minimum(scaled.astype(int), self.n - 1)
        prof = np.zeros((self.obs_points.size, self.n))
        for o, (i, w) in enumerate(zip(cells, scaled - cells)):
            prof[o, 0] = 0.5
            prof[o, 1:i] = 1.0
            if i > 0:
                prof[o, i] = 0.5 * (1.0 + w)
            else:
                prof[o, 0] = 0.5 * w  # J(x_0) = 0: only the lerp toward J(x_1)
            if i + 1 < self.n:
                prof[o, i + 1] = 0.5 * w
            else:
                prof[o, 0] += 0.5 * w  # last cell closes on the periodic node
        self._profiles = prof
        # rows h * ctilde_o, then h * ones for the total J(1)
        self._weights = self.h * np.vstack([prof, np.ones(self.n)])

    # -- forward map ------------------------------------------------------

    def _observed(
        self, fields: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``e = exp(-u)``, the observed ``J(x_o)``, the total ``J(1)`` and the pressures.

        The integrals come from one contraction per row: einsum sums each row
        in the same order whatever the batch, where a BLAS product would not,
        so a row's value does not depend on the rows it is evaluated with.
        """
        e = np.exp(-np.asarray(fields, dtype=float))
        j = np.einsum("...j,kj->...k", e, self._weights)
        j_obs, total = j[..., :-1], j[..., -1]
        lo, hi = self.pressures
        return e, j_obs, total, lo + (hi - lo) * j_obs / total[..., None]

    def forward(self, fields: np.ndarray) -> np.ndarray:
        """Pressure at the grid nodes, shape ``fields.shape``, from the running integral."""
        e = np.exp(-np.asarray(fields, dtype=float))
        total = self.h * e.sum(axis=-1)
        nodes = np.zeros(e.shape)
        nodes[..., 1:] = np.cumsum(0.5 * self.h * (e[..., :-1] + e[..., 1:]), axis=-1)
        lo, hi = self.pressures
        return lo + (hi - lo) * nodes / total[..., None]

    def observe(self, fields: np.ndarray) -> np.ndarray:
        """Pressure at the observation points, from one weight product of ``exp(-u)``."""
        return self._observed(fields)[3]

    # -- potential and gradient -------------------------------------------

    def phi(self, fields: np.ndarray) -> np.ndarray:
        return self._phi(self._observed(fields)[3] - self.data)

    def phi_and_grad(self, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both from one ``exp`` and one weight product of the batch."""
        e, j_obs, total, pressure = self._observed(fields)
        misfit = pressure - self.data
        lo, hi = self.pressures
        r = misfit / self.noise**2
        common = (r * j_obs).sum(axis=-1) / total  # scalar part per field
        spread = r @ self._profiles  # (..., n)
        return self._phi(misfit), e * ((hi - lo) / total[..., None]) * (common[..., None] - spread)

    def _phi(self, misfit: np.ndarray) -> np.ndarray:
        return (misfit * misfit).sum(axis=-1) / (2.0 * self.noise**2)


def synthesize_darcy_data(
    n: int,
    noise: float,
    rng: np.random.Generator,
    obs_points: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8),
    pressures: tuple[float, float] = (0.0, 2.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy pressure observations of the sinusoidal true field.

    Returns ``(u_true, y)`` with ``y = p(x_obs; u_true) + noise * xi``.
    """
    u_true = darcy_true_field(n)
    clean = DarcyProblem(n, noise, np.zeros(len(obs_points)), obs_points, pressures)
    y = clean.observe(u_true) + noise * rng.standard_normal(len(obs_points))
    return u_true, y


# ---------------------------------------------------------------------------
# conditioned diffusion on the bridge


class DiffusionProblem(_Problem):
    """Double-well diffusion conditioned to run from 0 to 1 in unit time.

    Against the bridge reference with mean path ``t`` the Girsanov
    potential is ``(1/(4 eps^2)) * integral of (1 - w^2)^2``, evaluated by
    the trapezoid rule with the pinned boundary values ``w(0) = 0`` and
    ``w(1) = 1`` contributing their half-weights.
    """

    def __init__(self, eps: float, n: int):
        if not eps > 0:
            raise ValueError(f"temperature must be positive, got {eps}")
        self.eps = float(eps)
        self.n = int(n)
        self.h = 1.0 / (self.n + 1)
        self.dim = self.n

    def phi(self, fields: np.ndarray) -> np.ndarray:
        w = np.asarray(fields, dtype=float)
        return self._phi(w * w)

    def phi_and_grad(self, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = np.asarray(fields, dtype=float)
        w2 = w * w
        return self._phi(w2), w * (w2 - 1.0) / self.eps**2

    def _phi(self, w2: np.ndarray) -> np.ndarray:
        f = (1.0 - w2) ** 2
        # boundary terms: (1 - 0^2)^2 = 1 on the left, (1 - 1^2)^2 = 0 on the right
        return (self.h * (f.sum(axis=-1) + 0.5)) / (4.0 * self.eps**2)
