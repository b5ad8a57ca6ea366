"""Gaussian reference measures on one-dimensional grids.

Three reference families cover everything this package ships:

* :class:`ScalarReference` -- the standard normal on the real line
  (states are length-1 arrays so the optimizer and samplers stay
  dimension-agnostic).
* :class:`PeriodicReference` -- a mean-zero stationary Gaussian field on
  the unit circle, diagonal in the real Fourier basis with variances
  ``delta / (2 pi k)**2`` for wavenumber ``k``.
* :class:`BridgeReference` -- a Gaussian on paths pinned to zero at both
  ends of [0, 1] whose precision operator is ``-(1/2) d^2/dt^2``,
  discretised by centred differences on the interior nodes; its banded
  tridiagonal stencil makes every operation O(n).

Each reference owns its grid, its quadrature weight and the handful of
operations the rest of the package needs: exact centred sampling,
application of the covariance operator and of its inverse to a field, and
the grid inner product that makes discrete gradients exact adjoints of
discrete objectives. The Cameron-Martin norm ``|v|^2_{C0}`` is
``inner(v, precision_apply(v))``; nothing computes it another way.
"""

from __future__ import annotations

import numpy as np

from .sampling import sample_tridiagonal_precision

__all__ = [
    "ScalarReference",
    "PeriodicReference",
    "BridgeReference",
    "fourier_eigenvalues",
    "fourier_mode",
    "dirichlet_precision",
]


def fourier_eigenvalues(n_modes: int, scale: float) -> np.ndarray:
    """Covariance eigenvalues ``scale / (2 pi ceil(m/2))**2`` for modes 1..n_modes.

    Modes are numbered from 1; odd modes are sines, even modes cosines, and
    the pair (2k-1, 2k) shares wavenumber ``k``.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    if scale <= 0:
        raise ValueError(f"covariance scale must be positive, got {scale}")
    m = np.arange(1, n_modes + 1)
    k = (m + 1) // 2
    return scale / (2.0 * np.pi * k) ** 2


def fourier_mode(mode: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the ``mode``-th orthonormal Fourier basis function on ``x``.

    ``sqrt(2) sin(2 pi k x)`` for odd mode numbers, ``sqrt(2) cos(2 pi k x)``
    for even ones, with ``k = ceil(mode / 2)``.
    """
    if mode < 1:
        raise ValueError(f"mode numbers start at 1, got {mode}")
    k = (mode + 1) // 2
    phase = 2.0 * np.pi * k * np.asarray(x)
    if mode % 2 == 1:
        return np.sqrt(2.0) * np.sin(phase)
    return np.sqrt(2.0) * np.cos(phase)


def dirichlet_precision(n: int) -> np.ndarray:
    """Centred-difference matrix for ``-(1/2) d^2/dt^2`` on ``n`` interior nodes.

    The grid spacing is ``h = 1/(n+1)`` and both boundary values are held at
    zero, giving the tridiagonal stencil ``1/h^2`` on the diagonal and
    ``-1/(2 h^2)`` off it.
    """
    if n < 2:
        raise ValueError(f"need at least two interior nodes, got {n}")
    h = 1.0 / (n + 1)
    main = np.full(n, 1.0 / h**2)
    off = np.full(n - 1, -0.5 / h**2)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


class ScalarReference:
    """Standard normal reference on the real line (grid of one point)."""

    dim = 1
    quad_weight = 1.0

    def __init__(self) -> None:
        self.mean0 = np.zeros(1)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
        return (a * b).sum(axis=-1)

    def sample_centered(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal((size, 1))

    def apply_cov(self, field: np.ndarray) -> np.ndarray:
        return np.asarray(field, dtype=float).copy()

    def precision_apply(self, field: np.ndarray) -> np.ndarray:
        return np.asarray(field, dtype=float).copy()


class PeriodicReference:
    """Mean-zero Gaussian field on the unit circle, Fourier-diagonal.

    Parameters
    ----------
    n : int
        Number of equispaced nodes ``x_j = j/n`` in [0, 1).
    scale : float
        Overall covariance scale; the eigenvalue of wavenumber ``k`` is
        ``scale / (2 pi k)**2``.
    n_modes : int, optional
        Truncation of the expansion. Defaults to ``2 * ((n - 1) // 2)``,
        i.e. every complete sine/cosine pair below the grid Nyquist
        wavenumber. Larger values are rejected: the leftover Nyquist
        cosine is not orthonormal under the discrete inner product.

    The constant mode carries no variance and is excluded throughout:
    fields produced and consumed here live in the mean-zero span of the
    retained modes.
    """

    def __init__(self, n: int, scale: float, n_modes: int | None = None) -> None:
        if n < 4:
            raise ValueError(f"need at least 4 grid points, got {n}")
        max_modes = 2 * ((n - 1) // 2)
        if n_modes is None:
            n_modes = max_modes
        if not 2 <= n_modes <= max_modes:
            raise ValueError(
                f"n_modes must lie in [2, {max_modes}] for an {n}-point grid, got {n_modes}"
            )
        self.n = int(n)
        self.scale = float(scale)
        self.n_modes = int(n_modes)
        self.h = 1.0 / n
        self.x = np.arange(n) / n
        self.mean0 = np.zeros(n)
        self.lam2 = fourier_eigenvalues(self.n_modes, self.scale)
        self.lam = np.sqrt(self.lam2)
        # number of complete (sin, cos) wavenumber pairs retained
        self._pairs = self.n_modes // 2 + self.n_modes % 2

    @property
    def dim(self) -> int:
        return self.n

    @property
    def quad_weight(self) -> float:
        return self.h

    def inner(self, a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
        return self.h * (a * b).sum(axis=-1)

    def coeffs(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of ``u`` in the orthonormal basis, modes 1..n_modes.

        Layout interleaves parities: ``[sin_1, cos_1, sin_2, cos_2, ...]``.
        Accepts batches along leading axes.
        """
        u = np.asarray(u, dtype=float)
        spec = np.fft.rfft(u, axis=-1)
        k_hi = self._pairs
        cos = np.sqrt(2.0) * spec[..., 1 : k_hi + 1].real / self.n
        sin = -np.sqrt(2.0) * spec[..., 1 : k_hi + 1].imag / self.n
        out = np.empty(u.shape[:-1] + (2 * k_hi,), dtype=float)
        out[..., 0::2] = sin
        out[..., 1::2] = cos
        return out[..., : self.n_modes]

    def synth(self, v: np.ndarray) -> np.ndarray:
        """Evaluate the field with coefficient vector ``v`` on the grid."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} coefficients, got {v.shape[-1]}")
        sin, cos = v[..., 0::2], v[..., 1::2]
        spec = np.zeros(v.shape[:-1] + (self.n // 2 + 1,), dtype=complex)
        # times 1/sqrt(2) rather than divided by it: that is how numpy divides
        # a complex by a real, so this rounds as a complex spectrum would
        r = 1.0 / np.sqrt(2.0)
        spec.real[..., 1 : cos.shape[-1] + 1] = (self.n * cos) * r
        spec.imag[..., 1 : sin.shape[-1] + 1] = (self.n * -sin) * r
        return np.fft.irfft(spec, n=self.n, axis=-1)

    def sample_centered(self, rng: np.random.Generator, size: int) -> np.ndarray:
        xi = rng.standard_normal((size, self.n_modes))
        return self.synth(self.lam * xi)

    def apply_cov(self, field: np.ndarray) -> np.ndarray:
        """Apply the covariance operator (spectral multiplication by lam^2)."""
        return self.synth(self.coeffs(field) * self.lam2)

    def precision_apply(self, field: np.ndarray) -> np.ndarray:
        """Apply the inverse covariance to a field in the retained span."""
        return self.synth(self.coeffs(field) / self.lam2)


class BridgeReference:
    """Boundary-pinned Gaussian on (0, 1) with precision ``-(1/2) d^2/dt^2``.

    States are values at the ``n`` interior nodes ``t_i = i/(n+1)``; both
    endpoints are held at zero for centred fields. The covariance kernel is
    ``2 (min(s, t) - s t)`` -- twice the standard Brownian bridge. The
    stencil ``S`` of :func:`dirichlet_precision` is held in upper banded
    form with its banded Cholesky factor. The node Gaussian has precision
    ``h S`` (the density on node values picks up the quadrature weight);
    centred samples are drawn from it exactly by the banded sampler.

    Parameters
    ----------
    n : int
        Number of interior nodes, at least two.
    mean0 : ndarray, optional
        Reference mean on the interior nodes; defaults to zero. The
        conditioned-diffusion problem passes the straight line ``t``.
    """

    def __init__(self, n: int, mean0: np.ndarray | None = None) -> None:
        if n < 2:
            raise ValueError(f"need at least two interior nodes, got {n}")
        self.n = int(n)
        self.h = 1.0 / (n + 1)
        self.t = np.arange(1, n + 1) * self.h
        self._diag, self._off = 1.0 / self.h**2, -0.5 / self.h**2
        self._stencil = np.array([np.full(n, self._off), np.full(n, self._diag)])
        from scipy.linalg import cholesky_banded
        self._chol = cholesky_banded(self._stencil)
        if mean0 is None:
            mean0 = np.zeros(n)
        mean0 = np.asarray(mean0, dtype=float)
        if mean0.shape != (n,):
            raise ValueError(f"mean0 must have shape ({n},), got {mean0.shape}")
        self.mean0 = mean0

    @property
    def dim(self) -> int:
        return self.n

    @property
    def quad_weight(self) -> float:
        return self.h

    def inner(self, a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
        return self.h * (a * b).sum(axis=-1)

    def sample_centered(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_tridiagonal_precision(self.h * self._stencil, rng, size)

    def apply_cov(self, field: np.ndarray) -> np.ndarray:
        """Solve the precision stencil: node values of the covariance image."""
        from scipy.linalg import cho_solve_banded
        f = np.asarray(field, dtype=float)
        return cho_solve_banded((self._chol, False), f.reshape(-1, self.n).T).T.reshape(f.shape)

    def precision_apply(self, field: np.ndarray) -> np.ndarray:
        """Apply the stencil ``S`` along the last axis, zero beyond both ends."""
        f = np.asarray(field, dtype=float)
        padded = np.pad(f, [(0, 0)] * (f.ndim - 1) + [(1, 1)])
        return self._diag * f + self._off * (padded[..., :-2] + padded[..., 2:])

    def path_precision_banded(self, potential: np.ndarray | float, eps: float) -> np.ndarray:
        """``h (S + diag(b/(2 eps^2)))`` in upper banded form ``(2, n)``.

        The node precision (quadrature weight included) of the bridge measure
        with inverse covariance ``-(1/2) d^2/dt^2 + b/(2 eps^2)``, ``b`` scalar or per node.
        """
        out = self.h * self._stencil
        out[1] += self.h * np.asarray(potential, dtype=float) / (2.0 * eps**2)
        return out
