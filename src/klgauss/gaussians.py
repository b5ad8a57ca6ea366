"""Parameterized Gaussian fits against a reference measure.

A fit is a :class:`GaussianSpec`: a mean field, a covariance family, and
the reference measure both live against. Four covariance families are
supported, one per target problem:

* :class:`ScalarVariance` -- ``N(m, sigma^2)`` on the real line against the
  unit normal.
* :class:`FiniteRank` -- on the periodic grid, the first ``K`` expansion
  coefficients get covariance ``B @ B`` (``B`` symmetric positive definite)
  while the tail keeps the reference spectrum.
* :class:`ConstantPotential` -- bridge measure with inverse covariance
  ``-(1/2) d^2/dt^2 + B/(2 eps^2)`` for scalar ``B``.
* :class:`VariablePotential` -- same with a per-node potential ``b(t)``.

Each family class is the one place that knows its own math (see
:class:`_Family`); what depends only on the parameter value is computed
when the family is built. Callers apply a spec's family through its
methods, ``spec.cov.quad(spec.ref, u)`` and the like.
:class:`GaussianPotential` is the fit's potential used by
proposal-informed pCN; :func:`sample_finite_rank` draws from a bare
finite-rank factor through the family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union, get_args

import numpy as np

from .errors import NotACovarianceError
from .reference import BridgeReference, PeriodicReference, ScalarReference, _vector
from .sampling import sample_tridiagonal_precision

__all__ = [
    "ScalarVariance",
    "FiniteRank",
    "ConstantPotential",
    "VariablePotential",
    "CovParam",
    "FAMILIES",
    "REFERENCES",
    "GaussianSpec",
    "sample_centered",
    "project_box",
    "project_spd",
    "GaussianPotential",
    "sample_finite_rank",
]


def project_box(values, lo: float, hi: float):
    """Clip into ``[lo, hi]``; returns ``(projected, was_active)``.

    A scalar is clipped as a Python float; an array by
    ``np.minimum(np.maximum(...))``, which is ``np.clip`` without its
    Python-level wrapper. Both give ``np.clip``'s bits, NaN included.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        value = float(arr)
        out = min(max(value, lo), hi)
        return out, out != value
    out = np.minimum(np.maximum(arr, lo), hi)
    return out, bool((out != arr).any())


def project_spd(matrix: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Nearest symmetric matrix with spectrum in ``[lo, hi]`` (Frobenius).

    Symmetrizes, then clamps the eigenvalues: for symmetric input this is
    the exact Frobenius-norm projection onto ``{A = A', lo <= spec(A) <= hi}``.
    """
    return _clamp_spectrum(matrix, lo, hi)[0]


def _clamp_spectrum(matrix: np.ndarray, lo: float, hi: float):
    """:func:`project_spd` with the eigenpairs it built the result from:
    ``(projected, clamped eigenvalues, eigenvectors)``."""
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got ({lo}, {hi})")
    a = np.asarray(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(a)
    clipped = np.minimum(np.maximum(vals, lo), hi)  # np.clip without its wrapper
    out = (vecs * clipped) @ vecs.T
    return 0.5 * (out + out.T), clipped, vecs


class _Family:
    """What a covariance family knows; each subclass sets the attributes.

    ``reference`` is the reference class the family pairs with, ``spec_name``
    its ``family`` entry in a spec file and ``param`` the field the optimizer
    moves (:attr:`theta`). With ``ref`` the paired reference, a family has

    * ``draw(ref, rng, size)`` -- ``(u, a)``: centred draws ``u`` of shape
      ``(size, ref.dim)`` and their coordinates ``a = gamma_coords(ref, u)``,
      which the family has at hand while drawing (:class:`FiniteRank` returns
      the leading coefficients it synthesised ``u`` from);
    * ``quad(ref, u)`` -- ``<u, Gamma u>`` with ``Gamma = C^{-1} - C0^{-1}``,
      batched over rows of ``u``;
    * ``gamma_coords(ref, u)`` -- the coordinates of the rows of ``u`` that
      Gamma sees: the ``K`` leading coefficients for :class:`FiniteRank`, the
      rows themselves otherwise;
    * ``gamma_apply(ref, a)`` -- Gamma on coordinates, so that ``<u, Gamma v>``
      is the dot product of ``gamma_coords(ref, u)`` with
      ``gamma_apply(ref, gamma_coords(ref, v))``;
    * ``quad_coords(ref, a)`` -- ``<u, Gamma u>`` from ``a = gamma_coords(ref, u)``;
    * ``quad_derivative(ref, a)`` -- per-row derivative of ``-(1/2) <u, Gamma u>``
      in ``theta``, also from coordinates ``a`` of shape ``(B, ...)``;
    * ``precondition(ref, term)`` -- descent direction from a raw gradient;
    * ``project(raw, lo, hi)`` -- ``(family, was_active)``: the family at the
      projection of a raw update of ``theta``;
    * ``spec_fields()`` and ``from_spec_fields(fields)`` -- the spec-file
      entries after ``family``, in order.
    """

    @property
    def theta(self):
        """The raw parameter value the optimizer moves."""
        return getattr(self, self.param)

    @property
    def summary(self) -> float:
        """One scalar summarizing the parameter for trace output."""
        return self.theta

    def gamma_coords(self, ref, u: np.ndarray) -> np.ndarray:
        return u

    def quad(self, ref, u: np.ndarray) -> np.ndarray:
        return self.quad_coords(ref, self.gamma_coords(ref, u))

    def check(self, ref) -> None:
        """Raise ``ValueError`` unless the family can live on ``ref``."""
        if not isinstance(ref, self.reference):
            raise ValueError(
                f"{type(self).__name__} requires a {self.reference.__name__} reference, "
                f"got {type(ref).__name__}"
            )

    def precondition(self, ref, cov_term):
        """The identity, unless the family has a preconditioner of its own."""
        return float(cov_term)

    def project(self, raw, lo: float, hi: float):
        theta, active = project_box(raw, lo, hi)
        return replace(self, **{self.param: theta}), active


@dataclass(frozen=True)
class ScalarVariance(_Family):
    """Standard-deviation parameterization of a one-dimensional Gaussian."""

    sigma: float

    reference = ScalarReference
    spec_name = "scalar-variance"
    param = "sigma"

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise NotACovarianceError(f"sigma must be positive, got {self.sigma}")

    def draw(self, ref, rng: np.random.Generator, size: int):
        u = self.sigma * rng.standard_normal((size, 1))
        return u, u

    def gamma_apply(self, ref, a: np.ndarray) -> np.ndarray:
        return (1.0 / self.sigma**2 - 1.0) * a

    def quad_coords(self, ref, a: np.ndarray) -> np.ndarray:
        return (1.0 / self.sigma**2 - 1.0) * (a * a).sum(axis=-1)

    def quad_derivative(self, ref, a: np.ndarray) -> np.ndarray:
        return (a * a).sum(axis=-1) / self.sigma**3

    def spec_fields(self) -> dict:
        return {"sigma": self.sigma}

    @classmethod
    def from_spec_fields(cls, fields: dict[str, str]) -> "ScalarVariance":
        return cls(float(fields["sigma"]))


@dataclass(frozen=True)
class FiniteRank(_Family):
    """Symmetric factor ``B`` for the leading expansion coefficients.

    The coefficient covariance of the fitted measure is ``B @ B``; the
    reference spectrum is kept beyond rank ``K = B.shape[0]``. The factor's
    eigendecomposition is taken once, here, and must show it positive
    definite. Gamma acts on the ``K`` leading coefficients only, as the
    ``K x K`` block ``B^{-2} - diag(1/lam^2)``, built once per reference.
    """

    factor: np.ndarray

    reference = PeriodicReference
    spec_name = "finite-rank"
    param = "factor"

    def __post_init__(self) -> None:
        f = np.asarray(self.factor, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError(f"factor must be square, got shape {f.shape}")
        if not np.allclose(f, f.T, atol=1e-12 * max(1.0, np.abs(f).max())):
            raise ValueError("factor must be symmetric")
        self._hold(f, *np.linalg.eigh(f))

    def _hold(self, factor: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> None:
        """Keep ``factor`` with its eigenpairs, which must show it positive definite."""
        lo = float(values.min())
        if lo <= 0.0:
            raise NotACovarianceError(
                f"finite-rank factor must be positive definite; smallest eigenvalue is {lo:.6g}"
            )
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "_eig", (values, vectors))
        object.__setattr__(self, "_inv_sq", (vectors / values**2) @ vectors.T)  # B^{-2}

    @property
    def rank(self) -> int:
        return self.factor.shape[0]

    @property
    def summary(self) -> float:
        return float(np.linalg.norm(self.factor))

    def check(self, ref) -> None:
        super().check(ref)
        if self.rank > ref.n_modes:
            raise ValueError(f"rank {self.rank} exceeds the {ref.n_modes} retained modes")

    def draw(self, ref, rng: np.random.Generator, size: int):
        """Fields whose ``K`` leading coefficients are ``B xi`` and whose tail
        keeps the reference amplitudes, with those ``K`` coefficients."""
        k = self.rank
        xi = rng.standard_normal((size, ref.n_modes))
        coeffs = np.empty_like(xi)
        coeffs[:, :k] = xi[:, :k] @ self.factor.T
        coeffs[:, k:] = ref.lam[k:] * xi[:, k:]
        return ref.synth(coeffs), coeffs[:, :k]

    def _gamma_block(self, ref) -> np.ndarray:
        built = self.__dict__.get("_block")
        if built is None or built[0] is not ref:
            built = (ref, self._inv_sq - np.diag(1.0 / ref.lam2[: self.rank]))
            object.__setattr__(self, "_block", built)
        return built[1]

    def gamma_coords(self, ref, u: np.ndarray) -> np.ndarray:
        return ref.coeffs(u)[..., : self.rank]

    def gamma_apply(self, ref, a: np.ndarray) -> np.ndarray:
        return a @ self._gamma_block(ref)

    def quad_coords(self, ref, a: np.ndarray) -> np.ndarray:
        return np.einsum("...i,ij,...j->...", a, self._gamma_block(ref), a)

    def quad_derivative(self, ref, a: np.ndarray) -> np.ndarray:
        values, vectors = self._eig
        proj = a @ vectors
        inv = (proj * values**-1.0) @ vectors.T  # B^{-1} v
        inv_sq = (proj * values**-2.0) @ vectors.T  # B^{-2} v
        outer = np.einsum("bi,bj->bij", inv, inv_sq)
        return 0.5 * (outer + outer.transpose(0, 2, 1))

    def precondition(self, ref, cov_term) -> np.ndarray:
        """Scale by the smallest retained reference amplitude."""
        return ref.lam[ref.n_modes - 1] * np.asarray(cov_term, dtype=float)

    def project(self, raw, lo: float, hi: float):
        """Clamp the spectrum of the raw factor into ``[lo, hi]``.

        The new family keeps the clamp's own eigenpairs, so it needs no
        second eigendecomposition.
        """
        projected, values, vectors = _clamp_spectrum(raw, lo, hi)
        family = object.__new__(FiniteRank)
        family._hold(projected, values, vectors)
        scale = max(1.0, float(np.abs(raw).max()))
        return family, bool(np.abs(projected - raw).max() > 1e-12 * scale)

    def spec_fields(self) -> dict:
        return {"rank": self.rank, "factor": self.factor.ravel()}

    @classmethod
    def from_spec_fields(cls, fields: dict[str, str]) -> "FiniteRank":
        k = int(fields["rank"])
        return cls(_vector(fields["factor"]).reshape(k, k))


def sample_finite_rank(
    factor: np.ndarray,
    ref: PeriodicReference,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw fields whose first K expansion coefficients have covariance B @ B.

    Parameters
    ----------
    factor : ndarray, shape (K, K)
        Symmetric positive-definite factor ``B``; the coefficient block is
        ``B xi`` for standard normal ``xi``. Modes beyond K keep the
        reference amplitudes of ``ref``.
    ref : PeriodicReference
        Supplies the basis, the tail amplitudes and the synthesis FFT.
    size : int
        Number of independent fields; returned as shape ``(size, ref.n)``.

    The factor may be symmetric to 1e-10; it is symmetrized and every other
    check is left to the :class:`FiniteRank` family built from it, whose
    ``draw`` synthesises the fields.
    """
    factor = np.asarray(factor, dtype=float)
    if factor.shape == factor.T.shape:  # the family reports any other shape
        if not np.allclose(factor, factor.T, atol=1e-10 * max(1.0, np.abs(factor).max())):
            raise ValueError("factor must be symmetric")
        # symmetrized: the family holds factors symmetric to 1e-12, this check allows 1e-10
        factor = 0.5 * (factor + factor.T)
    family = FiniteRank(factor)
    family.check(ref)
    return family.draw(ref, rng, size)[0]


class _Potential(_Family):
    """Bridge families: precision ``h (S + diag(theta/(2 eps^2)))``."""

    reference = BridgeReference

    def draw(self, ref, rng: np.random.Generator, size: int):
        precision = ref.path_precision_banded(self.theta, self.eps)
        u = sample_tridiagonal_precision(precision, rng, size)
        return u, u

    def gamma_apply(self, ref, a: np.ndarray) -> np.ndarray:
        return (0.5 / self.eps**2) * ref.h * (self.theta * a)

    def quad_coords(self, ref, a: np.ndarray) -> np.ndarray:
        return (0.5 / self.eps**2) * ref.h * (self.theta * a * a).sum(axis=-1)


@dataclass(frozen=True)
class ConstantPotential(_Potential):
    """Constant added potential ``strength/(2 eps^2)`` on the bridge."""

    strength: float
    eps: float

    spec_name = "constant-potential"
    param = "strength"

    def __post_init__(self) -> None:
        if not self.strength > 0:
            raise NotACovarianceError(f"potential strength must be positive, got {self.strength}")
        if not self.eps > 0:
            raise ValueError(f"temperature must be positive, got {self.eps}")

    def quad_derivative(self, ref, a: np.ndarray) -> np.ndarray:
        return -(0.25 / self.eps**2) * ref.h * (a * a).sum(axis=-1)

    def spec_fields(self) -> dict:
        return {"eps": self.eps, "strength": self.strength}

    @classmethod
    def from_spec_fields(cls, fields: dict[str, str]) -> "ConstantPotential":
        return cls(float(fields["strength"]), float(fields["eps"]))


@dataclass(frozen=True)
class VariablePotential(_Potential):
    """Per-node added potential ``values(t)/(2 eps^2)`` on the bridge.

    ``smoothing`` is the strength of the inverse-Laplacian preconditioner
    applied to the potential gradient during optimization (left boundary
    insulated, right boundary pinned).
    """

    values: np.ndarray
    eps: float
    smoothing: float = 1e-2

    spec_name = "variable-potential"
    param = "values"

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"potential values must be a vector, got shape {v.shape}")
        if not (v > 0).all():
            raise NotACovarianceError(
                f"potential must be positive everywhere; min is {float(v.min()):.6g}"
            )
        if not self.eps > 0:
            raise ValueError(f"temperature must be positive, got {self.eps}")
        if not self.smoothing > 0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing}")
        object.__setattr__(self, "values", v)

    @property
    def summary(self) -> float:
        return float(self.values.mean())

    def check(self, ref) -> None:
        super().check(ref)
        if self.values.shape != (ref.dim,):
            raise ValueError(f"potential must have shape ({ref.dim},), got {self.values.shape}")

    def quad_derivative(self, ref, a: np.ndarray) -> np.ndarray:
        return -(0.25 / self.eps**2) * a * a

    def precondition(self, ref, cov_term) -> np.ndarray:
        """Smooth by an inverse Laplacian and add the current potential back."""
        smoother = np.array([np.full(ref.dim, -1.0), np.full(ref.dim, 2.0)])  # banded -d^2/dt^2
        smoother[1, 0] = 1.0  # insulated (Neumann) left end; the right end stays pinned
        from scipy.linalg import solveh_banded
        return solveh_banded(self.smoothing / ref.h**2 * smoother, cov_term) + self.values

    def spec_fields(self) -> dict:
        return {"eps": self.eps, "smoothing": self.smoothing, "potential": self.values}

    @classmethod
    def from_spec_fields(cls, fields: dict[str, str]) -> "VariablePotential":
        return cls(_vector(fields["potential"]), float(fields["eps"]),
                   smoothing=float(fields["smoothing"]))


CovParam = Union[ScalarVariance, FiniteRank, ConstantPotential, VariablePotential]

FAMILIES: dict[str, type] = {cls.spec_name: cls for cls in get_args(CovParam)}
REFERENCES: dict[str, type] = {cls.reference.spec_name: cls.reference
                               for cls in get_args(CovParam)}


@dataclass(frozen=True)
class GaussianSpec:
    """A Gaussian fit: mean field, covariance family, reference."""

    mean: np.ndarray
    cov: CovParam
    ref: ScalarReference | PeriodicReference | BridgeReference

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        if m.shape != (self.ref.dim,):
            raise ValueError(f"mean must have shape ({self.ref.dim},), got {m.shape}")
        object.__setattr__(self, "mean", m)
        self.cov.check(self.ref)


def sample_centered(spec: GaussianSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` centred fields from the fitted covariance, shape (size, dim)."""
    return spec.cov.draw(spec.ref, rng, size)[0]


# ---------------------------------------------------------------------------
# Gaussian potential for proposal-informed pCN


class GaussianPotential:
    """The fit's potential against the reference, batched over rows of ``u``.

    ``phi_nu(u) = -<w, shift> + (1/2) <w, Gamma w> + const`` with ``w = u - m``,
    ``shift = C0^{-1}(m - m0)`` and ``const = -(1/2) <m - m0, shift>``, that
    is ``-(1/2) |m - m0|^2_{C0}`` -- the log-density of the reference
    relative to the fit, up to the (dropped) normalizing constants.
    ``shift`` and ``const`` are computed once here; a chain started on a fit
    whose ``const`` overflows fails on its non-finite start, so numpy need
    not warn of the overflow.
    """

    def __init__(self, spec: GaussianSpec) -> None:
        ref = spec.ref
        self.spec = spec
        with np.errstate(over="ignore", invalid="ignore"):
            self.shift = ref.precision_apply(spec.mean - ref.mean0)
            self.const = -0.5 * float(ref.inner(spec.mean - ref.mean0, self.shift))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        spec = self.spec
        w = np.asarray(u, dtype=float) - spec.mean
        return -spec.ref.inner(w, self.shift) + 0.5 * spec.cov.quad(spec.ref, w) + self.const

    def innovation_terms(self, xi: np.ndarray):
        """``(<xi, shift>, gamma_coords(xi), <xi, Gamma xi>)`` for each row of ``xi``.

        These are the parts of ``phi_nu`` at a pCN proposal
        ``w = c (u - m) + beta xi`` that do not depend on the state ``u``.
        """
        cov, ref = self.spec.cov, self.spec.ref
        # a copy when the coordinates are a slice of a larger transform, which
        # must not stay alive for the whole block
        coords = np.ascontiguousarray(cov.gamma_coords(ref, xi))
        return ref.quad_weight * (xi @ self.shift), coords, cov.quad_coords(ref, coords)
