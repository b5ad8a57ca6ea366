"""The exact sampler for the bridge measures, below the reference and the families.

:func:`sample_tridiagonal_precision` draws every bridge measure exactly on the
grid: the banded Cholesky factor of its tridiagonal precision and one banded
triangular solve, O(n).

The periodic grid's finite-rank draws belong to their family,
:class:`klgauss.gaussians.FiniteRank`; ``sample_finite_rank`` lives beside it.

scipy is imported inside the function, so importing this module loads numpy
only; ``scipy.linalg`` loads on the first banded draw.
"""

from __future__ import annotations

import numpy as np

from .errors import NotACovarianceError

__all__ = [
    "sample_tridiagonal_precision",
]


def sample_tridiagonal_precision(
    banded: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Centred draws, shape ``(size, n)``, with tridiagonal SPD precision ``P``.

    ``banded`` is ``P`` in upper banded form ``(2, n)``, superdiagonal over
    diagonal. With ``P = U' U`` by banded Cholesky the draws are ``U^{-1} xi``
    for ``xi = rng.standard_normal((size, n))``, so their covariance is ``P^{-1}``.
    """
    from scipy.linalg import cholesky_banded, solve_banded
    try:
        factor = cholesky_banded(banded)
    except np.linalg.LinAlgError as exc:  # the class scipy.linalg raises
        raise NotACovarianceError(f"precision is not positive definite: {exc}") from exc
    xi = rng.standard_normal((size, factor.shape[1]))
    return solve_banded((0, 1), factor, xi.T, check_finite=False).T
