"""Backward-retrieval efficiency kernel and its dominant eigenmode.

The retrieval efficiency of a spin wave S(zeta) is a quadratic form with a
real symmetric positive kernel that depends only on the optical depth:

    k(zeta, zeta') = (d/2) exp(-d (1 - (zeta + zeta')/2))
                     * I0(d sqrt((1 - zeta)(1 - zeta')))

Maximizing the form over unit-norm spin waves is a symmetric eigenproblem;
the optimal spin wave is the (positive) dominant eigenvector and the largest
eigenvalue is the maximum retrieval efficiency at that depth.  Every route
reads a low-rank pivoted-Cholesky factor of the kernel, not the dense matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0e

from .core import GridError, SpaceGrid, SpinWave

__all__ = ["kernel_eval", "retrieval_efficiency", "optimal_spin_wave"]

DEFAULT_NODES = 200

# the kernel's factor stops once the trace it leaves out is at most this share
_FACTOR_TOL = 2.0**-52


def kernel_eval(d, zeta, zeta_p):
    """Evaluate the retrieval kernel, stably for any optical depth.

    The naive product exp(...) * I0(...) overflows near zeta = zeta' = 0 once
    d is a few hundred, so the Bessel factor is evaluated in exponentially
    scaled form and recombined as

        (d/2) * i0e(x) * exp(-d (sqrt(u) - sqrt(v))^2 / 2)

    with u = 1 - zeta, v = 1 - zeta', x = d sqrt(u v); the identity is exact.
    Accepts scalars or broadcastable arrays.
    """
    d = np.asarray(d, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    zeta_p = np.asarray(zeta_p, dtype=float)
    if np.any(zeta < 0) or np.any(zeta > 1) or np.any(zeta_p < 0) or np.any(zeta_p > 1):
        raise ValueError("zeta arguments must lie in [0, 1]")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("optical depth must be finite and > 0")
    out = _kernel_of_roots(d, np.sqrt(1.0 - zeta), np.sqrt(1.0 - zeta_p))
    if out.ndim == 0:
        return float(out)
    return out


def _kernel_of_roots(d, su, sv):
    """The kernel at su = sqrt(1 - zeta), sv = sqrt(1 - zeta'); nothing is checked."""
    return 0.5 * d * i0e(su * (d * sv)) * np.exp(-0.5 * d * (su - sv) ** 2)


def _kernel_factor(d: float, grid: SpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Rows f (k x n) with f.T @ f = B - R, and sqrt(w).

    B_ij = sqrt(w_i) k(z_i, z_j) sqrt(w_j) is the symmetric Nystrom matrix and
    R is positive semidefinite with trace(R) <= _FACTOR_TOL trace(B).  Each row
    of diagonally pivoted Cholesky (Harbrecht, Peters & Schneider, Appl. Numer.
    Math. 62, 2012) reads one kernel column: k = 6, 12, 31 and 50 at d = 1, 10,
    100 and 300 on 200 nodes, against n(n + 1)/2 pairs for B.
    """
    su, sw = np.sqrt(1.0 - grid.nodes), np.sqrt(grid.weights)
    rest = grid.weights * kernel_eval(d, grid.nodes, grid.nodes)  # diag(R); checks d
    stop = _FACTOR_TOL * rest.sum()
    f = np.empty((grid.n, grid.n))
    k = 0
    while k < grid.n and rest.sum() > stop:
        p = rest.argmax()
        row = np.multiply(_kernel_of_roots(d, su, su[p]), sw * sw[p], out=f[k])
        row -= f[:k, p] @ f[:k]
        row /= rest[p] ** 0.5
        rest -= row * row
        k += 1
    return f[:k], sw


# From d = 10^3 on, (1 - eta_max) d of a resolved grid lies between 2.78 and
# 2.88 (it tends to about 2.9); under-resolved grids give less
_LARGE_D = 1e3
_LARGE_D_MIN_GAP = 2.7


def _check_resolved(eta: float, d: float, grid: SpaceGrid) -> None:
    """Reject a dominant eigenvalue no resolved grid gives.

    The exact maximum efficiency is below 1 at every depth, and from d =
    10^3 on (1 - eta_max) d is at least 2.7.  A value beyond either bound
    means the quadrature grid under-resolves the kernel (its boundary layer
    narrows as d grows).
    """
    if eta > 1.0 or (d >= _LARGE_D and (1.0 - eta) * d < _LARGE_D_MIN_GAP):
        raise GridError(
            f"eta_max = {eta:.6g} at d={d:g} on {grid.n} nodes: the grid "
            "under-resolves the kernel; use more Gauss nodes"
        )


def _top_eigenvalue(gram: np.ndarray, d: float, grid: SpaceGrid) -> float:
    """eta_max from the Gram f @ f.T (the nonzero spectrum of f.T @ f), checked.  numpy's
    LAPACK, not scipy's: their BLAS thread pools slow each other when calls alternate."""
    eta = float(np.linalg.eigvalsh(gram)[-1])
    _check_resolved(eta, d, grid)
    return eta


def _efficiency_bounds(d: float, grid: SpaceGrid) -> tuple[float, float]:
    """eta_max and the forward composite bound from one factor K = f^T f (r = f^T)."""
    f, _ = _kernel_factor(d, grid)
    eta_max = _top_eigenvalue(f @ f.T, d, grid)
    m = np.linalg.eigvalsh(f[:, ::-1] @ f.T)
    return eta_max, float(max(m[0] ** 2, m[-1] ** 2))


def retrieval_efficiency(s: SpinWave, d: float) -> float:
    """Retrieval efficiency of a spin wave expressed in the retrieval frame.

    Evaluated by quadrature on the spin wave's own grid, as the squared norm
    of the kernel's factor applied to the weighted samples.  For a unit-norm
    wave the result lies in (0, 1); it scales quadratically with amplitude.
    """
    f, sw = _kernel_factor(d, s.grid)
    x = f @ (sw * s.samples)
    return float(np.vdot(x, x).real)


def optimal_spin_wave(d: float, grid: SpaceGrid | None = None) -> tuple[SpinWave, float]:
    """Optimal retrieval mode and maximum efficiency at depth ``d``.

    The unit-norm positive dominant eigenvector of the retrieval kernel and
    its eigenvalue, from the kernel's factor on a Gauss-Legendre grid.
    Raises :class:`GridError` when the eigenvalue exceeds 1 (the grid is too
    coarse for the depth).
    """
    if grid is None:
        grid = SpaceGrid.gauss_legendre(DEFAULT_NODES)
    f, sw = _kernel_factor(d, grid)
    gram = f @ f.T
    eta = _top_eigenvalue(gram, d, grid)
    # the mode is f.T u / sw for the Gram's top eigenvector u: two steps of inverse
    # iteration, 2^-44 past eta, reach rounding for gaps above 1e-5 (1.2e-3 at d = 10^4)
    shifted = gram / eta - (1.0 + 2.0**-44) * np.eye(len(gram))
    v = np.linalg.solve(shifted, np.linalg.solve(shifted, f @ sw)) @ f / sw
    v /= np.sqrt(grid.weights @ v**2)  # unit norm in the weights
    if np.dot(grid.weights, v) < 0:
        v = -v
    return SpinWave(grid=grid, samples=v), eta
