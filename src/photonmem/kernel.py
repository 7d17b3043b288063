"""Backward-retrieval efficiency kernel and its dominant eigenmode.

The retrieval efficiency of a spin wave S(zeta) is a quadratic form with a
real symmetric positive kernel that depends only on the optical depth:

    k(zeta, zeta') = (d/2) exp(-d (1 - (zeta + zeta')/2))
                     * I0(d sqrt((1 - zeta)(1 - zeta')))

Maximizing the form over unit-norm spin waves is a symmetric eigenproblem;
the optimal spin wave is the (positive) dominant eigenvector and the largest
eigenvalue is the maximum retrieval efficiency at that depth.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0e

from .core import GridError, SpaceGrid, SpinWave

__all__ = ["kernel_eval", "retrieval_efficiency", "optimal_spin_wave"]

DEFAULT_NODES = 200


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
    out = _kernel_of_roots(d, np.sqrt(1.0 - zeta), np.sqrt(1.0 - zeta_p))
    if out.ndim == 0:
        return float(out)
    return out


def _kernel_of_roots(d, su, sv):
    """The kernel at su = sqrt(1 - zeta), sv = sqrt(1 - zeta'), roots unchecked."""
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("optical depth must be finite and > 0")
    return 0.5 * d * i0e(d * su * sv) * np.exp(-0.5 * d * (su - sv) ** 2)


def _sqrt_weight_kernel(d: float, grid: SpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(w_i) k(z_i, z_j) sqrt(w_j), the Nystrom matrix made symmetric by a
    similarity transform, and sqrt(w).

    The kernel is symmetric: it is evaluated on the pairs i <= j and
    mirrored, so the matrix is exactly symmetric.
    """
    n = grid.n
    su, sw = np.sqrt(1.0 - grid.nodes), np.sqrt(grid.weights)
    i, j = np.triu_indices(n)
    upper = sw[i] * _kernel_of_roots(d, su[i], su[j]) * sw[j]
    out = np.empty(n * n)
    out[i * n + j] = upper
    out[j * n + i] = upper
    return out.reshape(n, n), sw


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


def retrieval_efficiency(s: SpinWave, d: float) -> float:
    """Retrieval efficiency of a spin wave expressed in the retrieval frame.

    Evaluated by quadrature on the spin wave's own grid.  For a unit-norm
    wave the result lies in (0, 1); it scales quadratically with amplitude.
    """
    b, sw = _sqrt_weight_kernel(d, s.grid)
    v = sw * s.samples
    return float(np.real(np.conj(v) @ (b @ v)))


def _kernel_eigh(d: float, grid: SpaceGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full eigendecomposition of the sqrt-weight kernel: (vals, vecs, sqrt(w)).

    Eigenvalues ascend.  Raises :class:`GridError` when the largest exceeds 1.
    numpy's LAPACK is used rather than ``scipy.linalg``: the two link separate
    BLAS builds whose thread pools slow each other down when calls alternate.
    """
    sym, sw = _sqrt_weight_kernel(d, grid)
    vals, vecs = np.linalg.eigh(sym)
    _check_resolved(float(vals[-1]), d, grid)
    return vals, vecs, sw


def optimal_spin_wave(d: float, grid: SpaceGrid | None = None) -> tuple[SpinWave, float]:
    """Optimal retrieval mode and maximum efficiency at depth ``d``.

    The unit-norm positive dominant eigenvector of the retrieval kernel and
    its eigenvalue, from a dense symmetric eigensolve on a Gauss-Legendre
    grid.  Raises :class:`GridError` when the eigenvalue exceeds 1 (the grid
    is too coarse for the depth).
    """
    if grid is None:
        grid = SpaceGrid.gauss_legendre(DEFAULT_NODES)
    vals, vecs, sw = _kernel_eigh(d, grid)
    v = vecs[:, -1] / sw  # unit norm in the weights, as the eigenvector is in the plain norm
    if np.dot(grid.weights, v) < 0:
        v = -v
    return SpinWave(grid=grid, samples=v), float(vals[-1])
