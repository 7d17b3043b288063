import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmem import (
    ConvergenceError,
    GridError,
    MediumParams,
    SpaceGrid,
    SpinWave,
    forward_max_efficiency,
    kernel_eval,
    optimal_spin_wave,
    retrieval_efficiency,
)
from photonmem import kernel
from photonmem.kernel import (
    _FACTOR_TOL,
    DEFAULT_NODES,
    _check_resolved,
    _kernel_factor,
    _kernel_of_roots,
)

from conftest import smooth_test_wave


def _sqrt_weight_kernel(d: float, grid: SpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(w_i) k(z_i, z_j) sqrt(w_j), the dense Nystrom matrix made symmetric
    by a similarity transform, and sqrt(w): the oracle for the kernel's factor.

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


def dense_route(d: float, grid: SpaceGrid) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """(mode, eta_max, eigenvalues, eigenvectors) from a full ``eigh`` of the oracle."""
    sym, sw = _sqrt_weight_kernel(d, grid)
    vals, vecs = np.linalg.eigh(sym)
    mode = vecs[:, -1] / sw
    return (mode if grid.weights @ mode > 0 else -mode), float(vals[-1]), vals, vecs


def resolved(eta: float, d: float, grid: SpaceGrid) -> bool:
    try:
        _check_resolved(eta, d, grid)
    except GridError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Nystrom discretization of the retrieval-efficiency kernel.

    ``matrix[i, j] = weights[j] * k(nodes[i], nodes[j])`` so that
    ``matrix @ s`` is the quadrature approximation of the integral operator
    applied to the samples ``s``.
    """

    params: MediumParams
    grid: SpaceGrid
    matrix: np.ndarray

    @classmethod
    def build(cls, params: MediumParams, grid: SpaceGrid | None = None) -> "KernelOperator":
        if grid is None:
            grid = SpaceGrid.gauss_legendre(DEFAULT_NODES)
        z = grid.nodes
        k = kernel_eval(params.d, z[:, None], z[None, :])
        m = k * grid.weights[None, :]
        m.setflags(write=False)
        return cls(params=params, grid=grid, matrix=m)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        return self.matrix @ samples

    def symmetry_defect(self) -> float:
        """max_ij |K_ij / w_j - K_ji / w_i|, zero for an exactly symmetric kernel."""
        w = self.grid.weights
        bare = self.matrix / w[None, :]
        return float(np.max(np.abs(bare - bare.T)))


def power_iteration(
    op: KernelOperator, tol: float = 1e-8, max_iter: int = 10000
) -> tuple[np.ndarray, float, int]:
    """Dominant eigenpair of a kernel operator; returns the iteration count.

    An independent check on the dense route of :func:`optimal_spin_wave`.

    Starts from the constant wave (strictly positive, hence never orthogonal
    to the dominant eigenvector of a positive kernel) and iterates the
    integral operator with renormalization, estimating the eigenvalue by the
    Rayleigh quotient.  Converged when successive eigenvalue estimates differ
    by less than ``tol`` and the eigenvector moves by less than sqrt(tol) in
    the weighted L2 norm.  Raises :class:`GridError` when the converged
    eigenvalue exceeds 1 (the grid is too coarse for the depth).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    w = op.grid.weights
    s = np.ones(op.grid.n)
    s /= np.sqrt(np.dot(w, s**2))
    eta_prev = 0.0
    for it in range(1, max_iter + 1):
        ks = op.apply(s)
        eta = float(np.dot(w, s * ks))  # Rayleigh quotient, s unit norm
        s_new = ks / np.sqrt(np.dot(w, ks**2))
        if np.dot(w, s_new) < 0:
            s_new = -s_new
        move = np.sqrt(np.dot(w, (s_new - s) ** 2))
        s = s_new
        if abs(eta - eta_prev) < tol and move < np.sqrt(tol):
            _check_resolved(eta, op.params.d, op.grid)
            return s, eta, it
        eta_prev = eta
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} steps (d={op.params.d})",
        last_mode=SpinWave(grid=op.grid, samples=s),
        last_eigenvalue=eta_prev,
    )


def power_route(d, grid):
    """The power-iteration reference for the dense route of optimal_spin_wave."""
    op = KernelOperator.build(MediumParams(d=d), grid)
    s, eta, _ = power_iteration(op)
    return SpinWave(grid=op.grid, samples=s), eta

# dominant eigenvalues from the dense 400-node Gauss eigensolve, frozen as
# regression goldens once the full acceptance suite passed
ETA_MAX_GOLDEN = {
    0.5: 0.199349560760,
    1.0: 0.330477800697,
    2.0: 0.491540094004,
    5.0: 0.696807271089,
    10.0: 0.814214476409,
    30.0: 0.924331177840,
    100.0: 0.974514238190,
    300.0: 0.991019296994,
    1000.0: 0.997215975454,
}


class TestKernelEval:
    def test_corner_value_is_half_depth(self):
        for d in (0.7, 7.3, 512.0):
            assert kernel_eval(d, 1.0, 1.0) == pytest.approx(d / 2, rel=1e-14)

    def test_symmetry(self):
        z = np.linspace(0, 1, 31)
        k = kernel_eval(12.5, z[:, None], z[None, :])
        assert np.max(np.abs(k - k.T)) < 1e-14

    @pytest.mark.parametrize("d", [1.0, 100.0, 1e4])
    def test_sqrt_weight_kernel_is_the_full_product_mirrored(self, d, gauss_grid):
        # the matrix is evaluated on one triangle and mirrored
        sym, sw = _sqrt_weight_kernel(d, gauss_grid)
        z = gauss_grid.nodes
        full = sw[:, None] * kernel_eval(d, z[:, None], z[None, :]) * sw[None, :]
        assert np.array_equal(sym, sym.T)
        assert np.max(np.abs(sym - full)) <= 1e-15 * np.max(np.abs(full))

    def test_positive(self):
        z = np.linspace(0, 1, 31)
        assert np.all(kernel_eval(3.0, z[:, None], z[None, :]) > 0)

    def test_large_depth_stable_vs_mpmath(self):
        # naive exp(-d) * I0(d) overflows near zeta = zeta' = 0 for large d
        import mpmath as mp

        mp.mp.dps = 40
        for d in (100.0, 700.0, 2000.0):
            got = kernel_eval(d, 0.0, 0.0)
            want = float(mp.mpf(d) / 2 * mp.exp(-d) * mp.besseli(0, d))
            assert np.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12)

    def test_generic_point_vs_mpmath(self):
        import mpmath as mp

        mp.mp.dps = 40
        d, z, zp = 37.0, 0.2, 0.65
        want = float(
            mp.mpf(d) / 2
            * mp.exp(-d * (1 - (z + zp) / 2))
            * mp.besseli(0, d * mp.sqrt((1 - z) * (1 - zp)))
        )
        assert kernel_eval(d, z, zp) == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_eval(-1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            kernel_eval(1.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            kernel_eval(1.0, 0.5, -0.1)

    @pytest.mark.parametrize("d", [-1.0, 0.0, math.inf, math.nan])
    def test_matrix_routes_refuse_a_bad_depth(self, gauss_grid, d):
        # the Nystrom matrix reads the kernel off per-node roots, past
        # kernel_eval's checks; the depth is still checked
        with pytest.raises(ValueError, match="optical depth"):
            optimal_spin_wave(d, gauss_grid)
        with pytest.raises(ValueError, match="optical depth"):
            retrieval_efficiency(SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n)), d)


class TestRetrievalEfficiency:
    def test_zero_wave(self, gauss_grid):
        s = SpinWave(grid=gauss_grid, samples=np.zeros(gauss_grid.n))
        assert retrieval_efficiency(s, 10.0) == 0.0

    def test_quadratic_scaling(self, gauss_grid):
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, 0))
        base = retrieval_efficiency(s, 10.0)
        scaled = SpinWave(grid=gauss_grid, samples=(0.5 - 0.3j) * s.samples)
        assert retrieval_efficiency(scaled, 10.0) == pytest.approx(
            abs(0.5 - 0.3j) ** 2 * base, rel=1e-12
        )

    def test_flat_wave_matches_brute_force_riemann(self, gauss_grid):
        # independent oracle: midpoint Riemann sum on a 10^4 x 10^4 uniform
        # lattice, evaluated in row chunks
        d = 10.0
        s = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n))
        fast = retrieval_efficiency(s, d)
        n = 10_000
        z = (np.arange(n) + 0.5) / n
        total = 0.0
        for start in range(0, n, 500):
            block = kernel_eval(d, z[start : start + 500, None], z[None, :])
            total += block.sum()
        brute = total / n**2
        assert 0.0 < brute < 1.0
        assert fast == pytest.approx(brute, abs=1e-6)

    def test_variational_bound(self, gauss_grid, optimal_modes):
        _, eta_max = optimal_modes[10.0]
        for which in range(3):
            s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, which))
            assert retrieval_efficiency(s, 10.0) <= eta_max + 1e-10


class TestOptimalSpinWave:
    def test_unit_norm_and_positive(self, optimal_modes):
        for d, (s, eta) in optimal_modes.items():
            w = s.grid.weights
            assert np.dot(w, np.abs(s.samples) ** 2) == pytest.approx(1.0, abs=1e-8)
            assert np.all(s.samples.real > 0)
            assert np.max(np.abs(s.samples.imag)) == 0.0
            assert 0.0 < eta < 1.0

    @pytest.mark.parametrize("d", sorted(ETA_MAX_GOLDEN))
    def test_matches_dense_oracle_golden(self, d):
        _, eta = optimal_spin_wave(d)
        assert eta == pytest.approx(ETA_MAX_GOLDEN[d], abs=2e-6)

    def test_monotone_ladder(self):
        etas = [optimal_spin_wave(d)[1] for d in (0.5, 1, 2, 5, 10, 30, 100, 300, 1000)]
        assert np.all(np.diff(etas) > 0)
        assert etas[-1] > 0.99

    def test_dense_route_agrees(self, gauss_grid):
        for d in (1.0, 10.0, 100.0):
            s_p, eta_p = power_route(d, gauss_grid)
            s_d, eta_d = optimal_spin_wave(d, gauss_grid)
            assert eta_p == pytest.approx(eta_d, abs=1e-6)
            wl2 = np.sqrt(np.dot(gauss_grid.weights, np.abs(s_p.samples - s_d.samples) ** 2))
            assert wl2 < 1e-3

    def test_grid_doubling_converged(self):
        _, eta200 = optimal_spin_wave(10.0, SpaceGrid.gauss_legendre(200))
        _, eta400 = optimal_spin_wave(10.0, SpaceGrid.gauss_legendre(400))
        assert abs(eta200 - eta400) < 1e-8

    def test_shape_smooth_and_least_propagation(self, optimal_modes):
        # weight concentrates toward the output face and the profile is
        # smooth: monotone with bounded curvature
        for d in (1.0, 10.0, 100.0):
            s, _ = optimal_modes[d]
            vals = s.samples.real
            assert np.all(np.diff(vals) > 0)
            assert np.max(np.abs(np.diff(vals, 2))) < 0.05

    @pytest.mark.parametrize("route", [optimal_spin_wave, power_route])
    def test_under_resolved_grid_raises(self, route):
        # 50 nodes miss the boundary layer at d = 1e4 and give eta = 1.258
        with pytest.raises(GridError, match="more Gauss nodes"):
            route(1e4, SpaceGrid.gauss_legendre(50))

    @pytest.mark.parametrize("d, nodes", [(1e4, 100), (2e4, 150), (3e4, 200)])
    def test_large_depth_gap_below_bound_raises(self, d, nodes):
        # eta_max below 1 but (1 - eta_max) d = 0.735, 1.447 and 2.538, short
        # of the 2.78-2.87 resolved grids give from d = 1e3 on
        with pytest.raises(GridError, match="more Gauss nodes"):
            optimal_spin_wave(d, SpaceGrid.gauss_legendre(nodes))

    def test_large_depth_guard_passes_resolved_grids(self, gauss_grid):
        for d in np.geomspace(1e3, 2e4, 7):
            _, eta = optimal_spin_wave(float(d), gauss_grid)
            assert eta == pytest.approx(dense_route(float(d), gauss_grid)[1], rel=2e-15, abs=0)
            assert (1.0 - eta) * d >= 2.7

    @pytest.mark.parametrize("route", [optimal_spin_wave, power_route])
    def test_resolved_large_depth_stays_below_one(self, route, gauss_grid):
        _, eta = route(1e4, gauss_grid)
        assert eta == pytest.approx(0.99971, abs=1e-5)
        assert eta <= 1.0

    def test_nonconvergence_carries_last_iterate(self):
        with pytest.raises(ConvergenceError) as err:
            power_iteration(KernelOperator.build(MediumParams(d=10.0)), tol=1e-15, max_iter=2)
        assert err.value.last_mode is not None
        assert err.value.last_eigenvalue is not None


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestDenseRouteProperties:
    """Properties of the dense route on the default 200-node grid.

    Example counts keep the class under 2 s.
    """

    @settings(max_examples=25)
    @given(d=_log_uniform(0.1, 1e4))
    def test_efficiency_in_unit_interval_above_forward_bound(self, d):
        _, eta = optimal_spin_wave(d)
        assert 0.0 < eta <= 1.0
        assert forward_max_efficiency(d) <= eta**2

    @settings(max_examples=25)
    @given(d=_log_uniform(0.1, 1e4), ratio=st.floats(1.001, 1.1))
    def test_strictly_increasing_in_depth(self, d, ratio):
        assert optimal_spin_wave(d)[1] > optimal_spin_wave(d / ratio)[1]

    @settings(max_examples=15)
    @given(d=_log_uniform(1e3, 1e4))
    def test_large_depth_loss_scales_as_one_over_depth(self, d):
        _, eta = optimal_spin_wave(d)
        assert 2.7 <= (1.0 - eta) * d <= 2.9


class TestKernelFactor:
    """The pivoted-Cholesky factor against the dense oracle."""

    @pytest.mark.parametrize("nodes", [100, 200, 400])
    def test_eta_and_mode_match_the_dense_eigensolve(self, nodes):
        grid = SpaceGrid.gauss_legendre(nodes)
        checked = 0
        for d in np.geomspace(0.1, 2e4, 40):
            mode, eta, _, _ = dense_route(float(d), grid)
            if not resolved(eta, float(d), grid):
                with pytest.raises(GridError):
                    optimal_spin_wave(float(d), grid)
                continue
            s, got = optimal_spin_wave(float(d), grid)
            assert got == pytest.approx(eta, rel=2e-15, abs=0)
            assert np.max(np.abs(s.samples - mode)) <= 1e-12 * np.max(np.abs(mode))
            checked += 1
        assert checked >= 30

    def test_forward_bound_matches_the_dense_eigensolve(self, gauss_grid):
        for d in np.geomspace(0.1, 2e4, 40):
            _, eta, vals, vecs = dense_route(float(d), gauss_grid)
            if not resolved(eta, float(d), gauss_grid):
                continue
            r = vecs * np.sqrt(np.clip(vals, 0.0, None))  # K = r r^T
            m = np.linalg.eigvalsh(r.T @ r[::-1])
            want = max(m[0] ** 2, m[-1] ** 2)
            assert forward_max_efficiency(float(d), gauss_grid) == pytest.approx(
                want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("grid", [SpaceGrid.gauss_legendre(200),
                                      SpaceGrid.uniform_midpoint(256)], ids=["gauss", "uniform"])
    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0, 100.0, 1e3, 1e4])
    def test_factor_leaves_a_small_positive_remainder(self, grid, d):
        sym, _ = _sqrt_weight_kernel(d, grid)
        f, _ = _kernel_factor(d, grid)
        rem = sym - f.T @ f
        trace = np.trace(sym)
        # the remainder is formed in floating point, which adds about one more
        # 2^-52 trace(B) to its own
        assert np.trace(rem) <= 2 * _FACTOR_TOL * trace
        assert np.linalg.eigvalsh(rem)[0] >= -4 * np.finfo(float).eps * trace

    @pytest.mark.parametrize("d", [0.3, 10.0, 300.0, 1e4])
    def test_efficiency_of_random_waves_within_the_trace_bound(self, gauss_grid, uniform_grid, d):
        rng = np.random.default_rng(7)
        for grid in (gauss_grid, uniform_grid):
            sym, sw = _sqrt_weight_kernel(d, grid)
            bound = _FACTOR_TOL * np.trace(sym)
            for _ in range(5):
                s = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
                v = sw * s
                want = float(np.real(np.conj(v) @ (sym @ v)))
                got = retrieval_efficiency(SpinWave(grid=grid, samples=s), d)
                assert abs(got - want) <= bound * float(np.vdot(v, v).real)

    def test_work_guard(self, gauss_grid, monkeypatch):
        # the dense matrix took 20,100 i0e pairs on 200 nodes at every depth
        i0e, seen = kernel.i0e, []

        def counted(x):
            seen.append(np.size(x))
            return i0e(x)

        monkeypatch.setattr(kernel, "i0e", counted)
        for d in (0.3, 1.0, 10.0, 100.0, 300.0):
            seen.clear()
            optimal_spin_wave(d, gauss_grid)
            assert sum(seen) <= 64 * gauss_grid.n + gauss_grid.n
            assert _kernel_factor(d, gauss_grid)[0].shape[0] <= 64


class TestKernelOperator:
    def test_symmetry_defect(self, gauss_grid, params_d10):
        op = KernelOperator.build(params_d10, gauss_grid)
        assert op.symmetry_defect() < 1e-12

    def test_largest_eigenvalue_in_unit_interval(self, gauss_grid):
        for d in (0.5, 50.0):
            op = KernelOperator.build(MediumParams(d=d), gauss_grid)
            _, eta = optimal_spin_wave(d, gauss_grid)
            assert 0.0 < eta < 1.0
            assert np.all(op.matrix > 0)
