import tracemalloc

import numpy as np
import pytest

from photonmem import (
    ControlField,
    GridError,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    adiabatic,
    flip,
    forward_max_efficiency,
    iterate_retrieval,
    optimal_spin_wave,
    optimize_storage_retrieval,
    resample_spinwave,
    time_reverse,
)
from photonmem.optimizer import completing_control

MONOTONE_SLACK = 1e-6


@pytest.fixture
def bracket_calls(monkeypatch):
    """Counts the bracket tables built; storage tables come from retrieval tables."""
    calls = []
    real = adiabatic._bracket_matrix

    def counting(h, zeta, params, table=None):
        # a call without a table builds its own; calls that pass one share it
        if table is None or not any(table is t for t in calls):
            calls.append(table)
        return real(h, zeta, params, table)

    monkeypatch.setattr(adiabatic, "_bracket_matrix", counting)
    return calls


class TestTimeReversalTables:
    def test_adiabatic_iteration_builds_one_bracket_table(self, bracket_calls, gauss_grid):
        init = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n, dtype=complex))
        trace = iterate_retrieval(10.0, completing_control(MediumParams(d=10.0)), init)
        assert trace.iterations > 1
        assert len(bracket_calls) == 1

    def test_forward_composite_builds_one_bracket_table(self, bracket_calls, reference_input):
        optimize_storage_retrieval(10.0, reference_input, "forward", delta=5.0, max_iter=20)
        assert len(bracket_calls) == 1

    def test_adiabatic_iteration_holds_one_matrix(self, gauss_grid):
        # 1,501 x 200: the retrieval matrix (4.6 MiB) and its bracket scratch; a
        # storage matrix beside it took 11.7 MiB
        init = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n, dtype=complex))
        ctrl = completing_control(MediumParams(d=100.0, delta=30.0))
        tracemalloc.start()
        try:
            trace = iterate_retrieval(100.0, ctrl, init, delta=30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.converged
        assert peak <= 7 * 2**20

    def test_adiabatic_iteration_holds_only_the_factors(self, gauss_grid):
        # 1,501 x 200: the Chebyshev rows and their interpolation matrix, not
        # the 4.6 MiB retrieval matrix
        init = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n, dtype=complex))
        ctrl = completing_control(MediumParams(d=100.0, delta=30.0))
        tracemalloc.start()
        try:
            trace = iterate_retrieval(100.0, ctrl, init, delta=30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.converged
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("d, delta", [(1.0, 0.0), (30.0, 0.0), (10.0, -50.0), (300.0, 7.0)])
    def test_completing_control_is_its_own_time_reverse(self, d, delta):
        ctrl = completing_control(MediumParams(d=d, delta=delta))
        assert np.array_equal(time_reverse(ctrl).samples, ctrl.samples)


class TestIterateRetrieval:
    def test_fixed_point_converges_immediately(self, optimal_modes):
        s_opt, eta = optimal_modes[10.0]
        ctrl = completing_control(MediumParams(d=10.0))
        trace = iterate_retrieval(10.0, ctrl, s_opt)
        assert trace.converged
        assert trace.iterations <= 2
        assert trace.efficiencies[0] == pytest.approx(eta, abs=1e-5)

    def test_flat_start_climbs_to_maximum(self, optimal_modes, gauss_grid):
        s_opt, eta = optimal_modes[10.0]
        ctrl = completing_control(MediumParams(d=10.0))
        init = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n, dtype=complex))
        trace = iterate_retrieval(10.0, ctrl, init)
        assert trace.converged
        assert np.all(np.diff(trace.efficiencies) >= -MONOTONE_SLACK)
        assert trace.efficiencies[-1] == pytest.approx(eta, abs=1e-3)
        l2 = np.sqrt(
            np.dot(gauss_grid.weights, np.abs(trace.final_mode.samples - s_opt.samples) ** 2)
        )
        assert l2 < 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_positive_inits_are_monotone(self, gauss_grid, seed):
        rng = np.random.default_rng(seed)
        z = gauss_grid.nodes
        coeffs = rng.normal(size=3)
        samples = 1.0 + 0.4 * sum(c * np.sin((k + 1) * np.pi * z) for k, c in enumerate(coeffs))
        init = SpinWave(grid=gauss_grid, samples=np.clip(samples, 0.05, None).astype(complex))
        ctrl = completing_control(MediumParams(d=10.0))
        trace = iterate_retrieval(10.0, ctrl, init, max_iter=40)
        assert np.all(np.diff(trace.efficiencies) >= -MONOTONE_SLACK)

    def test_nonconvergence_reported_not_raised(self, gauss_grid):
        init = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n, dtype=complex))
        ctrl = completing_control(MediumParams(d=10.0))
        trace = iterate_retrieval(10.0, ctrl, init, tol=1e-15, max_iter=2)
        assert not trace.converged
        assert trace.iterations == 2

    def test_extra_iteration_from_converged_mode_is_stationary(self, optimal_modes):
        _, eta = optimal_modes[10.0]
        ctrl = completing_control(MediumParams(d=10.0))
        init = SpinWave(grid=optimal_modes[10.0][0].grid,
                        samples=np.ones(optimal_modes[10.0][0].grid.n, dtype=complex))
        trace = iterate_retrieval(10.0, ctrl, init, tol=1e-10)
        again = iterate_retrieval(10.0, ctrl, trace.final_mode, max_iter=1, tol=1e-15)
        assert abs(again.efficiencies[0] - trace.efficiencies[-1]) < 1e-8

    def test_simulate_route_matches_kernel(self, optimal_modes, uniform_grid):
        s_opt, eta = optimal_modes[10.0]
        ctrl = completing_control(MediumParams(d=10.0))
        init = SpinWave(grid=uniform_grid, samples=np.ones(uniform_grid.n, dtype=complex))
        trace = iterate_retrieval(10.0, ctrl, init, tol=1e-7, method="simulate", max_iter=30)
        assert np.all(np.diff(trace.efficiencies) >= -MONOTONE_SLACK)
        assert trace.efficiencies[-1] == pytest.approx(eta, abs=1e-3)
        ref = resample_spinwave(s_opt, uniform_grid)
        l2 = np.sqrt(
            np.dot(uniform_grid.weights, np.abs(trace.final_mode.samples - ref.samples) ** 2)
        )
        assert l2 < 0.02

    @pytest.mark.parametrize("method", ["adiabatic", "simulate"])
    def test_control_that_retrieves_nothing_raises(self, gauss_grid, method):
        off = ControlField(grid=TimeGrid.linspace(0.0, 5.0, 501), samples=np.zeros(501))
        init = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n))
        with pytest.raises(ValueError, match="retrieves nothing"):
            iterate_retrieval(10.0, off, init, method=method)

    def test_bad_method_rejected(self, optimal_modes):
        ctrl = completing_control(MediumParams(d=10.0))
        with pytest.raises(ValueError):
            iterate_retrieval(10.0, ctrl, optimal_modes[10.0][0], method="magic")


class TestBackwardComposite:
    @pytest.mark.parametrize("d", [1.0, 10.0])
    def test_efficiency_is_squared_eigenvalue(self, d, reference_input, optimal_modes):
        _, eta = optimal_modes[d]
        controls, trace = optimize_storage_retrieval(d, reference_input, "backward")
        assert trace.efficiencies[-1] == pytest.approx(eta**2, abs=2e-3)
        assert trace.converged

    def test_optimal_stored_mode_is_flipped_eigenmode(self, reference_input, optimal_modes):
        s_opt, _ = optimal_modes[10.0]
        _, trace = optimize_storage_retrieval(10.0, reference_input, "backward")
        stored = trace.final_mode
        # stored wave (storage frame) is the flipped optimal retrieval mode
        ref = flip(resample_spinwave(s_opt, stored.grid))
        l2 = np.sqrt(np.dot(stored.grid.weights, np.abs(stored.samples - ref.samples) ** 2))
        assert l2 < 0.01

    def test_controls_are_time_reverses(self, reference_input):
        controls, _ = optimize_storage_retrieval(10.0, reference_input, "backward")
        assert np.allclose(
            controls.storage.samples, np.conj(controls.retrieval.samples[::-1])
        )


class TestForwardComposite:
    def test_matches_dense_variational_oracle(self, reference_input):
        for d in (1.0, 10.0):
            oracle = forward_max_efficiency(d)
            _, trace = optimize_storage_retrieval(d, reference_input, "forward")
            assert trace.converged
            assert trace.efficiencies[-1] == pytest.approx(oracle, abs=1e-4)
            assert np.all(np.diff(trace.efficiencies) >= -MONOTONE_SLACK)

    @pytest.mark.parametrize("delta", [5.0, -5.0])
    def test_converges_off_resonance(self, reference_input, delta):
        # each cycle turns the trial's global phase off resonance; the mode
        # move is measured with that phase taken out
        _, trace = optimize_storage_retrieval(10.0, reference_input, "forward", delta=delta)
        assert trace.converged
        assert trace.iterations < 100
        _, long = optimize_storage_retrieval(
            10.0, reference_input, "forward", delta=delta, tol=0.0, max_iter=500
        )
        assert long.iterations == 500 and not long.converged
        assert trace.efficiencies[-1] == pytest.approx(long.efficiencies[-1], abs=1e-8)

    def test_strictly_below_backward(self, reference_input, optimal_modes):
        _, eta = optimal_modes[10.0]
        _, trace = optimize_storage_retrieval(10.0, reference_input, "forward")
        assert trace.efficiencies[-1] < eta**2 - 1e-3

    def test_gap_shrinks_at_large_depth(self):
        for d, cap in ((10.0, 0.25), (100.0, 0.11)):
            _, eta = optimal_spin_wave(d)
            gap = eta**2 - forward_max_efficiency(d)
            assert 0.0 < gap < cap

    def test_direction_validated(self, reference_input):
        with pytest.raises(ValueError):
            optimize_storage_retrieval(10.0, reference_input, "sideways")

    def test_under_resolved_grid_raises(self):
        # 50 nodes miss the boundary layer at d = 1e4; the bound would read 1.173
        with pytest.raises(GridError, match="more Gauss nodes"):
            forward_max_efficiency(1e4, SpaceGrid.gauss_legendre(50))


class TestStorageBound:
    def test_no_input_control_pair_beats_kernel_maximum(self, optimal_modes, uniform_grid):
        # storage efficiency is bounded by the maximum retrieval efficiency
        from photonmem import ControlField, TimeGrid, make_reference_input, simulate_storage

        _, eta_max = optimal_modes[10.0]
        inp = make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 2001))
        t = inp.grid.times
        controls = [
            np.full(t.size, 0.7),
            np.full(t.size, 2.0),
            1.5 * np.exp(-(((t - 8.0) / 5.0) ** 2)),
            0.8 + 0.6 * np.sin(0.4 * t) ** 2,
        ]
        for c in controls:
            ctrl = ControlField(grid=inp.grid, samples=c.astype(complex))
            run = simulate_storage(inp, ctrl, MediumParams(d=10.0))
            assert run.breakdown.eta_storage <= eta_max + 1e-3
