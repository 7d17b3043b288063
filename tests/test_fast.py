import tracemalloc

import numpy as np
import pytest
from scipy.special import j0

from photonmem import (
    EnsembleState,
    FieldMode,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    mode_norm2,
    optimal_fast_input,
    optimal_spin_wave,
    pi_pulse,
    resample_spinwave,
    retrieval_efficiency,
    retrieve_fast,
    simulate_fast_storage,
)
from photonmem.fast import recommended_fast_grid

from conftest import smooth_test_wave


class TestRetrieveFast:
    def test_initial_sample_is_projected_wave(self, gauss_grid):
        d = 7.0
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, 1))
        grid = recommended_fast_grid(d)
        out = retrieve_fast(s, d, grid)
        # at tau = 0 the Bessel factor is 1, so the sample is the plain
        # integral of s(1 - zeta)
        want = -np.sqrt(d) * np.dot(gauss_grid.weights, s.samples[::-1])
        assert out.samples[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_energy_matches_kernel(self, gauss_grid, which):
        d = 10.0
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, which))
        out = retrieve_fast(s, d, recommended_fast_grid(d))
        assert mode_norm2(out) == pytest.approx(retrieval_efficiency(s, d), abs=1e-3)

    def test_tail_converged(self, optimal_modes):
        # extending the window by 1% must add a negligible energy fraction
        d = 10.0
        s, _ = optimal_modes[d]
        grid = recommended_fast_grid(d)
        out = mode_norm2(retrieve_fast(s, d, grid))
        longer = TimeGrid(tau0=0.0, dtau=grid.dtau, n=int(grid.n * 1.01))
        out_long = mode_norm2(retrieve_fast(s, d, longer))
        assert abs(out_long - out) < 1e-4

    def test_duration_scales_inversely_with_depth(self, optimal_modes):
        t90 = {}
        for d in (10.0, 30.0, 100.0):
            s, _ = optimal_modes[d]
            out = retrieve_fast(s, d, recommended_fast_grid(d))
            energy = np.cumsum(np.abs(out.samples) ** 2)
            energy /= energy[-1]
            t90[d] = out.grid.times[np.searchsorted(energy, 0.9)]
        assert t90[10.0] > t90[30.0] > t90[100.0]
        slope = np.polyfit(np.log([10.0, 30.0, 100.0]), np.log([t90[d] for d in (10.0, 30.0, 100.0)]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_row_blocks_match_one_shot_quadrature(self, gauss_grid):
        # a complex wave: each real Bessel block meets the real and imaginary
        # weights in two real products, which round differently from the one
        # complex product
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, 1) * (1.0 + 0.5j))
        for d in (30.0, 100.0):  # 3,601 and 12,001 output times
            grid = recommended_fast_grid(d)
            tau = grid.times - grid.tau0
            arg = 2.0 * np.sqrt(np.outer(d * tau, gauss_grid.nodes))
            quad = j0(arg) @ (gauss_grid.weights * s.samples[::-1])
            want = -np.sqrt(d) * np.exp(-tau) * quad
            got = retrieve_fast(s, d, grid).samples
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1.0, 30.0, 300.0])
    def test_matches_direct_bessel_sum(self, d, gauss_grid):
        # the J0 quadrature at every output time, 2,048 times per block
        s, _ = optimal_spin_wave(d, gauss_grid)
        grid = recommended_fast_grid(d)
        tau = grid.times - grid.tau0
        weights = gauss_grid.weights * s.samples[::-1]
        quad = np.concatenate([
            j0(2.0 * np.sqrt(np.outer(d * tau[r:r + 2048], gauss_grid.nodes))) @ weights
            for r in range(0, tau.size, 2048)
        ])
        want = -np.sqrt(d) * np.exp(-tau) * quad
        got = retrieve_fast(s, d, grid).samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_memory_bounded_at_large_depth(self, gauss_grid):
        # 36,001 output times x 200 nodes: the one-shot quadrature held
        # about 220 MB of temporaries
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, 0))
        grid = recommended_fast_grid(300.0)
        tracemalloc.start()
        try:
            retrieve_fast(s, 300.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_domain_checks(self, gauss_grid):
        s = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n))
        with pytest.raises(ValueError):
            retrieve_fast(s, -1.0, recommended_fast_grid(1.0))


class TestPiPulse:
    def _state(self, n=64):
        g = SpaceGrid.uniform_midpoint(n)
        rng = np.random.default_rng(7)
        return EnsembleState(
            grid=g,
            E=np.zeros(n, dtype=complex),
            P=rng.normal(size=n) + 1j * rng.normal(size=n),
            S=rng.normal(size=n) + 1j * rng.normal(size=n),
            tau=0.0,
        )

    def test_swap_endpoints(self):
        st = self._state()
        zero_p = EnsembleState(grid=st.grid, E=st.E, P=np.zeros_like(st.P), S=st.S, tau=0.0)
        swapped = pi_pulse(zero_p)
        assert np.allclose(swapped.P, 1j * zero_p.S)
        assert np.allclose(swapped.S, 0.0)

    def test_double_application_is_global_phase(self):
        st = self._state()
        twice = pi_pulse(pi_pulse(st))
        assert np.allclose(twice.P, -st.P)
        assert np.allclose(twice.S, -st.S)

    def test_excitation_preserved_exactly(self):
        st = self._state()
        assert pi_pulse(st).excitation_norm2() == st.excitation_norm2()

    def test_finite_pulse_converges_to_ideal_map(self, optimal_modes, uniform_grid):
        from photonmem.simulator import apply_finite_pi_pulse

        d = 10.0
        s, _ = optimal_modes[d]
        s_u = resample_spinwave(s, uniform_grid)
        st = EnsembleState(
            grid=uniform_grid,
            E=np.zeros(uniform_grid.n, dtype=complex),
            P=np.zeros(uniform_grid.n, dtype=complex),
            S=s_u.samples,
            tau=0.0,
        )
        ideal = pi_pulse(st)
        errs = []
        for omega in (1e2 * d, 1e3 * d):
            fin, _, _ = apply_finite_pi_pulse(st, MediumParams(d=d), omega)
            errs.append(
                np.sqrt(
                    np.dot(
                        uniform_grid.weights,
                        np.abs(fin.P - ideal.P) ** 2 + np.abs(fin.S - ideal.S) ** 2,
                    )
                )
            )
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3


class TestOptimalFastInput:
    def test_normalized_with_recorded_raw_energy(self, optimal_modes):
        d = 10.0
        _, eta = optimal_modes[d]
        res = optimal_fast_input(d, recommended_fast_grid(d))
        assert mode_norm2(res.mode) == pytest.approx(1.0, abs=1e-10)
        assert res.raw_norm2 == pytest.approx(eta, abs=1e-3)

    def test_fast_storage_composition(self, optimal_modes):
        d = 10.0
        _, eta = optimal_modes[d]
        res = optimal_fast_input(d, recommended_fast_grid(d))
        run = simulate_fast_storage(res.mode, MediumParams(d=d))
        assert run.breakdown.eta_storage == pytest.approx(eta, abs=1e-2)

    def test_perturbed_inputs_store_worse(self, optimal_modes):
        d = 10.0
        res = optimal_fast_input(d, recommended_fast_grid(d))
        base = simulate_fast_storage(res.mode, MediumParams(d=d)).breakdown.eta_storage
        g = res.mode.grid
        t = g.times
        for pert in (
            np.sin(2 * np.pi * t / g.duration),
            np.exp(-(((t - 3.0) / 1.5) ** 2)),
            t / g.duration,
        ):
            bumped = res.mode.samples + 0.25 * np.abs(res.mode.samples).max() * pert
            bumped = bumped / np.sqrt(np.trapezoid(np.abs(bumped) ** 2, dx=g.dtau))
            eta_p = simulate_fast_storage(
                FieldMode(grid=g, samples=bumped), MediumParams(d=d)
            ).breakdown.eta_storage
            assert eta_p < base
