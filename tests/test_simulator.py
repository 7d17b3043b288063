import math

import numpy as np
import pytest

from photonmem import (
    ControlField,
    FieldMode,
    InstabilityError,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    energy_audit,
    flip,
    make_reference_input,
    mode_norm2,
    optimal_fast_input,
    optimal_storage_control,
    resample_spinwave,
    retrieval_efficiency,
    retrieve_adiabatic,
    retrieve_fast,
    simulate_fast_storage,
    simulate_retrieval,
    simulate_storage,
)
from photonmem import simulator
from photonmem.fast import recommended_fast_grid
from photonmem.cli import _parse_piecewise_control
from photonmem.core import _WaveformSpline
from photonmem.simulator import DEFECT_TOL, _Controller, _Integrator, _Uniform

from conftest import smooth_test_wave


def constant_control(omega, T, n=1501, t0=0.0):
    g = TimeGrid.linspace(t0, t0 + T, n)
    return ControlField(grid=g, samples=np.full(n, omega, dtype=complex))


def march_uniform(integ, p0, s0, t0, dt, n_steps, inp=None, ctrl=None, record_output=True):
    """``n_steps`` equal RK4 steps of ``dt``, the output at every step."""
    times = t0 + dt * np.arange(n_steps + 1)
    return integ.march(p0, s0, (t0, times[-1]), inp, ctrl, _Uniform(dt),
                       times if record_output else None)


class TestStorageBasics:
    def test_no_control_stores_nothing(self, reference_input, params_d10):
        run = simulate_storage(reference_input, None, params_d10)
        b = run.breakdown
        assert b.eta_storage == 0.0
        assert b.decay_fraction > 0.9  # resonant absorption dominates
        assert b.leak_fraction > 0.0  # partial transmission
        assert b.eta_storage + b.leak_fraction + b.decay_fraction == pytest.approx(1.0, abs=1e-4)

    def test_transparent_medium_leaks_everything(self, reference_input):
        run = simulate_storage(reference_input, None, MediumParams(d=1e-4))
        assert run.breakdown.leak_fraction == pytest.approx(1.0, abs=1e-3)

    def test_linearity_doubling(self, reference_input, params_d10):
        ctrl = constant_control(1.0, 20.0, 2001)
        run1 = simulate_storage(reference_input, ctrl, params_d10)
        doubled = FieldMode(grid=reference_input.grid, samples=2.0 * reference_input.samples)
        run2 = simulate_storage(doubled, ctrl, params_d10)
        assert np.allclose(run2.final_state.S, 2.0 * run1.final_state.S, rtol=1e-12)
        assert np.allclose(run2.output_mode.samples, 2.0 * run1.output_mode.samples, rtol=1e-12)
        # fractions are amplitude-independent
        assert run2.breakdown.eta_storage == pytest.approx(run1.breakdown.eta_storage, rel=1e-9)

    def test_too_coarse_grid_rejected(self, reference_input, params_d10):
        with pytest.raises(ValueError):
            simulate_storage(reference_input, None, params_d10, n_zeta=32)


class TestRetrievalBasics:
    def test_empty_wave_gives_no_output(self, uniform_grid, params_d10):
        s = SpinWave(grid=uniform_grid, samples=np.zeros(uniform_grid.n))
        run = simulate_retrieval(s, constant_control(1.0, 10.0), params_d10)
        assert mode_norm2(run.output_mode) == 0.0

    def test_control_and_detuning_independence(self, uniform_grid):
        # same stored wave, four completing control/detuning variants
        d = 10.0
        s = SpinWave(grid=uniform_grid, samples=smooth_test_wave(uniform_grid, 1))
        stored = flip(s)  # present in the storage frame; retrieval flips back
        variants = [
            (constant_control(1.0, 55.0, 1101), 0.0),
            (constant_control(3.0, 6.2, 1241), 0.0),
            (constant_control(6.0, 35.0, 1401), 10.0),
        ]
        g = TimeGrid.linspace(0.0, 30.0, 1201)
        env = 3.0 * np.exp(-(((g.times - 14.0) / 5.0) ** 2))
        variants.append((ControlField(grid=g, samples=env.astype(complex)), 0.0))
        etas = [
            simulate_retrieval(stored, ctrl, MediumParams(d=d, delta=delta)).breakdown.eta_retrieval
            for ctrl, delta in variants
        ]
        kernel_value = retrieval_efficiency(s, d)
        assert max(etas) - min(etas) < 1e-3
        for eta in etas:
            assert eta == pytest.approx(kernel_value, abs=1e-3)

    def test_backward_flips_internally(self, uniform_grid, optimal_modes, params_d10):
        s_opt, eta = optimal_modes[10.0]
        stored = flip(resample_spinwave(s_opt, uniform_grid))
        run = simulate_retrieval(stored, constant_control(1.5, 25.0), params_d10, direction="backward")
        assert run.breakdown.eta_retrieval == pytest.approx(eta, abs=1e-3)

    def test_direction_validated(self, uniform_grid, params_d10):
        s = SpinWave(grid=uniform_grid, samples=np.ones(uniform_grid.n))
        with pytest.raises(ValueError):
            simulate_retrieval(s, constant_control(1.0, 5.0), params_d10, direction="sideways")

    def test_too_coarse_grid_rejected(self, uniform_grid, params_d10):
        s = SpinWave(grid=uniform_grid, samples=np.ones(uniform_grid.n))
        with pytest.raises(ValueError, match="n_zeta"):
            simulate_retrieval(s, constant_control(1.0, 5.0), params_d10, n_zeta=32)


class TestFastStorage:
    def test_zero_input_zero_stored(self, params_d10):
        g = TimeGrid.linspace(0.0, 5.0, 501)
        run = simulate_fast_storage(FieldMode(grid=g, samples=np.zeros(501)), params_d10)
        assert run.breakdown.eta_storage == 0.0

    def test_requires_resonance(self, reference_input):
        with pytest.raises(ValueError):
            simulate_fast_storage(reference_input, MediumParams(d=10.0, delta=1.0))

    def test_too_coarse_grid_rejected(self, params_d10):
        inp = optimal_fast_input(10.0, recommended_fast_grid(10.0)).mode
        with pytest.raises(ValueError, match="n_zeta"):
            simulate_fast_storage(inp, params_d10, n_zeta=32)

    def test_long_input_stores_poorly(self, optimal_modes):
        from photonmem import optimal_fast_input

        d = 10.0
        _, eta = optimal_modes[d]
        matched = optimal_fast_input(d, recommended_fast_grid(d))
        best = simulate_fast_storage(matched.mode, MediumParams(d=d)).breakdown.eta_storage
        long_input = make_reference_input(50.0, TimeGrid.linspace(0.0, 50.0, 2001))
        worse = simulate_fast_storage(long_input, MediumParams(d=d)).breakdown.eta_storage
        assert worse < 0.5 * best


class TestEnergyAccounting:
    def test_audit_balances_representative_runs(self, reference_input, params_d10):
        runs = [
            simulate_storage(reference_input, constant_control(1.0, 20.0, 2001), params_d10),
            simulate_storage(reference_input, None, MediumParams(d=3.0)),
            simulate_retrieval(
                SpinWave(grid=SpaceGrid.uniform_midpoint(256),
                         samples=smooth_test_wave(SpaceGrid.uniform_midpoint(256), 0)),
                constant_control(2.0, 15.0),
                params_d10,
            ),
        ]
        for run in runs:
            report = energy_audit(run)
            assert report.balanced(1e-4)
            b = run.breakdown
            total = (
                b.eta_storage + b.eta_retrieval - b.eta_total + b.leak_fraction
                if run.diagnostics["kind"] == "retrieval"
                else b.eta_storage + b.leak_fraction
            )
            # storage sum rule as stated: stored + leaked + decayed = 1
            if run.diagnostics["kind"] == "storage":
                assert b.eta_storage + b.leak_fraction + b.decay_fraction == pytest.approx(
                    1.0, abs=1e-4
                )

    def test_run_record_is_the_audit_and_reads_by_key(self, params_d10):
        inp = make_reference_input(10.0, TimeGrid.linspace(0.0, 10.0, 501))
        run = simulate_storage(inp, constant_control(2.0, 10.0, 501), params_d10, n_zeta=64)
        record = run.diagnostics
        assert energy_audit(run) is record
        fields = ("input_norm2", "initial_excitation", "stored", "leaked", "decayed",
                  "residual_polarization", "defect", "kind", "dtau", "n_steps", "dtau_min",
                  "n_zeta", "refinements", "ring_down_time")
        for key in fields:
            assert record[key] == getattr(record, key)
        assert record["kind"] == "storage" and record["n_zeta"] == 64
        for key in ("balanced", "no_such_key"):
            with pytest.raises(KeyError):
                record[key]
        with pytest.raises(AttributeError):
            record.defect = 0.0
        with pytest.raises(TypeError):
            record["defect"] = 0.0

    def test_rk4_defect_order(self, params_d10):
        # halving the step shrinks the balance defect ~16x
        inp = make_reference_input(10.0, TimeGrid.linspace(0.0, 10.0, 501))
        ctrl = constant_control(2.0, 10.0, 501)
        defects = []
        for dt in (0.02, 0.01):
            run = simulate_storage(
                inp, ctrl, params_d10, dtau=dt, ring_down=False
            )
            defects.append(abs(run.diagnostics["defect"]))
        order = np.log2(defects[0] / defects[1])
        assert order == pytest.approx(4.0, abs=0.5)

    def test_damping_free_evolution_conserves_excitation(self, uniform_grid):
        # with the polarization decay switched off the generator is
        # norm-preserving; only solver error remains
        integ = _Integrator(MediumParams(d=5.0), uniform_grid.n, damping=0.0)
        rng = np.random.default_rng(3)
        p0 = rng.normal(size=uniform_grid.n) + 1j * rng.normal(size=uniform_grid.n)
        s0 = rng.normal(size=uniform_grid.n) + 1j * rng.normal(size=uniform_grid.n)
        p, s, _, _, leak, dec, n0, _ = march_uniform(
            integ, p0, s0, 0.0, 0.01, 400, ctrl=constant_control(1.0, 4.0, 2)
        )
        assert dec == 0.0
        n_end = integ.dz * float(np.sum(np.abs(p) ** 2 + np.abs(s) ** 2))
        assert n_end + leak == pytest.approx(n0, abs=1e-9)

    def test_instability_raises_with_advice(self, reference_input):
        with pytest.raises(InstabilityError):
            simulate_storage(
                reference_input,
                constant_control(1.0, 20.0, 2001),
                MediumParams(d=300.0),
                dtau=0.2,
            )

    def test_grid_refinement_stable(self, reference_input, params_d10):
        ctrl = constant_control(1.2, 20.0, 2001)
        run1 = simulate_storage(reference_input, ctrl, params_d10, n_zeta=128, dtau=0.01)
        run2 = simulate_storage(reference_input, ctrl, params_d10, n_zeta=256, dtau=0.005)
        assert run1.breakdown.eta_storage == pytest.approx(
            run2.breakdown.eta_storage, abs=1e-4
        )


# The time error the controller is held to in these tests, against uniform
# steps of 0.0025: above the largest move measured on 28 session-like
# simulate calls (3.2e-7) and below that of the sampling-grid steps the
# controller replaced (1.0e-6 on the same calls).
TIME_ERR_TOL = 4e-7


def _kink_pair(**kw):
    """Storage then backward retrieval under a piecewise-linear control with
    kinks, the ``simulate --d 30 --control "0:2.0; 10.0:0.7; 14.0:0"
    --retrieve backward`` case."""
    inp = make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 2001))
    ctrl = _parse_piecewise_control("0:2.0; 10.0:0.7; 14.0:0", inp.grid, "control")
    params = MediumParams(d=30.0)
    run = simulate_storage(inp, ctrl, params, **kw)
    stored = SpinWave(grid=run.final_state.grid, samples=run.final_state.S)
    return run, simulate_retrieval(stored, ctrl, params, **kw)


def _fractions(run):
    b = run.breakdown
    return np.array([b.eta_storage, b.eta_retrieval, b.leak_fraction, b.decay_fraction,
                     b.residual_fraction])


class TestStepController:
    def test_kink_case_matches_a_fine_uniform_run(self):
        adaptive, fine = _kink_pair(), _kink_pair(dtau=0.0025)
        for a, f in zip(adaptive, fine):
            assert np.max(np.abs(_fractions(a) - _fractions(f))) <= TIME_ERR_TOL
            record = a.diagnostics
            # the kinks cost redone chunks and short steps; the smooth
            # stretches and the ring-down run at the longest step
            assert record["refinements"] >= 1
            assert record["dtau_min"] < record["dtau"] == simulator._medium_dtau(
                MediumParams(d=30.0))
            assert 0.0 < record["local_error"] <= simulator._STEP_TOL
            assert record["n_steps"] < fine[0].output_mode.grid.n / 2
            # the output sits on the grid the sampling sets
            assert a.output_mode.grid == TimeGrid(0.0, 0.01, 2001)
        # and the dense output follows the uniform run's output field to a
        # few times the state tolerance, in units of the unit input's amplitude
        for a, f in zip(adaptive, fine):
            gap = np.max(np.abs(a.output_mode.samples - f.output_mode.samples[::4]))
            assert gap <= 5 * simulator._STEP_TOL

    def test_fast_storage_matches_a_fine_explicit_run(self):
        d = 300.0
        mode = optimal_fast_input(d, recommended_fast_grid(d)).mode
        params = MediumParams(d=d)
        adaptive = simulate_fast_storage(mode, params, n_zeta=128)
        fine = simulate_fast_storage(mode, params, n_zeta=128, dtau=mode.grid.dtau / 2)
        assert np.max(np.abs(_fractions(adaptive) - _fractions(fine))) <= TIME_ERR_TOL
        assert adaptive.output_mode.grid == mode.grid
        assert adaptive.diagnostics["n_steps"] < mode.grid.n / 10

    def test_redone_chunk_leaves_no_trace(self):
        # a policy whose tolerance fails the first chunk at its first step:
        # the chunk is redone from its saved start at the policy's next step,
        # so the run equals one that took that step from the start
        class FailFirst:
            def __init__(self, h0, h1):
                self.h, self.h1, self.tol, self.energy_tol = h0, h1, 1e-300, 1e-300

            def judge(self, ratio, h):
                self.h, self.tol, self.energy_tol = self.h1, math.inf, math.inf

        # drives off, so the drives' share of the estimate is 0 and the chunk
        # runs its first step before it fails
        params, n_zeta = MediumParams(d=10.0, delta=3.0), 64
        p0, s0, _, _ = TestFusedStep._driven_case(n_zeta, 11)
        inp = ctrl = None
        integ = _Integrator(params, n_zeta)
        h1, n = 0.004, 150
        times = 0.5 + h1 * np.arange(n + 1)
        redone = integ.march(p0, s0, (0.5, times[-1]), inp, ctrl, FailFirst(0.01, h1), times)
        assert integ.redone == 1 and integ.n_steps == n
        ref = _ReferenceIntegrator(params, n_zeta).run(p0, s0, 0.5, np.full(n, h1), inp, ctrl)
        TestFusedStep._assert_close(redone[:7], ref)

    def test_cut_chunks_keep_their_steps(self, monkeypatch):
        # a tight tolerance cuts chunks where the estimate fails; the steps
        # before the failure are kept, so the balance still closes and the
        # record counts each cut
        monkeypatch.setattr(simulator, "_STEP_TOL", 1e-9)
        run = simulate_storage(
            make_reference_input(10.0, TimeGrid.linspace(0.0, 10.0, 501)),
            constant_control(2.0, 10.0, 501), MediumParams(d=10.0), n_zeta=64,
        )
        record = run.diagnostics
        assert record["refinements"] >= 2
        assert abs(record["defect"]) <= 1e-9
        assert record["local_error"] <= 1e-9

    def test_step_budget_checked_as_steps_are_taken(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_STEPS", 450)
        tried = []
        real_march = _Integrator.march

        def recording(integ, *args, **kwargs):
            try:
                return real_march(integ, *args, **kwargs)
            finally:
                tried.append(integ.tried)

        monkeypatch.setattr(_Integrator, "march", recording)
        # 401 output samples, but more steps than that
        inp = make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 101))
        with pytest.raises(InstabilityError, match="more than 450 steps exceeds limit"):
            simulate_storage(inp, constant_control(1.0, 20.0, 101), MediumParams(d=10.0),
                             n_zeta=64)
        # the chunk that would pass the budget is refused before it runs
        assert tried[-1] <= 450

    def test_work_budget_refuses_a_run_before_it_allocates(self, monkeypatch):
        # T = 20 at d = 10: 400 steps at the medium's bound, or 200 at an
        # explicit dtau of 0.1, each on 64 cells; a run over the budget raises
        # before the integrator is built
        inp = make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 101))
        params = MediumParams(d=10.0)
        monkeypatch.setattr(simulator, "WORK_BUDGET", 25_599)
        monkeypatch.setattr(simulator, "_Integrator", None)
        with pytest.raises(InstabilityError, match=r"predicted 2\.56e\+04 cell-steps exceed "
                                                   r"the budget of 2\.56e\+04"):
            simulate_fast_storage(inp, params, n_zeta=64)
        with pytest.raises(TypeError):  # under the budget, the run reaches the integrator
            simulate_fast_storage(inp, params, n_zeta=64, dtau=0.1)

    def test_non_finite_reports_true_tau(self):
        integ = _Integrator(MediumParams(d=5.0), 64)
        p0 = np.zeros(64, dtype=complex)
        p0[3] = np.nan
        with pytest.raises(InstabilityError, match="tau=1.640"):
            march_uniform(integ, p0, p0, 1.0, 0.01, 200)

    def test_controller_redoes_an_unstable_chunk_until_the_step_underflows(self):
        # a NaN fails every chunk; the controller redoes each at a step cut
        # by the largest shrink instead of raising, until the step underflows
        integ = _Integrator(MediumParams(d=5.0), 64)
        p0 = np.zeros(64, dtype=complex)
        p0[3] = np.nan
        with pytest.raises(InstabilityError, match="underflows"):
            integ.march(p0, p0, (1.0, 3.0), None, None, _Controller(0.05, 1.0))
        assert integ.n_steps == 0
        assert integ.redone >= 1

    def test_long_window_memory_is_bounded(self):
        # T = 300 at d = 1: 6,001 output samples.  The drives are read per
        # chunk, so the peak stays below what two whole half-grid drive
        # arrays of 12,001 complex values would take (384 kB); it is about
        # the output's own arrays (273 kB measured)
        import tracemalloc

        T = 300.0
        inp = make_reference_input(T, TimeGrid.linspace(0.0, T, 201))
        ctrl = constant_control(1.0, T, 2)
        half_grid_bytes = 2 * (2 * 6_000 + 1) * 16
        tracemalloc.start()
        try:
            run = simulate_storage(inp, ctrl, MediumParams(d=1.0), n_zeta=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.output_mode.grid.n == 6_001
        assert peak < half_grid_bytes

    def test_output_grid_follows_the_sampling_and_the_medium(self, reference_input):
        # the output grid's spacing is at most the medium's step bound and
        # the input's and the control's sampling
        ctrl = constant_control(1.0, 20.0, 801)
        for d, expected in ((10.0, TimeGrid(0.0, 0.01, 2001)),
                            (300.0, TimeGrid(0.0, 20.0 / 2110, 2111))):
            run = simulate_storage(reference_input, ctrl, MediumParams(d=d), n_zeta=64)
            assert run.output_mode.grid == expected
        coarse = make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 101))
        run = simulate_storage(coarse, ctrl, MediumParams(d=10.0), n_zeta=64)
        assert run.output_mode.grid == TimeGrid(0.0, 0.025, 801)


class TestScaledSystemStructure:
    def test_frozen_spin_wave_and_unit_decay_without_control(self):
        # with the control off, S must not move and P decays at unit rate
        # (transparent-medium limit isolates the bare decay)
        n = 128
        grid = SpaceGrid.uniform_midpoint(n)
        integ = _Integrator(MediumParams(d=1e-12), n)
        rng = np.random.default_rng(11)
        p0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        s0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        p, s, *_ = march_uniform(integ, p0, s0, 0.0, 0.01, 300)
        assert np.array_equal(s, s0)
        assert np.allclose(p, p0 * np.exp(-3.0), rtol=1e-9)

    def test_resonant_real_structure_preserved(self, reference_input):
        # delta = 0 with a real control keeps E and S real and P imaginary
        run = simulate_storage(
            reference_input, constant_control(1.3, 20.0, 2001), MediumParams(d=10.0)
        )
        st = run.final_state
        assert np.max(np.abs(st.S.imag)) < 1e-10
        assert np.max(np.abs(st.P.real)) < 1e-10
        assert np.max(np.abs(run.output_mode.samples.imag)) < 1e-10

    def test_resonant_runs_step_in_the_real_subspace(self, reference_input):
        # storage then retrieval at delta = 0 with real drives: every step is
        # real, so the quadrature structure holds exactly, not to rounding
        params = MediumParams(d=10.0)
        ctrl = constant_control(1.3, 20.0, 2001)
        store = simulate_storage(reference_input, ctrl, params)
        stored = SpinWave(grid=store.final_state.grid, samples=store.final_state.S)
        back = simulate_retrieval(stored, ctrl, params)
        for run in (store, back):
            st = run.final_state
            assert run.diagnostics["arithmetic"] == run.diagnostics.arithmetic == "real"
            assert not np.any(st.P.real) and not np.any(st.S.imag)
            assert not np.any(run.output_mode.samples.imag)
        assert np.any(back.output_mode.samples.real)

    def test_raman_runs_step_complex(self, reference_input):
        run = simulate_storage(
            reference_input, constant_control(1.3, 20.0, 2001), MediumParams(d=10.0, delta=5.0)
        )
        assert run.diagnostics["arithmetic"] == "complex"


class TestClosedFormAgreement:
    def test_adiabatic_output_matches_simulation(self, optimal_modes, uniform_grid):
        # needs a smooth (ramped) control and enough depth: the quasi-static
        # form carries an O(1/d) response lag relative to the true dynamics
        d = 30.0
        s_opt, _ = optimal_modes[d]
        g = TimeGrid.linspace(0.0, 8.0, 2401)  # duration * d = 240
        omega = 1.5 * np.tanh(g.times / 2.0) ** 2
        ctrl = ControlField(grid=g, samples=omega.astype(complex))
        params = MediumParams(d=d)
        cf = retrieve_adiabatic(s_opt, ctrl, params)
        stored = flip(resample_spinwave(s_opt, uniform_grid))
        run = simulate_retrieval(stored, ctrl, params, direction="backward", dtau=0.002)
        sim_on_ctrl = np.interp(ctrl.grid.times, run.output_mode.grid.times,
                                run.output_mode.samples.real)
        err = np.sqrt(np.trapezoid((sim_on_ctrl - cf.samples.real) ** 2, dx=ctrl.grid.dtau))
        assert err < 1e-2

    def test_fast_output_matches_simulation(self, optimal_modes, uniform_grid):
        from photonmem import pi_pulse
        from photonmem.simulator import EnsembleState

        d = 10.0
        s_opt, _ = optimal_modes[d]
        s_u = resample_spinwave(s_opt, uniform_grid)
        integ = _Integrator(MediumParams(d=d), uniform_grid.n)
        state = pi_pulse(
            EnsembleState(
                grid=uniform_grid,
                E=np.zeros(uniform_grid.n, dtype=complex),
                P=np.zeros(uniform_grid.n, dtype=complex),
                S=s_u.samples,
                tau=0.0,
            )
        )
        n_steps = 6000
        dt = 12.0 / n_steps
        _, _, out, _, leak, _, _, _ = march_uniform(integ, state.P, state.S, 0.0, dt, n_steps)
        grid = TimeGrid(tau0=0.0, dtau=dt, n=n_steps + 1)
        cf = retrieve_fast(s_u, d, grid)
        err = np.sqrt(np.trapezoid(np.abs(cf.samples - out) ** 2, dx=dt))
        assert err < 1e-3


class _ReferenceIntegrator:
    """Stage-by-stage RK4 that rebuilds the field profile at every stage.

    Kept as the oracle for the fused ``_Integrator.march``: same scheme, one
    right-hand side call per stage, every array a fresh temporary, the
    drives read from the same splines at each stage's time.
    """

    def __init__(self, params: MediumParams, n_zeta: int, damping: float = 1.0):
        self.params = params
        self.grid = SpaceGrid.uniform_midpoint(n_zeta)
        self.dz = 1.0 / n_zeta
        self.sqrt_d = math.sqrt(params.d)
        self.damping = damping
        self.decay_coeff = -(damping + 1j * params.delta)

    def field_profile(self, p: np.ndarray, e_in: complex):
        """Cell-center field values and the exit-face value for given P."""
        cs = np.cumsum(p) * self.dz
        e_end = e_in + 1j * self.sqrt_d * cs[-1]
        e_centers = e_in + 1j * self.sqrt_d * (cs - 0.5 * self.dz * p)
        return e_centers, e_end

    def _rhs(self, p, s, e_in, om):
        e_centers, e_end = self.field_profile(p, e_in)
        dp = self.decay_coeff * p + 1j * self.sqrt_d * e_centers + 1j * om * s
        ds = 1j * np.conj(om) * p
        dleak = abs(e_end) ** 2
        ddec = 2.0 * self.damping * self.dz * float(np.sum(np.abs(p) ** 2))
        din = abs(e_in) ** 2
        return dp, ds, din, dleak, ddec

    def run(self, p0, s0, t0, steps, inp=None, ctrl=None, record_output=True):
        """March one RK4 step per entry of ``steps``; ``inp`` and ``ctrl`` are
        sampled waveforms or ``None``."""
        drives = [(lambda t: 0.0) if wf is None else
                  (lambda t, f=_WaveformSpline(wf): complex(f(np.array([t]))[0]))
                  for wf in (inp, ctrl)]

        def at(t):
            return drives[0](t), drives[1](t)

        p = np.array(p0, dtype=complex)
        s = np.array(s0, dtype=complex)
        acc_in = acc_leak = acc_dec = 0.0
        n0 = self.dz * float(np.sum(np.abs(p) ** 2 + np.abs(s) ** 2))
        out = np.empty(len(steps) + 1, dtype=complex) if record_output else None
        if record_output:
            out[0] = self.field_profile(p, at(t0)[0])[1]
        tau = t0
        for k, dt in enumerate(np.asarray(steps, dtype=float).tolist()):
            (e0, w0), (e1, w1), (e2, w2) = at(tau), at(tau + 0.5 * dt), at(tau + dt)
            k1 = self._rhs(p, s, e0, w0)
            k2 = self._rhs(p + 0.5 * dt * k1[0], s + 0.5 * dt * k1[1], e1, w1)
            k3 = self._rhs(p + 0.5 * dt * k2[0], s + 0.5 * dt * k2[1], e1, w1)
            k4 = self._rhs(p + dt * k3[0], s + dt * k3[1], e2, w2)
            p = p + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            s = s + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            acc_in += (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            acc_leak += (dt / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
            acc_dec += (dt / 6.0) * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
            tau += dt
            if record_output:
                out[k + 1] = self.field_profile(p, e2)[1]
        return p, s, out, acc_in, acc_leak, acc_dec, n0


class _Scripted:
    """Step policy of a given step per chunk; keeps every step."""

    tol = energy_tol = math.inf

    def __init__(self, chunk_steps):
        self._next = iter(chunk_steps)
        self.h = next(self._next)

    def judge(self, ratio, h):
        self.h = next(self._next, self.h)


def _schedule(n_steps, dt, seed=None):
    """Per-chunk steps for ``n_steps`` RK4 steps: all ``dt``, or with a seed
    one step drawn from [dt/2, 3 dt/2] per chunk.  Returns the chunk steps
    and the step of every RK4 step."""
    n_chunks = -(-n_steps // simulator._CHUNK)
    if seed is None:
        chunk = np.full(n_chunks, dt)
    else:
        chunk = np.random.default_rng(seed).uniform(0.5 * dt, 1.5 * dt, n_chunks)
    per_step = np.repeat(chunk, simulator._CHUNK)[:n_steps]
    return list(chunk), per_step


# Fixed before the comparison was first run: the fused step regroups the
# same sums, so the two integrators differ only by rounding, which over a
# few hundred stable steps stays orders of magnitude below this.
FUSED_REL_TOL = 1e-12


def _max_abs(x):
    return float(np.max(np.abs(x)))


class TestFusedStep:
    @staticmethod
    def _driven_case(n_zeta, seed, span=3.0, t0=0.5):
        rng = np.random.default_rng(seed)
        p0 = 0.3 * (rng.normal(size=n_zeta) + 1j * rng.normal(size=n_zeta))
        s0 = rng.normal(size=n_zeta) + 1j * rng.normal(size=n_zeta)
        g = TimeGrid.linspace(t0, t0 + span, 601)
        u = (g.times - t0) / span
        inp = FieldMode(grid=g, samples=(0.8 + 0.3j) * np.sin(3.0 * u) + 0.2j)
        ctrl = ControlField(grid=g, samples=(1.5 - 0.7j) * np.exp(-u) + 0.4)
        return p0, s0, inp, ctrl

    @staticmethod
    def _assert_close(fused, ref):
        for name, a, b in zip(("p", "s", "out", "acc_in", "acc_leak", "acc_dec", "n0"), fused, ref):
            if b is None:
                assert a is None, name
                continue
            assert np.shape(a) == np.shape(b), name
            assert _max_abs(np.subtract(a, b)) <= FUSED_REL_TOL * _max_abs(b), name

    @classmethod
    def _assert_matches_reference(cls, params, n_zeta, case, n_steps, dt, seed=None,
                                  record_output=True, arithmetic=None, damping=1.0):
        p0, s0, inp, ctrl = case
        chunk_steps, per_step = _schedule(n_steps, dt, seed)
        t0 = inp.grid.tau0 if inp is not None else 0.5
        times = t0 + np.concatenate(([0.0], np.cumsum(per_step)))
        integ = _Integrator(params, n_zeta, damping=damping)
        fused = integ.march(p0, s0, (t0, times[-1]), inp, ctrl, _Scripted(chunk_steps),
                            times if record_output else None)
        assert integ.n_steps == n_steps and integ.redone == 0
        if arithmetic is not None:
            assert integ.complex_steps == (0 if arithmetic == "real" else n_steps)
        ref = _ReferenceIntegrator(params, n_zeta, damping=damping).run(
            p0, s0, t0, per_step, inp, ctrl, record_output
        )
        cls._assert_close(fused[:7], ref)
        return fused

    @pytest.mark.parametrize("n_zeta", [64, 512])
    @pytest.mark.parametrize("damping", [1.0, 0.0])
    @pytest.mark.parametrize("delta", [0.0, 30.0])
    @pytest.mark.parametrize("per_step_dt", [False, True])
    @pytest.mark.parametrize("record_output", [True, False])
    def test_matches_stage_by_stage_reference(
        self, n_zeta, damping, delta, per_step_dt, record_output
    ):
        # with per_step_dt the step changes from chunk to chunk
        params = MediumParams(d=10.0, delta=delta)
        case = self._driven_case(n_zeta, n_zeta + int(delta))
        self._assert_matches_reference(params, n_zeta, case, 150, 0.01,
                                       seed=1 if per_step_dt else None,
                                       record_output=record_output, damping=damping)

    def test_growth_guard_trips_on_oversized_step(self):
        # |delta| dt = 5 is far outside RK4's stability region, yet the
        # state stays finite over the first 64 steps, so the growth check
        # (not the non-finite one) must stop the run
        integ = _Integrator(MediumParams(d=5.0, delta=100.0), 64)
        rng = np.random.default_rng(5)
        p0 = rng.normal(size=64) + 1j * rng.normal(size=64)
        with pytest.raises(InstabilityError, match="excitation grew beyond the injected energy"):
            march_uniform(integ, p0, p0, 0.0, 0.05, 200, record_output=False)

    @pytest.mark.parametrize("d", [1e-3, 300.0])
    def test_extreme_depths_with_drive(self, d):
        # the drive enters through the ghost cell as -i sqrt(d) e / beta, so
        # the smallest and largest beta = d dz bound the rounding it adds
        n_zeta = 128
        case = self._driven_case(n_zeta, 3, span=0.5)
        self._assert_matches_reference(MediumParams(d=d, delta=7.0), n_zeta, case, 200, 0.002)

    def test_ring_down_shape(self):
        # the ring-down's drives: control and input both off
        n_zeta = 256
        p0, s0, *_ = self._driven_case(n_zeta, 4)
        _, s, *_ = self._assert_matches_reference(
            MediumParams(d=30.0, delta=3.0), n_zeta, (p0, s0, None, None), 250, 0.02,
            record_output=False,
        )
        assert np.array_equal(s, s0)

    def test_run_longer_than_one_block(self):
        # many chunks, each at its own step
        n_zeta, n_steps = 64, 4096 + 37
        case = self._driven_case(n_zeta, 6, span=13.0)
        self._assert_matches_reference(MediumParams(d=10.0, delta=5.0), n_zeta, case, n_steps,
                                       0.002, seed=6)

    def test_leaves_inputs_unmodified_and_repeats(self):
        n_zeta = 128
        p0, s0, inp, ctrl = self._driven_case(n_zeta, 7)
        before = [np.copy(p0), np.copy(s0), np.copy(inp.samples), np.copy(ctrl.samples)]
        integ = _Integrator(MediumParams(d=10.0, delta=30.0), n_zeta)
        first = march_uniform(integ, p0, s0, 0.5, 0.01, 150, inp, ctrl)
        second = march_uniform(integ, p0, s0, 0.5, 0.01, 150, inp, ctrl)
        for a, b in zip((p0, s0, inp.samples, ctrl.samples), before):
            assert np.array_equal(a, b)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @staticmethod
    def _real_case(n_zeta, seed, span=3.0):
        # the resonant subspace: P imaginary, S, the input and the control real
        rng = np.random.default_rng(seed)
        p0 = 0.3j * rng.normal(size=n_zeta)
        s0 = rng.normal(size=n_zeta).astype(complex)
        g = TimeGrid.linspace(0.5, 0.5 + span, 601)
        u = (g.times - 0.5) / span
        inp = FieldMode(grid=g, samples=0.8 * np.sin(3.0 * u) + 0.2)
        ctrl = ControlField(grid=g, samples=1.5 * np.exp(-u) + 0.4)
        return p0, s0, inp, ctrl

    @pytest.mark.parametrize("n_zeta", [64, 512])
    @pytest.mark.parametrize("damping", [1.0, 0.0])
    @pytest.mark.parametrize("per_step_dt", [False, True])
    @pytest.mark.parametrize("record_output", [True, False])
    def test_real_subspace_matches_stage_by_stage_reference(
        self, n_zeta, damping, per_step_dt, record_output
    ):
        case = self._real_case(n_zeta, n_zeta)
        p, s, out, *_ = self._assert_matches_reference(
            MediumParams(d=10.0), n_zeta, case, 150, 0.01, seed=1 if per_step_dt else None,
            record_output=record_output, arithmetic="real", damping=damping,
        )
        assert p.dtype == s.dtype == complex
        assert not np.any(p.real) and not np.any(s.imag)
        if record_output:
            assert not np.any(out.imag)

    @pytest.mark.parametrize("leaves", ["delta", "e_in", "omega", "p0", "s0"])
    def test_inputs_off_the_real_subspace_step_complex(self, leaves):
        # one nonzero number outside the subspace sends the run down the
        # complex path, however small it is
        n_zeta = 128
        p0, s0, inp, ctrl = self._real_case(n_zeta, 8)
        delta = 3.0 if leaves == "delta" else 0.0
        if leaves == "e_in":
            inp = FieldMode(grid=inp.grid, samples=inp.samples + 1e-300j * (np.arange(601) == 17))
        elif leaves == "omega":
            ctrl = ControlField(grid=ctrl.grid,
                                samples=ctrl.samples + 1e-300j * (np.arange(601) == 17))
        elif leaves == "p0":
            p0[5] += 0.1
        elif leaves == "s0":
            s0[5] += 0.1j
        self._assert_matches_reference(MediumParams(d=10.0, delta=delta), n_zeta,
                                       (p0, s0, inp, ctrl), 150, 0.01, arithmetic="complex")

    def test_real_subspace_keeps_the_instability_checks(self):
        # a strong real control far outside RK4's stability region at this
        # step: the growth check trips while the state is still finite, and a
        # stronger one overflows into the non-finite check
        n_zeta = 64
        p0, s0, _, _ = self._real_case(n_zeta, 9)
        for omega, message in ((60.0, "excitation grew beyond"), (1e4, "non-finite state")):
            integ = _Integrator(MediumParams(d=5.0), n_zeta)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                InstabilityError, match=message
            ):
                march_uniform(integ, p0, s0, 0.0, 0.05, 200,
                              ctrl=constant_control(omega, 10.0, 2), record_output=False)
            assert integ.complex_steps == 0
