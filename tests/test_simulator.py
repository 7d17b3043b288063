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
from photonmem.simulator import DEFECT_TOL, _Integrator, default_dtau

from conftest import smooth_test_wave


def constant_control(omega, T, n=1501):
    g = TimeGrid.linspace(0.0, T, n)
    return ControlField(grid=g, samples=np.full(n, omega, dtype=complex))


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
                inp, ctrl, params_d10, dtau=dt, max_refinements=0, ring_down=False
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
        n_steps = 400
        zeros = np.zeros(2 * n_steps + 1, dtype=complex)
        omg = np.full(2 * n_steps + 1, 1.0, dtype=complex)
        p, s, _, _, leak, dec, n0 = integ.run(p0, s0, 0.0, 0.01, n_steps, zeros, omg)
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
                max_refinements=0,
            )

    def test_grid_refinement_stable(self, reference_input, params_d10):
        ctrl = constant_control(1.2, 20.0, 2001)
        run1 = simulate_storage(reference_input, ctrl, params_d10, n_zeta=128, dtau=0.01)
        run2 = simulate_storage(reference_input, ctrl, params_d10, n_zeta=256, dtau=0.005)
        assert run1.breakdown.eta_storage == pytest.approx(
            run2.breakdown.eta_storage, abs=1e-4
        )


@pytest.fixture(scope="module")
def shaped_runs(reference_input, gauss_grid):
    """Shaped Raman controls and their default (locally substepped) runs."""
    runs = {}
    for d, delta in ((10.0, 50.0), (100.0, -20.0)):
        params = MediumParams(d=d, delta=delta)
        ctrl = optimal_storage_control(reference_input, params, grid=gauss_grid).control
        runs[d, delta] = params, ctrl, simulate_storage(reference_input, ctrl, params, n_zeta=128)
    return runs


class TestLocalSubsteps:
    @pytest.mark.parametrize("case", [(10.0, 50.0), (100.0, -20.0)])
    def test_matches_uniform_oracle(self, case, shaped_runs, reference_input):
        # the uniform oracle resolves the control's peak everywhere, as the
        # step rule did before it was applied per coarse step
        params, ctrl, local = shaped_runs[case]
        w = float(np.max(np.abs(ctrl.samples)))
        dt_uniform = min(default_dtau(params, ctrl, reference_input),
                         max(0.5 / w**2, 0.3 / w))
        uniform = simulate_storage(reference_input, ctrl, params, n_zeta=128, dtau=dt_uniform)
        assert local.breakdown.eta_storage == pytest.approx(
            uniform.breakdown.eta_storage, abs=1e-6
        )
        for run in (local, uniform):
            assert abs(run.diagnostics["defect"]) <= DEFECT_TOL
            assert run.diagnostics["refinements"] == 0
        assert local.diagnostics["n_steps"] <= uniform.diagnostics["n_steps"] / 5
        assert local.diagnostics["dtau_min"] < local.diagnostics["dtau"]
        assert uniform.diagnostics["dtau_min"] == uniform.diagnostics["dtau"]

    def test_no_substeps_is_bit_identical_to_uniform(self, reference_input, params_d10):
        ctrl = constant_control(1.2, 20.0, 2001)
        default = simulate_storage(reference_input, ctrl, params_d10)
        explicit = simulate_storage(
            reference_input, ctrl, params_d10, dtau=default_dtau(params_d10, ctrl, reference_input)
        )
        assert default.diagnostics["n_steps"] == reference_input.grid.n - 1
        assert np.array_equal(default.final_state.S, explicit.final_state.S)
        assert np.array_equal(default.output_mode.samples, explicit.output_mode.samples)

    def test_step_budget_checked_before_drives(self, shaped_runs, reference_input, monkeypatch):
        params, ctrl, run = shaped_runs[10.0, 50.0]
        n_coarse = run.output_mode.grid.n - 1
        n_sub = run.diagnostics["n_steps"]
        assert n_coarse < n_sub
        monkeypatch.setattr(simulator, "MAX_STEPS", (n_coarse + n_sub) // 2)
        evaluated = []
        real_waveform_on = simulator._waveform_on

        def recording(times, wf):
            evaluated.append(times.size)
            return real_waveform_on(times, wf)

        monkeypatch.setattr(simulator, "_waveform_on", recording)
        with pytest.raises(InstabilityError, match="exceeds limit"):
            simulate_storage(reference_input, ctrl, params, n_zeta=128, max_refinements=0)
        # only the coarse control probe ran: no input or substep drive array
        assert evaluated == [2 * n_coarse + 1]

    def test_non_finite_reports_true_tau(self):
        integ = _Integrator(MediumParams(d=5.0), 64)
        p0 = np.zeros(64, dtype=complex)
        p0[3] = np.nan
        dts = np.r_[np.full(32, 0.01), np.full(32, 0.02)]
        zeros = np.zeros(2 * dts.size + 1, dtype=complex)
        with pytest.raises(InstabilityError, match="tau=1.960"):
            integ.run(p0, p0, 1.0, dts, dts.size, zeros, zeros)


# Runs whose explicit step 0.2 fails the balance audit before it passes.
_COARSE_RUNS = {
    "storage": lambda **kw: simulate_storage(
        make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 2001)),
        constant_control(1.0, 20.0, 2001), MediumParams(d=30.0, delta=12.0),
        dtau=0.2, n_zeta=64, **kw,
    ),
    "retrieval": lambda **kw: simulate_retrieval(
        SpinWave(grid=SpaceGrid.uniform_midpoint(64), samples=np.ones(64)),
        constant_control(1.0, 20.0), MediumParams(d=30.0), dtau=0.2, n_zeta=64, **kw,
    ),
    "fast": lambda **kw: simulate_fast_storage(
        optimal_fast_input(3.0, recommended_fast_grid(3.0)).mode, MediumParams(d=3.0),
        dtau=0.2, n_zeta=64, **kw,
    ),
}


class TestRefinement:
    @pytest.mark.parametrize("kind", sorted(_COARSE_RUNS))
    def test_explicit_step_refines_until_balanced(self, kind):
        run = _COARSE_RUNS[kind]()
        refinements = run.diagnostics["refinements"]
        assert refinements >= 1
        assert abs(run.diagnostics["defect"]) <= DEFECT_TOL
        assert run.diagnostics["dtau"] <= 0.2 / 2**refinements + 1e-12
        with pytest.raises(InstabilityError):
            _COARSE_RUNS[kind](max_refinements=0)

    @pytest.mark.parametrize("case", [(10.0, 50.0), (100.0, -20.0)])
    def test_default_step_refinement_halves_substeps(
        self, case, shaped_runs, reference_input, monkeypatch
    ):
        params, ctrl, first = shaped_runs[case]
        monkeypatch.setattr(simulator, "DEFECT_TOL", abs(first.diagnostics["defect"]) / 2)
        run = simulate_storage(reference_input, ctrl, params, n_zeta=128)
        before, after = first.diagnostics, run.diagnostics
        assert after["refinements"] == 1
        # the coarse step and the local substep bound halve together, so the
        # smallest substep halves; the count about doubles (not exactly: each
        # coarse step samples the control at three new points)
        assert after["dtau_min"] <= 0.51 * before["dtau_min"]
        assert after["n_steps"] >= 1.95 * before["n_steps"]


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
        n_steps = 300
        zeros = np.zeros(2 * n_steps + 1, dtype=complex)
        p, s, _, _, _, _, _ = integ.run(p0, s0, 0.0, 0.01, n_steps, zeros, zeros)
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
        zeros = np.zeros(2 * n_steps + 1, dtype=complex)
        _, _, out, _, leak, _, _ = integ.run(state.P, state.S, 0.0, dt, n_steps, zeros, zeros)
        grid = TimeGrid(tau0=0.0, dtau=dt, n=n_steps + 1)
        cf = retrieve_fast(s_u, d, grid)
        err = np.sqrt(np.trapezoid(np.abs(cf.samples - out) ** 2, dx=dt))
        assert err < 1e-3


class _ReferenceIntegrator:
    """Stage-by-stage RK4 that rebuilds the field profile at every stage.

    Kept as the oracle for the fused ``_Integrator.run``: same scheme, one
    right-hand side call per stage, every array a fresh temporary.
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

    def run(self, p0, s0, t0, dt, n_steps, e_in_half, om_half, record_output=True):
        """March n_steps of RK4; half-grid arrays hold the drive at stage times.

        ``dt`` is one step size for all steps or an array of per-step sizes.
        """
        p = np.array(p0, dtype=complex)
        s = np.array(s0, dtype=complex)
        acc_in = acc_leak = acc_dec = 0.0
        n0 = self.dz * float(np.sum(np.abs(p) ** 2 + np.abs(s) ** 2))
        out = np.empty(n_steps + 1, dtype=complex) if record_output else None
        if record_output:
            out[0] = self.field_profile(p, e_in_half[0])[1]
        check_every = 64
        tau = t0
        steps = np.broadcast_to(np.asarray(dt, dtype=float), (n_steps,)).tolist()
        for k, dt in enumerate(steps):
            e0, e1, e2 = e_in_half[2 * k], e_in_half[2 * k + 1], e_in_half[2 * k + 2]
            w0, w1, w2 = om_half[2 * k], om_half[2 * k + 1], om_half[2 * k + 2]
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
            if (k + 1) % check_every == 0 or k == n_steps - 1:
                n_now = self.dz * float(np.sum(np.abs(p) ** 2 + np.abs(s) ** 2))
                if not np.isfinite(n_now):
                    raise InstabilityError(
                        f"non-finite state at tau={tau:.3f}; reduce dtau"
                    )
                # leaked/decayed energy never returns, so the excitation still
                # in the medium can only exceed the injected budget through
                # numerical blow-up
                if self.damping >= 1.0 and n_now > n0 + acc_in + 1e-6:
                    raise InstabilityError(
                        "excitation grew beyond the injected energy; reduce dtau"
                    )
        return p, s, out, acc_in, acc_leak, acc_dec, n0


# Fixed before the comparison was first run: the fused step regroups the
# same sums, so the two integrators differ only by rounding, which over a
# few hundred stable steps stays orders of magnitude below this.
FUSED_REL_TOL = 1e-12


def _max_abs(x):
    return float(np.max(np.abs(x)))


class TestFusedStep:
    @pytest.mark.parametrize("n_zeta", [64, 512])
    @pytest.mark.parametrize("damping", [1.0, 0.0])
    @pytest.mark.parametrize("delta", [0.0, 30.0])
    @pytest.mark.parametrize("per_step_dt", [False, True])
    @pytest.mark.parametrize("record_output", [True, False])
    def test_matches_stage_by_stage_reference(
        self, n_zeta, damping, delta, per_step_dt, record_output
    ):
        params = MediumParams(d=10.0, delta=delta)
        rng = np.random.default_rng(n_zeta + int(delta))
        n_steps = 150
        p0 = 0.3 * (rng.normal(size=n_zeta) + 1j * rng.normal(size=n_zeta))
        s0 = rng.normal(size=n_zeta) + 1j * rng.normal(size=n_zeta)
        t = np.linspace(0.0, 1.0, 2 * n_steps + 1)
        e_half = (0.8 + 0.3j) * np.sin(3.0 * t) + 0.2j
        om_half = (1.5 - 0.7j) * np.exp(-t) + 0.4
        dt = rng.uniform(0.005, 0.015, n_steps) if per_step_dt else 0.01
        args = (p0, s0, 0.5, dt, n_steps, e_half, om_half, record_output)
        fused = _Integrator(params, n_zeta, damping=damping).run(*args)
        ref = _ReferenceIntegrator(params, n_zeta, damping=damping).run(*args)
        names = ("p", "s", "out", "acc_in", "acc_leak", "acc_dec", "n0")
        for name, a, b in zip(names, fused, ref):
            if b is None:
                assert a is None, name
                continue
            assert np.shape(a) == np.shape(b), name
            assert _max_abs(np.subtract(a, b)) <= FUSED_REL_TOL * _max_abs(b), name

    def test_growth_guard_trips_on_oversized_step(self):
        # |delta| dt = 5 is far outside RK4's stability region, yet the
        # state stays finite over the first 64 steps, so the growth check
        # (not the non-finite one) must stop the run
        integ = _Integrator(MediumParams(d=5.0, delta=100.0), 64)
        rng = np.random.default_rng(5)
        p0 = rng.normal(size=64) + 1j * rng.normal(size=64)
        n_steps = 200
        zeros = np.zeros(2 * n_steps + 1, dtype=complex)
        with pytest.raises(InstabilityError, match="excitation grew beyond the injected energy"):
            integ.run(p0, p0, 0.0, 0.05, n_steps, zeros, zeros, record_output=False)

    @staticmethod
    def _driven_case(n_zeta, n_steps, seed, dt):
        rng = np.random.default_rng(seed)
        p0 = 0.3 * (rng.normal(size=n_zeta) + 1j * rng.normal(size=n_zeta))
        s0 = rng.normal(size=n_zeta) + 1j * rng.normal(size=n_zeta)
        t = np.linspace(0.0, 1.0, 2 * n_steps + 1)
        e_half = (0.8 + 0.3j) * np.sin(3.0 * t) + 0.2j
        om_half = (1.5 - 0.7j) * np.exp(-t) + 0.4
        return p0, s0, 0.5, dt, n_steps, e_half, om_half

    @staticmethod
    def _assert_matches_reference(params, n_zeta, args, arithmetic=None, damping=1.0):
        integ = _Integrator(params, n_zeta, damping=damping)
        fused = integ.run(*args)
        if arithmetic is not None:
            assert integ.complex_steps == (0 if arithmetic == "real" else args[4])
        ref = _ReferenceIntegrator(params, n_zeta, damping=damping).run(*args)
        for name, a, b in zip(("p", "s", "out", "acc_in", "acc_leak", "acc_dec", "n0"), fused, ref):
            if b is None:
                assert a is None, name
                continue
            assert np.shape(a) == np.shape(b), name
            assert _max_abs(np.subtract(a, b)) <= FUSED_REL_TOL * _max_abs(b), name
        return fused

    @pytest.mark.parametrize("d", [1e-3, 300.0])
    def test_extreme_depths_with_drive(self, d):
        # the drive enters through the ghost cell as -i sqrt(d) e / beta, so
        # the smallest and largest beta = d dz bound the rounding it adds
        n_zeta = 128
        args = self._driven_case(n_zeta, 200, 3, 0.002)
        self._assert_matches_reference(MediumParams(d=d, delta=7.0), n_zeta, args)

    def test_ring_down_shape(self):
        # the ring-down's drives: control and input both off
        n_zeta, n_steps = 256, 250
        p0, s0, *_ = self._driven_case(n_zeta, n_steps, 4, 0.02)
        zeros = np.zeros(2 * n_steps + 1, dtype=complex)
        args = (p0, s0, 0.0, 0.02, n_steps, zeros, zeros, False)
        _, s, *_ = self._assert_matches_reference(MediumParams(d=30.0, delta=3.0), n_zeta, args)
        assert np.array_equal(s, s0)

    def test_run_longer_than_one_block(self):
        n_zeta, n_steps = 64, simulator._STEP_BLOCK + 37
        dt = np.random.default_rng(6).uniform(0.001, 0.003, n_steps)
        args = self._driven_case(n_zeta, n_steps, 6, dt)
        self._assert_matches_reference(MediumParams(d=10.0, delta=5.0), n_zeta, args)

    def test_leaves_inputs_unmodified_and_repeats(self):
        n_zeta = 128
        args = self._driven_case(n_zeta, 150, 7, 0.01)
        before = [np.copy(a) for a in args]
        integ = _Integrator(MediumParams(d=10.0, delta=30.0), n_zeta)
        first = integ.run(*args)
        second = integ.run(*args)
        for a, b in zip(args, before):
            assert np.array_equal(a, b)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @staticmethod
    def _real_case(n_zeta, n_steps, seed):
        # the resonant subspace: P imaginary, S, the input and the control real
        rng = np.random.default_rng(seed)
        p0 = 0.3j * rng.normal(size=n_zeta)
        s0 = rng.normal(size=n_zeta).astype(complex)
        t = np.linspace(0.0, 1.0, 2 * n_steps + 1)
        e_half = (0.8 * np.sin(3.0 * t) + 0.2).astype(complex)
        om_half = (1.5 * np.exp(-t) + 0.4).astype(complex)
        return p0, s0, e_half, om_half

    @pytest.mark.parametrize("n_zeta", [64, 512])
    @pytest.mark.parametrize("damping", [1.0, 0.0])
    @pytest.mark.parametrize("per_step_dt", [False, True])
    @pytest.mark.parametrize("record_output", [True, False])
    def test_real_subspace_matches_stage_by_stage_reference(
        self, n_zeta, damping, per_step_dt, record_output
    ):
        n_steps = 150
        p0, s0, e_half, om_half = self._real_case(n_zeta, n_steps, n_zeta)
        dt = np.random.default_rng(1).uniform(0.005, 0.015, n_steps) if per_step_dt else 0.01
        args = (p0, s0, 0.5, dt, n_steps, e_half, om_half, record_output)
        p, s, out, *_ = self._assert_matches_reference(
            MediumParams(d=10.0), n_zeta, args, "real", damping
        )
        assert p.dtype == s.dtype == complex
        assert not np.any(p.real) and not np.any(s.imag)
        if record_output:
            assert not np.any(out.imag)

    @pytest.mark.parametrize("leaves", ["delta", "e_in", "omega", "p0", "s0"])
    def test_inputs_off_the_real_subspace_step_complex(self, leaves):
        # one nonzero number outside the subspace sends the run down the
        # complex path, however small it is
        n_zeta, n_steps = 128, 150
        p0, s0, e_half, om_half = self._real_case(n_zeta, n_steps, 8)
        delta = 3.0 if leaves == "delta" else 0.0
        if leaves == "e_in":
            e_half[17] += 1e-300j
        elif leaves == "omega":
            om_half[17] += 1e-300j
        elif leaves == "p0":
            p0[5] += 0.1
        elif leaves == "s0":
            s0[5] += 0.1j
        args = (p0, s0, 0.5, 0.01, n_steps, e_half, om_half)
        self._assert_matches_reference(MediumParams(d=10.0, delta=delta), n_zeta, args, "complex")

    def test_real_subspace_keeps_the_instability_checks(self):
        # a strong real control far outside RK4's stability region at this
        # step: the growth check trips while the state is still finite, and a
        # stronger one overflows into the non-finite check
        n_zeta, n_steps = 64, 200
        p0, s0, _, _ = self._real_case(n_zeta, n_steps, 9)
        zeros = np.zeros(2 * n_steps + 1, dtype=complex)
        for omega, message in ((60.0, "excitation grew beyond"), (1e4, "non-finite state")):
            integ = _Integrator(MediumParams(d=5.0), n_zeta)
            om_half = np.full(2 * n_steps + 1, omega, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                InstabilityError, match=message
            ):
                integ.run(p0, s0, 0.0, 0.05, n_steps, zeros, om_half, record_output=False)
            assert integ.complex_steps == 0
