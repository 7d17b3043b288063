import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from photonmem import (
    AdiabaticityWarning,
    ControlField,
    FieldMode,
    MediumParams,
    ShapingError,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    adiabatic,
    completing_control,
    flip,
    iterate_retrieval,
    mode_norm2,
    optimal_spin_wave,
    optimal_storage_control,
    retrieval_efficiency,
    retrieve_adiabatic,
    shape_retrieval_control,
    spinwave_norm2,
    store_adiabatic,
    time_reverse,
)
from photonmem.adiabatic import (
    DecayFunction,
    _bracket_matrix,
    _chebyshev_level,
    _emission_interpolant,
    _emission_profile,
    _ray_table,
    _tabulate_energy_curve,
    default_h_max,
    retrieval_matrix,
    storage_matrix,
)
from photonmem.core import ConvergenceError, _chebyshev_interpolant, _trapezoid_weights

from conftest import smooth_test_wave


def constant_control(omega, T, n=2001):
    g = TimeGrid.linspace(0.0, T, n)
    return ControlField(grid=g, samples=np.full(n, omega, dtype=complex))


RAMAN_DEPTHS = [1.0, 10.0, 300.0, 1e3, 1e4]
RAMAN_DETUNINGS = [0.0, 1e-12, -1e-12, 10.0, -10.0, 50.0, -50.0, 200.0, -200.0, 1000.0, -1000.0]
BRACKET_TOL = 1e-13  # of the case's max |bracket|
# the 12 shaping cases of the two-pass shaping, plus large detunings
STORAGE_CASES = [
    (1.0, 0.0), (10.0, 0.0), (100.0, 0.0), (300.0, 0.0), (3.0, 10.0), (10.0, -10.0),
    (30.0, 20.0), (100.0, -20.0), (10.0, 50.0), (300.0, -50.0), (50.0, 30.0), (1.0, -40.0),
    (30.0, 200.0), (30.0, -200.0), (30.0, 1000.0), (30.0, -1000.0),
]
STORAGE_TOL = 1e-10  # of the case's max |M|
INTERP_DEPTHS = [1.0, 10.0, 100.0, 300.0, 1e3, 1e4]
INTERP_DETUNINGS = [0.0, 10.0, -10.0, 50.0, -1000.0]
INTERP_TOL = 1e-13  # of the case's max |q| over the energy table
ENERGY_TABLE_TOL = 1e-5  # of the shaped control's peak, default table against a fine one


def shaping_rows(params):
    """4,001 evenly sqrt(h)-spaced bracket rows up to the default cap; row 0 is h = 0."""
    return np.linspace(0.0, np.sqrt(default_h_max(params)), 4001) ** 2


def shaping_table(params, zeta):
    """The ray table a shaping's Chebyshev interpolant shares up to the default cap."""
    return _ray_table(np.sqrt(default_h_max(params)), zeta, params)


def bracket_rows(monkeypatch, call):
    """The bracket rows ``call()`` evaluates, in all."""
    rows = []
    real = adiabatic._bracket_matrix

    def counting(h, *args, **kwargs):
        rows.append(np.size(h))
        return real(h, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(adiabatic, "_bracket_matrix", counting)
        call()
    return sum(rows)


def shaping_bracket_rows(monkeypatch, s, target, params):
    """The bracket rows one shaping of ``target`` from ``s`` evaluates, in all."""
    return bracket_rows(monkeypatch, lambda: shape_retrieval_control(s, target, params))


def row_rate(params):
    """r = delta / (1 + delta^2): the bracket's row phase is e^{i r h}."""
    return params.delta / (1.0 + params.delta**2)


def ive_bracket(h, zeta, params):
    """The complex bracket without its row phase e^{i r h}, through one
    complex ive call per element."""
    dz = params.d * zeta
    denom = 1.0 + 1j * params.delta
    z_arg = 2.0 * np.sqrt(np.outer(h, dz)) / denom
    expo = -(dz[None, :] + h[:, None]) / (1.0 + params.delta**2) + z_arg.real
    return ive(0, z_arg) * np.exp(expo) * np.exp(1j * row_rate(params) * dz)


def phased_profile(h, s, params):
    """q(h): :func:`_emission_profile` times its row phase."""
    return np.exp(1j * row_rate(params) * h) * _emission_profile(h, s, params)


def direct_storage_matrix(ctrl, params, grid):
    """The adjoint integral written out: bracket at the power still to come, h(T) - h(tau)."""
    hf = DecayFunction.from_control(ctrl)
    h = hf.total - hf.h
    kappa = _bracket_matrix(h, grid.nodes, params) * np.exp(1j * row_rate(params) * h)[:, None]
    row = _trapezoid_weights(ctrl.grid) * np.conj(ctrl.samples) / (1.0 + 1j * params.delta)
    return -np.sqrt(params.d) * (kappa.T * row[None, :])


def chirped_storage_control(params, g):
    """A varying, chirped control on grid ``g`` that spends the full drain budget."""
    t = g.times
    envelope = (1.0 + 0.4 * np.sin(0.3 * t)) * np.exp(0.2j * t + 0.01j * t**2)
    omega = np.sqrt(1.05 * default_h_max(params) / g.duration) * envelope
    return ControlField(grid=g, samples=omega)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mpmath_bracket(h, zeta, params):
    """exp(-(d zeta + h)/(1 + i delta)) I0(2 sqrt(d zeta h)/(1 + i delta)) at 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.mpf(params.d) * mpmath.mpf(zeta)
        hh = mpmath.mpf(h)
        denom = mpmath.mpc(1.0, params.delta)
        bessel = mpmath.besseli(0, 2 * mpmath.sqrt(x * hh) / denom)
        return complex(mpmath.exp(-(x + hh) / denom) * bessel)


def mpmath_row_phase(h, params):
    """e^{i r h}, r = delta / (1 + delta^2), at 30 digits."""
    with mpmath.workdps(30):
        delta = mpmath.mpf(params.delta)
        return complex(mpmath.expj(delta / (1 + delta**2) * mpmath.mpf(h)))


def mpmath_bracket_error(got, h, zeta, params):
    """max |got e^{i r h} - mpmath bracket| over sampled elements of the bracket rows ``got``.

    The rows are evenly spread from h = 0 to the last row plus a few seeded
    interior ones; the columns both end nodes of the grid, evenly spread and
    seeded ones.
    """
    rng = np.random.default_rng(7)
    rows = np.union1d(np.linspace(0, h.size - 1, 9).astype(int), rng.integers(0, h.size, 4))
    cols = np.union1d(np.linspace(0, zeta.size - 1, 5).astype(int), rng.integers(0, zeta.size, 3))
    return max(
        abs(got[i, j] * mpmath_row_phase(h[i], params) - mpmath_bracket(h[i], zeta[j], params))
        for i in rows for j in cols
    )


class TestDecayFunction:
    def test_constant_control_is_linear(self):
        ctrl = constant_control(1.5, 10.0, 101)
        h = DecayFunction.from_control(ctrl)
        assert h.h[0] == 0.0
        assert np.allclose(h.h, 1.5**2 * ctrl.grid.times, atol=1e-12)

    def test_nondecreasing_enforced(self):
        g = TimeGrid.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            DecayFunction(grid=g, h=np.array([0.0, 1.0, 0.5, 2.0, 3.0]))
        with pytest.raises(ValueError):
            DecayFunction(grid=g, h=np.array([0.5, 1.0, 1.5, 2.0, 3.0]))


class TestBracket:
    @pytest.mark.parametrize("d", [1.0, 1e3, 1e4])
    def test_resonant_real_path_matches_complex_form(self, d, gauss_grid):
        params = MediumParams(d=d)
        h = np.linspace(0.0, default_h_max(params), 257)
        zeta = gauss_grid.nodes
        real = _bracket_matrix(h, zeta, params)
        assert np.all(np.isfinite(real))
        # exp(-(d z + h)/(1 + i delta)) * I0(2 sqrt(d z h)/(1 + i delta)) at delta = 0,
        # through the complex scaled Bessel function
        z_arg = (2.0 * np.sqrt(np.outer(h, d * zeta))).astype(complex)
        ref = ive(0, z_arg) * np.exp(-(d * zeta[None, :] + h[:, None]) + z_arg.real)
        assert np.max(np.abs(real - ref)) < 1e-13
        near = _bracket_matrix(h, zeta, MediumParams(d=d, delta=1e-12))
        assert np.max(np.abs(near - real)) < 1e-10

    @pytest.mark.parametrize("delta", RAMAN_DETUNINGS)
    @pytest.mark.parametrize("d", RAMAN_DEPTHS)
    def test_raman_bracket_matches_mpmath(self, d, delta, gauss_grid):
        params = MediumParams(d=d, delta=delta)
        h = shaping_rows(params)
        zeta = gauss_grid.nodes
        got = _bracket_matrix(h, zeta, params)
        assert mpmath_bracket_error(got, h, zeta, params) <= BRACKET_TOL * np.max(np.abs(got))

    @pytest.mark.parametrize("delta", RAMAN_DETUNINGS)
    @pytest.mark.parametrize("d", RAMAN_DEPTHS)
    def test_raman_bracket_matches_ive_formula(self, d, delta, gauss_grid):
        params = MediumParams(d=d, delta=delta)
        h = shaping_rows(params)
        ref = ive_bracket(h, gauss_grid.nodes, params)
        got = _bracket_matrix(h, gauss_grid.nodes, params)
        assert np.max(np.abs(got - ref)) <= BRACKET_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("delta", RAMAN_DETUNINGS)
    @pytest.mark.parametrize("d", RAMAN_DEPTHS)
    def test_shaping_table_is_the_default_table(self, monkeypatch, d, delta, gauss_grid):
        # the table the shaping's interpolant shares is bitwise the one a default
        # call builds on the shaping rows, so the two shaping-table cases below
        # repeat the two default ones
        params = MediumParams(d=d, delta=delta)
        zeta = gauss_grid.nodes
        built = []
        real = adiabatic._ray_table

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(adiabatic, "_ray_table", recording)
        _bracket_matrix(shaping_rows(params), zeta, params)
        step, c = shaping_table(params, zeta)
        assert len(built) == 1 and built[0][0] == step and np.array_equal(built[0][1], c)

    @pytest.mark.parametrize("delta", RAMAN_DETUNINGS)
    @pytest.mark.parametrize("d", RAMAN_DEPTHS)
    def test_shaping_table_bracket_matches_mpmath(self, d, delta, gauss_grid):
        # the coarse table (step 1/2, order 14) the shaping's interpolant shares
        params = MediumParams(d=d, delta=delta)
        h = shaping_rows(params)
        zeta = gauss_grid.nodes
        got = _bracket_matrix(h, zeta, params, shaping_table(params, zeta))
        assert mpmath_bracket_error(got, h, zeta, params) <= BRACKET_TOL * np.max(np.abs(got))

    @pytest.mark.parametrize("delta", RAMAN_DETUNINGS)
    @pytest.mark.parametrize("d", RAMAN_DEPTHS)
    def test_shaping_table_bracket_matches_ive_formula(self, d, delta, gauss_grid):
        params = MediumParams(d=d, delta=delta)
        h = shaping_rows(params)
        ref = ive_bracket(h, gauss_grid.nodes, params)
        got = _bracket_matrix(h, gauss_grid.nodes, params, shaping_table(params, gauss_grid.nodes))
        assert np.max(np.abs(got - ref)) <= BRACKET_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("delta", [0.0, 1e-12, 10.0, -50.0, 1000.0])
    def test_shaping_table_first_node_matches_mpmath_derivatives(self, delta, gauss_grid):
        # the recurrence divides by a = t_k rot, smallest (|a| = 1/2) at the first
        # nonzero node; each coefficient is of I0(t rot) e^{-t_1 Re rot} in t - t_1
        params = MediumParams(d=10.0, delta=delta)
        step, c = shaping_table(params, gauss_grid.nodes)
        assert (step, c.shape[0] - 1) == (0.5, 14)
        rot = (1.0 - 1j * delta) / np.hypot(1.0, delta)
        with mpmath.workdps(40):
            r = mpmath.mpc(rot.real, rot.imag)
            t1 = mpmath.mpf(step)
            ref = np.array([
                complex(mpmath.diff(lambda t: mpmath.besseli(0, t * r), t1, m)
                        / mpmath.factorial(m) * mpmath.exp(-t1 * r.real))
                for m in range(c.shape[0])
            ])
        # high orders lose relative accuracy, but within |t - t_1| <= step / 2
        # their terms stay far below rounding of the value
        reach = (step / 2) ** np.arange(c.shape[0])
        assert np.sum(np.abs(c[:, 1] - ref) * reach) <= 1e-15 * abs(ref[0])

    @pytest.mark.parametrize("delta", [30.0, 0.0])
    def test_raman_shaping_evaluates_ive_per_node_not_per_element(
        self, monkeypatch, optimal_modes, reference_input, delta
    ):
        # a guard without timing: per-element complex ive would evaluate every
        # (row, node) pair of the energy table and the phase rows
        counted = []

        def counting_ive(v, z):
            counted.append(np.broadcast(v, z).size)
            return ive(v, z)

        monkeypatch.setattr(adiabatic, "ive", counting_ive)
        s, _ = optimal_modes[100.0]
        target = time_reverse(reference_input)
        shape_retrieval_control(s, target, MediumParams(d=100.0, delta=delta))
        elements = (4001 + target.grid.n) * s.grid.n
        assert 0 < sum(counted) < 0.02 * elements

    @pytest.mark.parametrize("delta", [30.0, 0.0])
    def test_raman_shaping_takes_no_complex_exp_per_element(
        self, monkeypatch, optimal_modes, reference_input, delta
    ):
        # a guard without timing: the bracket's phase is a row factor times a
        # node factor, so complex exponentials scale with rows plus nodes
        counted = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                if np.iscomplexobj(x):
                    counted.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(adiabatic, "np", CountingNumpy())
        s, _ = optimal_modes[100.0]
        target = time_reverse(reference_input)
        shape_retrieval_control(s, target, MediumParams(d=100.0, delta=delta))
        elements = (4001 + target.grid.n) * s.grid.n
        assert 0 < sum(counted) < 0.02 * elements

    @pytest.mark.parametrize("delta", [30.0, 0.0])
    def test_shaping_evaluates_few_bracket_rows(
        self, monkeypatch, optimal_modes, reference_input, delta
    ):
        # a guard without timing: q read directly off the bracket takes the
        # 4,001 energy-table rows plus one row per target sample; its
        # Chebyshev interpolant takes a few hundred
        s, _ = optimal_modes[100.0]
        params = MediumParams(d=100.0, delta=delta)
        assert 0 < shaping_bracket_rows(monkeypatch, s, time_reverse(reference_input), params) <= 600

    def test_shallow_shaping_evaluates_first_level_only(
        self, monkeypatch, optimal_modes, reference_input
    ):
        # a guard without timing: at d = 10 the first Chebyshev level already
        # resolves q, so no second level is sampled
        s, _ = optimal_modes[10.0]
        params = MediumParams(d=10.0)
        assert 0 < shaping_bracket_rows(monkeypatch, s, time_reverse(reference_input), params) <= 65

    @pytest.mark.parametrize("delta", INTERP_DETUNINGS)
    @pytest.mark.parametrize("d", INTERP_DEPTHS)
    def test_emission_interpolant_matches_direct_profile(self, d, delta, reference_input):
        # on the energy table's rows and at the shaped clock h(tau)
        params = MediumParams(d=d, delta=delta)
        s, _ = optimal_spin_wave(d)
        q = _emission_interpolant(s, params, default_h_max(params))
        h_tab = shaping_rows(params)
        shaped = shape_retrieval_control(s, time_reverse(reference_input), params)
        scale = np.max(np.abs(_emission_profile(h_tab, s, params)))
        for h in (h_tab, shaped.h.h):
            q_h = np.exp(1j * row_rate(params) * h) * q(np.sqrt(h))
            assert np.max(np.abs(q_h - phased_profile(h, s, params))) <= INTERP_TOL * scale

    @pytest.mark.parametrize("d, delta", STORAGE_CASES)
    def test_emission_profile_matches_emission_matrix(self, d, delta, gauss_grid):
        # the emitted field -sqrt(d) omega q(h), contracted row by row, against
        # the retrieval (emission) matrix applied to the samples
        params = MediumParams(d=d, delta=delta)
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, 1) * (1.0 - 0.7j))
        ctrl = completing_control(params)
        h = DecayFunction.from_control(ctrl).h
        out = -np.sqrt(d) * ctrl.samples * phased_profile(h, s, params)
        ref = retrieval_matrix(ctrl, params, gauss_grid) @ s.samples
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestFactoredMap:
    @pytest.mark.parametrize("d, delta", [(1.0, 0.0), (10.0, 30.0), (100.0, 0.0),
                                          (300.0, -45.0), (1e3, 0.0)])
    def test_retrieval_matrix_matches_direct_rows(self, d, delta, gauss_grid):
        # the Chebyshev rows interpolated to the samples against the bracket
        # evaluated at every sample, the direct route
        params = MediumParams(d=d, delta=delta)
        ctrl = completing_control(params, n=2001)
        h = DecayFunction.from_control(ctrl).h
        row = -np.sqrt(d) * ctrl.samples * np.exp(1j * row_rate(params) * h)
        ref = (_bracket_matrix(h, gauss_grid.nodes[::-1], params) * row[:, None]
               * (gauss_grid.weights / (1.0 + 1j * delta)))
        got = retrieval_matrix(ctrl, params, gauss_grid)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_shallow_maps_evaluate_first_level_only(self, monkeypatch, reference_input,
                                                    gauss_grid, optimal_modes):
        # a guard without timing: at d = 10 the direct route takes one row per
        # sample (2,001 and 1,501), the first Chebyshev level 65
        params = MediumParams(d=10.0)
        ctrl = ControlField(grid=reference_input.grid,
                            samples=np.full(reference_input.grid.n, 1.6 + 0.0j))
        s, _ = optimal_modes[10.0]
        calls = (lambda: store_adiabatic(reference_input, ctrl, params, gauss_grid),
                 lambda: iterate_retrieval(10.0, completing_control(params), s))
        for call in calls:
            assert 0 < bracket_rows(monkeypatch, call) <= 65

    @pytest.mark.parametrize("d, delta, n", [(10.0, 0.0, 41), (100.0, 30.0, 101),
                                             (100.0, 0.0, 261), (1e4, 10.0, 1501),
                                             (1e4, 0.0, 1501)])
    def test_no_map_evaluates_more_rows_than_samples(self, monkeypatch, gauss_grid,
                                                     d, delta, n):
        # the direct route takes one row per sample; a control too short for
        # the Chebyshev levels, or one whose rows are predicted to need more
        # points than the factors pay for, takes that route and no Chebyshev
        # row besides
        params = MediumParams(d=d, delta=delta)
        ctrl = completing_control(params, n=n)
        inp = FieldMode(grid=ctrl.grid, samples=np.ones(n, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            for call in (lambda: retrieval_matrix(ctrl, params, gauss_grid),
                         lambda: store_adiabatic(inp, ctrl, params, gauss_grid)):
                assert 0 < bracket_rows(monkeypatch, call) <= n

    def test_chop_past_its_bound_raises(self, monkeypatch, gauss_grid):
        # a prediction two levels short: the chop stops at the level above it
        # and raises, rather than spend its rows and then the direct ones; at
        # d = 1e3 the chop takes 257 points, two levels above 65
        params = MediumParams(d=1e3)
        ctrl = completing_control(params)
        monkeypatch.setattr(adiabatic, "_chebyshev_level", lambda *args: 65)
        with pytest.raises(ConvergenceError):
            retrieval_matrix(ctrl, params, gauss_grid)

    @pytest.mark.parametrize("d, delta, frac", [(1.0, 0.0, 1.0), (100.0, 30.0, 1.0),
                                                (300.0, 3.0, 0.3), (1e3, 10.0, 0.1),
                                                (1e3, 1.0, 0.1), (1e4, 0.0, 1.0),
                                                (1e4, 100.0, 1.0)])
    def test_chop_takes_at_most_one_level_above_the_prediction(self, d, delta, frac,
                                                               gauss_grid):
        # the prediction that picks the route: the chop, run to the end, takes
        # at most the level above it, the bound the factored route gives it
        params = MediumParams(d=d, delta=delta)
        u_max = np.sqrt(frac * default_h_max(params))
        zeta = gauss_grid.nodes[::-1]
        table = _ray_table(u_max, zeta, params)
        got = _chebyshev_interpolant(
            lambda u: _bracket_matrix(u * u, zeta, params, table), 0.0, u_max
        ).n
        assert got <= 2 * _chebyshev_level(u_max, zeta[0], params) - 1


class TestRetrieveAdiabatic:
    def test_zero_control_zero_output(self, optimal_modes):
        s, _ = optimal_modes[10.0]
        ctrl = constant_control(0.0, 30.0)
        out = retrieve_adiabatic(s, ctrl, MediumParams(d=10.0))
        assert mode_norm2(out) == 0.0

    def test_energy_is_control_and_detuning_independent(self, optimal_modes):
        # completing controls of different shape and detuning all deliver
        # the kernel efficiency
        s, eta = optimal_modes[10.0]
        results = []
        for omega, delta, T in [(1.0, 0.0, 60.0), (3.0, 0.0, 8.0), (2.0, 10.0, 320.0), (4.0, 50.0, 1700.0)]:
            ctrl = constant_control(omega, T, 4001)
            out = retrieve_adiabatic(s, ctrl, MediumParams(d=10.0, delta=delta))
            results.append(mode_norm2(out))
        for r in results:
            assert r == pytest.approx(eta, abs=1e-3)
        assert max(results) - min(results) < 1e-3

    def test_varying_envelope_also_completes(self, optimal_modes):
        s, eta = optimal_modes[10.0]
        g = TimeGrid.linspace(0.0, 30.0, 3001)
        env = 3.0 * np.exp(-(((g.times - 14.0) / 5.0) ** 2))
        out = retrieve_adiabatic(s, ControlField(grid=g, samples=env.astype(complex)), MediumParams(d=10.0))
        assert mode_norm2(out) == pytest.approx(eta, abs=1e-3)

    def test_negative_detuning_equivalent(self, optimal_modes):
        s, eta = optimal_modes[10.0]
        ctrl = constant_control(2.0, 320.0, 4001)
        out = retrieve_adiabatic(s, ctrl, MediumParams(d=10.0, delta=-10.0))
        assert mode_norm2(out) == pytest.approx(eta, abs=1e-3)

    def test_opposite_detuning_conjugates_output(self, optimal_modes):
        # a real wave and a real control: delta -> -delta conjugates the
        # bracket, so a sign slip in the ray's direction shows here
        s, _ = optimal_modes[10.0]
        g = TimeGrid.linspace(0.0, 400.0, 4001)
        env = 2.0 * (1.0 + 0.5 * np.sin(g.times / 40.0))
        ctrl = ControlField(grid=g, samples=env.astype(complex))
        plus = retrieve_adiabatic(s, ctrl, MediumParams(d=10.0, delta=30.0)).samples
        minus = retrieve_adiabatic(s, ctrl, MediumParams(d=10.0, delta=-30.0)).samples
        assert np.max(np.abs(minus - np.conj(plus))) <= 1e-13 * np.max(np.abs(plus))

    @settings(max_examples=25)
    @given(delta=st.floats(-100.0, 100.0))
    def test_completing_constant_control_delivers_kernel_efficiency(self, optimal_modes, delta):
        s, _ = optimal_modes[10.0]
        params = MediumParams(d=10.0, delta=delta)
        omega = 2.0
        T = 1.05 * default_h_max(params) / omega**2
        out = retrieve_adiabatic(s, constant_control(omega, T, 4001), params)
        assert mode_norm2(out) == pytest.approx(retrieval_efficiency(s, 10.0), abs=1e-3)

    def test_short_window_warns(self, optimal_modes):
        s, _ = optimal_modes[10.0]
        with pytest.warns(AdiabaticityWarning):
            retrieve_adiabatic(s, constant_control(8.0, 0.5, 101), MediumParams(d=10.0))


class TestStoreAdiabatic:
    def test_matches_simulator(self, reference_input, uniform_grid):
        from photonmem import simulate_storage

        t = reference_input.grid.times
        ctrl = ControlField(grid=reference_input.grid, samples=(1.2 + 0.4 * np.sin(0.3 * t)).astype(complex))
        for delta in (0.0, 5.0):
            params = MediumParams(d=10.0, delta=delta)
            cf = store_adiabatic(reference_input, ctrl, params, uniform_grid)
            run = simulate_storage(reference_input, ctrl, params)
            err = np.sqrt(np.dot(uniform_grid.weights, np.abs(cf.samples - run.final_state.S) ** 2))
            # residual quasi-static error for these window lengths
            assert err < 0.05

    def test_grid_mismatch_rejected(self, reference_input):
        ctrl = constant_control(1.0, 5.0, 101)
        with pytest.raises(ValueError):
            store_adiabatic(reference_input, ctrl, MediumParams(d=10.0))

    @pytest.mark.parametrize("d, delta", STORAGE_CASES)
    def test_storage_matrix_matches_direct_adjoint_integral(self, d, delta, reference_input,
                                                           gauss_grid):
        params = MediumParams(d=d, delta=delta)
        ctrl = chirped_storage_control(params, reference_input.grid)
        ref = direct_storage_matrix(ctrl, params, gauss_grid)
        got = storage_matrix(ctrl, params, gauss_grid)
        assert np.max(np.abs(got - ref)) <= STORAGE_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("d, delta", STORAGE_CASES)
    def test_stored_wave_is_storage_matrix_applied(self, d, delta, reference_input, gauss_grid):
        # the applied adjoint against its matrix form, on the rounding scale of the
        # product, max_j sum_k |M_jk x_k|: off resonance this control stores a
        # remainder up to 1e6 times smaller, so its own peak is no yardstick
        params = MediumParams(d=d, delta=delta)
        ctrl = chirped_storage_control(params, reference_input.grid)
        m = storage_matrix(ctrl, params, gauss_grid)
        got = store_adiabatic(reference_input, ctrl, params, gauss_grid).samples
        scale = np.max(np.abs(m) @ np.abs(reference_input.samples))
        assert np.max(np.abs(got - m @ reference_input.samples)) <= 1e-14 * scale

    def test_stored_wave_holds_no_sample_matrix(self, reference_input, gauss_grid):
        # 2,001 x 200: a retrieval matrix alone takes 6.1 MiB; the applied
        # adjoint holds the Chebyshev rows and their interpolation matrix
        params = MediumParams(d=100.0, delta=30.0)
        ctrl = chirped_storage_control(params, reference_input.grid)
        assert traced_peak(lambda: store_adiabatic(reference_input, ctrl, params,
                                                   gauss_grid)) <= 4 * 2**20

    def test_storage_memory_is_one_retrieval_matrix(self, reference_input, gauss_grid):
        # 2,001 x 200: the retrieval matrix (6.1 MiB) and its bracket scratch;
        # a storage matrix built beside it, with its weight ratios, took 15.5 MiB
        params = MediumParams(d=100.0, delta=30.0)
        ctrl = chirped_storage_control(params, reference_input.grid)
        for call in (lambda: store_adiabatic(reference_input, ctrl, params, gauss_grid),
                     lambda: storage_matrix(ctrl, params, gauss_grid)):
            assert traced_peak(call) <= 9 * 2**20

    def test_asymmetric_grid_rejected(self, reference_input):
        edges = np.linspace(0.0, 1.0, 41) ** 2  # cells crowded toward zeta = 0
        grid = SpaceGrid(nodes=0.5 * (edges[1:] + edges[:-1]), weights=np.diff(edges))
        ctrl = ControlField(grid=reference_input.grid,
                            samples=np.ones(reference_input.grid.n, dtype=complex))
        with pytest.raises(ValueError):
            store_adiabatic(reference_input, ctrl, MediumParams(d=10.0), grid)


class TestShaping:
    def test_round_trip_constant_control(self, optimal_modes):
        # retrieve with a known constant control, then shape from the output:
        # the shaped magnitude reproduces the constant wherever h is free
        s, eta = optimal_modes[10.0]
        d = 10.0
        omega0 = 1.5
        T = 30.0  # h_end = 67.5, beyond the default budget at d=10
        ctrl = constant_control(omega0, T, 3001)
        out = retrieve_adiabatic(s, ctrl, MediumParams(d=d))
        target = FieldMode(grid=out.grid, samples=out.samples / np.sqrt(mode_norm2(out)))
        res = shape_retrieval_control(s, target, MediumParams(d=d))
        # compare where the demanded clock is resolvable in double precision:
        # past h ~ 0.8 h_max the undelivered energy fraction is ~1e-12 and no
        # inversion from sampled targets can pin h there
        inner = (res.h.h < 0.8 * min(res.h_max, omega0**2 * T)) & (res.h.h > 0.5)
        err = np.max(np.abs(np.abs(res.control.samples[inner]) - omega0))
        assert err < 1e-4
        assert np.count_nonzero(inner) > 1500

    def test_composition_hits_target(self, optimal_modes):
        # retrieve_adiabatic(s, shaped) == sqrt(eta) * target, sample-wise
        s, eta = optimal_modes[10.0]
        params = MediumParams(d=10.0)
        g = TimeGrid.linspace(0.0, 25.0, 2501)
        t = g.times
        raw = np.exp(-(((t - 10.0) / 3.0) ** 2)) * (1.0 + 0.2 * np.sin(t))
        raw -= raw[0]
        raw = np.clip(raw, 0.0, None)
        target = FieldMode(grid=g, samples=(raw / np.sqrt(np.trapezoid(raw**2, dx=g.dtau))).astype(complex))
        res = shape_retrieval_control(s, target, params)
        realized = retrieve_adiabatic(s, res.control, params)
        want = np.sqrt(res.eta_r) * target.samples
        err = np.sqrt(np.trapezoid(np.abs(realized.samples - want) ** 2, dx=g.dtau))
        assert err < 1e-3
        assert mode_norm2(realized) == pytest.approx(
            res.eta_r * (1.0 - res.truncation_loss), abs=1e-4
        )

    def test_composition_with_detuning(self, optimal_modes):
        s, _ = optimal_modes[10.0]
        params = MediumParams(d=10.0, delta=10.0)
        g = TimeGrid.linspace(0.0, 25.0, 2501)
        t = g.times
        raw = np.exp(-(((t - 12.0) / 4.0) ** 2))
        raw -= raw[0]
        raw = np.clip(raw, 0.0, None)
        target = FieldMode(grid=g, samples=(raw / np.sqrt(np.trapezoid(raw**2, dx=g.dtau))).astype(complex))
        res = shape_retrieval_control(s, target, params)
        realized = retrieve_adiabatic(s, res.control, params)
        want = np.sqrt(res.eta_r) * target.samples
        err = np.sqrt(np.trapezoid(np.abs(realized.samples - want) ** 2, dx=g.dtau))
        assert err < 1e-3

    @pytest.mark.parametrize(
        "d, delta, bound",
        [(1.0, 0.0, 2e-3), (10.0, 0.0, 2e-3), (300.0, 0.0, 2e-3), (10.0, 50.0, 2e-3),
         (100.0, -20.0, 2e-3), (30.0, -1000.0, 4e-2)],
    )
    def test_round_trip_through_fresh_bracket(self, d, delta, bound, reference_input):
        # retrieve_adiabatic evaluates the bracket afresh at the shaped h(tau),
        # independently of the tabulation the shaping inverted
        params = MediumParams(d=d, delta=delta)
        s, _ = optimal_spin_wave(d)
        target = time_reverse(reference_input)
        res = shape_retrieval_control(s, target, params)
        realized = retrieve_adiabatic(s, res.control, params)
        want = np.sqrt(res.eta_r) * target.samples
        err = np.linalg.norm(realized.samples - want) / np.linalg.norm(want)
        assert err < bound
        # the phase comes from the closed form at the shaped clock itself, so
        # the field emitted there carries the target's phase even where the
        # target is tiny; an arg q interpolated from a table misses this at
        # large |delta|
        q = phased_profile(res.h.h, s, params)
        emitted = -res.control.samples * q * np.conj(target.samples)
        slip = np.angle(emitted[emitted != 0])
        assert np.max(np.abs(slip)) < 1e-9

    def test_truncation_reported_for_small_budget(self, optimal_modes, reference_input):
        s, eta = optimal_modes[10.0]
        params = MediumParams(d=10.0)
        res = shape_retrieval_control(s, time_reverse(reference_input), params, h_max=15.0)
        assert res.truncation_loss > 1e-3
        assert res.n_truncated > 0
        realized = retrieve_adiabatic(s, res.control, params)
        assert mode_norm2(realized) == pytest.approx(
            res.eta_r * (1.0 - res.truncation_loss), abs=1e-4
        )

    @pytest.mark.parametrize(
        "d, delta", [(1.0, 0.0), (100.0, 0.0), (300.0, -40.0), (30.0, 50.0), (1e4, 10.0)]
    )
    def test_energy_table_matches_a_fine_table(
        self, monkeypatch, d, delta, reference_input, gauss_grid
    ):
        # the default table against one of 16,385 Chebyshev points; at (1e4,
        # 10) the interpolant of q takes 2,049 points, so the rate, of degree
        # 4,097, needs more than the default 4,097 table points
        params = MediumParams(d=d, delta=delta)
        if d == 1e4:
            s, _ = optimal_spin_wave(d, gauss_grid)
            q = _emission_interpolant(s, params, default_h_max(params))
            assert q.n == 2049
            assert _tabulate_energy_curve(q, d)[0].size == 8193
        got = optimal_storage_control(reference_input, params, gauss_grid).control.samples
        monkeypatch.setattr(adiabatic, "_ENERGY_ROWS", 16385)
        fine = optimal_storage_control(reference_input, params, gauss_grid).control.samples
        assert np.max(np.abs(got - fine)) <= ENERGY_TABLE_TOL * np.max(np.abs(fine))

    def test_zero_efficiency_rejected(self, gauss_grid, reference_input):
        s = SpinWave(grid=gauss_grid, samples=np.zeros(gauss_grid.n))
        with pytest.raises(ShapingError):
            shape_retrieval_control(s, time_reverse(reference_input), MediumParams(d=10.0))

    def test_default_budget_scales_with_depth_and_detuning(self):
        assert default_h_max(MediumParams(d=10.0)) == pytest.approx(50.0, abs=1.0)
        assert default_h_max(MediumParams(d=100.0)) > 150.0
        assert default_h_max(MediumParams(d=10.0, delta=50.0)) > 20000.0


class TestOptimalStorageControl:
    def test_predicted_efficiency_is_kernel_eigenvalue(self, reference_input, optimal_modes):
        _, eta = optimal_modes[10.0]
        res = optimal_storage_control(reference_input, MediumParams(d=10.0))
        assert res.predicted_eta_s == pytest.approx(eta, abs=1e-9)

    def test_storage_control_is_time_reversed_retrieval_control(self, reference_input):
        res = optimal_storage_control(reference_input, MediumParams(d=10.0))
        assert np.allclose(
            res.control.samples, np.conj(res.retrieval_control.samples[::-1])
        )

    def test_unnormalized_input_rejected(self, reference_input):
        bad = FieldMode(grid=reference_input.grid, samples=2.0 * reference_input.samples)
        with pytest.raises(ValueError):
            optimal_storage_control(bad, MediumParams(d=10.0))

    def test_closed_form_reversal_fidelity(self, reference_input, optimal_modes):
        # storing the time-reversed optimal-retrieval output with the
        # time-reversed control recovers the optimal spin wave direction
        s, eta = optimal_modes[10.0]
        params = MediumParams(d=10.0)
        res = optimal_storage_control(reference_input, params)
        stored = store_adiabatic(reference_input, res.control, params, s.grid)
        stored_flipped = flip(stored)
        overlap = abs(np.dot(s.grid.weights, np.conj(s.samples) * stored_flipped.samples))
        fidelity = overlap**2 / (spinwave_norm2(stored_flipped) * 1.0)
        assert fidelity > 0.999

    @pytest.mark.parametrize("d", [3.0, 100.0])
    def test_resonant_control_is_exactly_real(self, reference_input, d):
        # the phase is the unit phasor of a real reference, so no rounding of
        # exp(i pi) leaves an imaginary part that would keep a simulation of
        # the control off the real subspace
        res = optimal_storage_control(reference_input, MediumParams(d=d))
        assert not np.any(res.control.samples.imag)
        assert not np.any(res.retrieval_control.samples.imag)

    @pytest.mark.parametrize("delta", [20.0, -50.0])
    def test_raman_control_phase_is_the_closed_form_phase(
        self, reference_input, optimal_modes, delta
    ):
        s, _ = optimal_modes[10.0]
        params = MediumParams(d=10.0, delta=delta)
        target = time_reverse(reference_input)
        res = shape_retrieval_control(s, target, params)
        q = _emission_interpolant(s, params, res.h_max)
        q_h = np.exp(1j * row_rate(params) * res.h.h) * q(np.sqrt(res.h.h))
        phase_ref = -target.samples * np.conj(q_h)
        om = res.control.samples
        # where phase_ref is 0 (the input's ends) the phase is 0 by definition
        on = (np.abs(om) > 0) & (np.abs(phase_ref) > 0)
        assert np.count_nonzero(on) > om.size // 2
        expected = np.abs(om) * np.exp(1j * np.angle(phase_ref))
        assert np.max(np.abs(om - expected)[on] / np.abs(om[on])) <= 1e-15
