import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from photonmem import (
    ControlField,
    ConvergenceError,
    FieldMode,
    GridError,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    flip,
    mode_norm2,
    nondimensionalize_doc,
    normalized_mode,
    resample_spinwave,
    spinwave_norm2,
    time_reverse,
)
from photonmem.core import (
    _CHEB_MAX,
    _CHEB_START,
    _BarycentricInterpolant,
    _WaveformSpline,
    _chebyshev_coefficients,
    _chebyshev_interpolant,
    _chebyshev_points,
    _chebyshev_values,
    _hermite_panel,
)

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def complex_samples(n):
    return arrays(np.complex128, (n,), elements=finite_complex)


class TestMediumParams:
    def test_valid(self):
        p = MediumParams(d=10.0, delta=-3.5)
        assert p.d == 10.0 and p.delta == -3.5

    @pytest.mark.parametrize("d", [0.0, -1.0, np.inf, np.nan])
    def test_bad_depth(self, d):
        with pytest.raises(ValueError):
            MediumParams(d=d)

    def test_bad_detuning(self):
        with pytest.raises(ValueError):
            MediumParams(d=1.0, delta=np.inf)


class TestGrids:
    def test_time_grid(self):
        g = TimeGrid.linspace(0.0, 10.0, 101)
        assert g.n == 101
        assert g.duration == pytest.approx(10.0)
        assert np.allclose(np.diff(g.times), g.dtau)

    def test_time_grid_invalid(self):
        with pytest.raises(GridError):
            TimeGrid(tau0=0.0, dtau=-0.1, n=10)
        with pytest.raises(GridError):
            TimeGrid(tau0=0.0, dtau=0.1, n=1)

    @pytest.mark.parametrize("factory", [SpaceGrid.gauss_legendre, SpaceGrid.uniform_midpoint])
    def test_space_grid_invariants(self, factory):
        g = factory(128)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] >= 0.0 and g.nodes[-1] <= 1.0
        assert np.all(g.weights > 0)
        assert abs(g.weights.sum() - 1.0) < 1e-12
        assert g.is_symmetric

    def test_gauss_grid_built_once_per_node_count(self):
        g = SpaceGrid.gauss_legendre(96)
        assert SpaceGrid.gauss_legendre(96) is g
        assert SpaceGrid.gauss_legendre(97) is not g
        assert not g.nodes.flags.writeable and not g.weights.flags.writeable

    def test_space_grid_rejects_bad_weights(self):
        with pytest.raises(GridError):
            SpaceGrid(nodes=[0.2, 0.8], weights=[0.7, 0.7])
        with pytest.raises(GridError):
            SpaceGrid(nodes=[0.8, 0.2], weights=[0.5, 0.5])


class TestNorms:
    def test_zero_mode(self):
        g = TimeGrid.linspace(0.0, 1.0, 50)
        assert mode_norm2(FieldMode(grid=g, samples=np.zeros(50))) == 0.0

    def test_reference_input_normalized(self, reference_input):
        assert mode_norm2(reference_input) == pytest.approx(1.0, abs=1e-10)

    def test_spinwave_constant_is_one(self, gauss_grid):
        s = SpinWave(grid=gauss_grid, samples=np.ones(gauss_grid.n))
        assert spinwave_norm2(s) == pytest.approx(1.0, abs=1e-12)
        z = SpinWave(grid=gauss_grid, samples=np.zeros(gauss_grid.n))
        assert spinwave_norm2(z) == 0.0

    def test_optimal_mode_unit_norm(self, optimal_modes):
        s, _ = optimal_modes[10.0]
        assert spinwave_norm2(s) == pytest.approx(1.0, abs=1e-8)

    @given(samples=complex_samples(33), a=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    def test_mode_norm_quadratic_scaling(self, samples, a):
        g = TimeGrid.linspace(0.0, 2.0, 33)
        base = mode_norm2(FieldMode(grid=g, samples=samples))
        scaled = mode_norm2(FieldMode(grid=g, samples=a * samples))
        assert scaled == pytest.approx(abs(a) ** 2 * base, rel=1e-9, abs=1e-12)

    def test_grid_refinement_convergence(self):
        def make(n):
            g = TimeGrid.linspace(0.0, 10.0, n)
            t = g.times
            return FieldMode(grid=g, samples=np.exp(-((t - 5) ** 2)) * np.exp(1j * t))

        coarse = mode_norm2(make(2001))
        fine = mode_norm2(make(4001))
        assert abs(coarse - fine) < 1e-8


class TestFlip:
    def test_constant_unchanged(self, gauss_grid):
        s = SpinWave(grid=gauss_grid, samples=np.full(gauss_grid.n, 0.7 + 0.1j))
        assert np.allclose(flip(s).samples, s.samples)

    @given(samples=complex_samples(64))
    def test_involution_and_norm(self, samples):
        g = SpaceGrid.uniform_midpoint(64)
        s = SpinWave(grid=g, samples=samples)
        assert np.array_equal(flip(flip(s)).samples, s.samples)
        assert spinwave_norm2(flip(s)) == pytest.approx(spinwave_norm2(s), rel=1e-12, abs=1e-300)

    def test_flip_matches_point_evaluation(self, optimal_modes):
        s, _ = optimal_modes[10.0]
        flipped = flip(s)
        # the flipped samples are the original mode evaluated at 1 - zeta
        assert np.allclose(flipped.samples, s.samples[::-1])

    def test_asymmetric_grid_rejected(self):
        g = SpaceGrid(nodes=[0.1, 0.3, 0.9], weights=[0.3, 0.4, 0.3])
        s = SpinWave(grid=g, samples=np.ones(3))
        with pytest.raises(GridError):
            flip(s)


class TestTimeReverse:
    def test_real_symmetric_fixed_point(self, reference_input):
        rev = time_reverse(reference_input)
        assert np.allclose(rev.samples, reference_input.samples, atol=1e-12)

    @given(samples=complex_samples(40))
    def test_involution_and_norm(self, samples):
        g = TimeGrid.linspace(0.0, 4.0, 40)
        m = FieldMode(grid=g, samples=samples)
        assert np.array_equal(time_reverse(time_reverse(m)).samples, m.samples)
        assert mode_norm2(time_reverse(m)) == pytest.approx(mode_norm2(m), rel=1e-12, abs=1e-300)

    def test_control_field_supported(self):
        g = TimeGrid.linspace(0.0, 1.0, 11)
        c = ControlField(grid=g, samples=np.linspace(0, 1, 11) * (1 + 2j))
        rc = time_reverse(c)
        assert isinstance(rc, ControlField)
        assert np.allclose(rc.samples, np.conj(c.samples[::-1]))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            time_reverse(np.ones(4))


class TestResample:
    def test_gauss_to_uniform_roundtrip(self, gauss_grid, uniform_grid, optimal_modes):
        s, _ = optimal_modes[10.0]
        on_uniform = resample_spinwave(s, uniform_grid)
        back = resample_spinwave(on_uniform, gauss_grid)
        diff = np.abs(back.samples - s.samples)
        # extreme Gauss nodes sit outside the midpoint span, so pointwise
        # error there is spline extrapolation; the weighted norm is what
        # downstream quadratures see
        wl2 = np.sqrt(np.dot(gauss_grid.weights, diff**2))
        assert wl2 < 1e-6
        assert np.max(diff[5:-5]) < 1e-5

    def test_norm_preserved_for_smooth_wave(self, gauss_grid, uniform_grid):
        z = gauss_grid.nodes
        s = SpinWave(grid=gauss_grid, samples=np.sin(np.pi * z) + 0.5)
        s2 = resample_spinwave(s, uniform_grid)
        assert spinwave_norm2(s2) == pytest.approx(spinwave_norm2(s), abs=1e-5)

    def test_gauss_resampling_is_bit_reproducible(self, uniform_grid, optimal_modes):
        s, _ = optimal_modes[100.0]
        first = resample_spinwave(s, uniform_grid).samples
        assert np.array_equal(resample_spinwave(s, uniform_grid).samples, first)

    def test_gauss_resampling_reproduces_polynomials(self, gauss_grid, uniform_grid):
        def poly(z):
            return (1.0 - 2.0j) * z**7 - 3.0 * z**4 + 0.5j * z + 2.0

        s = SpinWave(grid=gauss_grid, samples=poly(gauss_grid.nodes))
        got = resample_spinwave(s, uniform_grid).samples
        assert np.max(np.abs(got - poly(uniform_grid.nodes))) < 1e-13


class TestWaveformSpline:
    def test_values_and_integral_follow_the_spline(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(0)
        g = TimeGrid.linspace(0.3, 7.3, 701)
        samples = rng.normal(size=701) + 1j * rng.normal(size=701)
        spline = _WaveformSpline(ControlField(grid=g, samples=samples))
        t = np.sort(rng.uniform(0.0, 8.0, 5000))
        inside = (t >= 0.3) & (t <= 7.3)
        reference = CubicSpline(g.times, samples)
        assert np.array_equal(spline(t)[inside], reference(t[inside]))
        assert not np.any(spline(t)[~inside])
        # the integral from the window's start, constant outside the window
        exact = reference.antiderivative()(np.clip(t, 0.3, 7.3))
        assert np.max(np.abs(spline.integral(t) - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermite_panel_reproduces_cubics(dtype):
    # a cubic is its own cubic Hermite interpolant: on random panels [a, a + w]
    # the panel reproduces p(a + w t) and the integral of p from a
    rng = np.random.default_rng(7)
    n = 2000
    c = rng.normal(size=(4, n))
    if dtype is complex:
        c = c + 1j * rng.normal(size=(4, n))
    w = 10.0 ** rng.uniform(-3.0, 2.0, n)
    t = rng.uniform(0.0, 1.0, n)
    s = w * t  # distance from the panel's start
    value = c[0] + s * (c[1] + s * (c[2] + s * c[3]))
    integral = s * (c[0] + s * (c[1] / 2 + s * (c[2] / 3 + s * c[3] / 4)))
    ends = (c[0], c[1], c[0] + w * (c[1] + w * (c[2] + w * c[3])),
            c[1] + w * (2 * c[2] + w * 3 * c[3]))
    got_integral, got_value = _hermite_panel(*ends, w, t)
    # the cubic's size on its panel
    scale = np.abs(c[0]) + w * (np.abs(c[1]) + w * (np.abs(c[2]) + w * np.abs(c[3])))
    assert np.max(np.abs(got_value - value) / scale) <= 1e-14
    assert np.max(np.abs(got_integral - integral) / (w * scale)) <= 1e-14


class TestChebyshevInterpolant:
    def test_entire_function_resolved_at_first_level(self):
        def f(x):
            return np.exp(3j * x) * np.cos(5.0 * x)

        interp = _chebyshev_interpolant(f, 0.0, 2.0)
        assert interp.n == _CHEB_START
        # several evaluation blocks, the nodes and both ends among the points
        x = np.concatenate([np.linspace(0.0, 2.0, 10_001), interp.points])
        assert np.max(np.abs(interp(x) - f(x))) < 1e-14

    def test_function_beyond_first_level_takes_the_next(self):
        # e^{30ix} on [-1, 1] needs about 60 coefficients: the first level's
        # tail is not at rounding level, the next level's is
        def f(x):
            return np.exp(30j * x)

        interp = _chebyshev_interpolant(f, -1.0, 1.0)
        assert interp.n == 2 * _CHEB_START - 1 == 129
        x = np.linspace(-1.0, 1.0, 10_001)
        assert np.max(np.abs(interp(x) - f(x))) <= 1e-14

    def test_values_on_a_finer_level_by_one_fft(self):
        # 40 coefficients per series, two series at once, onto 129 points
        rng = np.random.default_rng(3)
        c = rng.normal(size=(2, 40)) + 1j * rng.normal(size=(2, 40))
        values = _chebyshev_values(c, 129)
        x = _chebyshev_points(129, -1.0, 1.0)
        for series, v in zip(c, values):
            exact = np.polynomial.chebyshev.chebval(x, series)
            assert np.max(np.abs(v - exact)) <= 1e-14 * np.sum(np.abs(series))
            back = _chebyshev_coefficients(v)
            assert np.max(np.abs(back[:40] - series)) <= 1e-15 * np.sum(np.abs(series))
            assert np.max(np.abs(back[40:])) <= 1e-15 * np.sum(np.abs(series))

    def test_unresolved_function_raises_at_the_cap(self):
        sampled = []

        def jump(x):
            sampled.append(x.size)
            return np.where(x < 0.3, 1.0, -1.0) + 0j

        with pytest.raises(ConvergenceError):
            _chebyshev_interpolant(jump, 0.0, 1.0)
        # nested levels: every point of the cap level sampled exactly once
        assert sum(sampled) == _CHEB_MAX


def test_normalized_mode_rejects_zero():
    g = TimeGrid.linspace(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        normalized_mode(FieldMode(grid=g, samples=np.zeros(16)))


def test_nondimensionalize_doc_states_the_system():
    text = nondimensionalize_doc()
    for fragment in (
        "dE/dzeta = i sqrt(d) P",
        "-(1 + i delta) P",
        "i conj(omega(tau)) P",
        "photon-number fraction",
        "P decays at unit rate",
    ):
        assert fragment in text


def barycentric(kind):
    """An interpolant on descending Chebyshev points or on ascending Gauss
    nodes with the weights :func:`resample_spinwave` gives them."""
    if kind == "chebyshev":
        return _chebyshev_interpolant(lambda x: np.exp(3j * x) * np.cos(5.0 * x), 0.0, 2.0)
    g = SpaceGrid.gauss_legendre(40)
    z = g.nodes
    w = (-1.0) ** np.arange(z.size) * np.sqrt(z * (1.0 - z) * g.weights)
    return _BarycentricInterpolant(points=z, values=np.exp(2j * z) * (1.0 + z), weights=w)


class TestCauchyMatrix:
    @pytest.mark.parametrize("kind", ["chebyshev", "gauss"])
    def test_on_node_rows_are_exact(self, kind):
        # both end points and shuffled interior nodes, among points off every node
        interp = barycentric(kind)
        n = interp.n
        pick = np.concatenate([[0, n - 1], np.random.default_rng(5).permutation(n - 2)[:12] + 1])
        off = 0.5 * (interp.points[1:] + interp.points[:-1])
        c = interp.cauchy(np.concatenate([off[:5], interp.points[pick], off[5:]]))
        assert np.all(np.isfinite(c))
        assert np.array_equal(c[5:5 + pick.size], np.eye(n)[pick])
        assert np.array_equal(interp(interp.points[pick]), interp.values[pick])

    @pytest.mark.parametrize("kind", ["chebyshev", "gauss"])
    def test_formula_is_the_call_off_the_nodes(self, kind):
        interp = barycentric(kind)
        lo, hi = np.min(interp.points), np.max(interp.points)
        x = np.linspace(lo, hi, 3001)
        x = x[~np.isin(x, interp.points)]
        c = interp.cauchy(x)
        v = interp.values
        got = (c @ v) / (c @ np.ones(interp.n))
        assert np.max(np.abs(got - interp(x))) <= 1e-15 * np.max(np.abs(v))
