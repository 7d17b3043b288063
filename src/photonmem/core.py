"""Nondimensional grids, field/spin-wave containers, norms and reversal maps.

Everything downstream works in the scaled variables described by
:func:`nondimensionalize_doc`: time in units of the optical-coherence decay
rate, space as a fraction of the medium length, Rabi frequencies in decay
units.  The only physical knobs left after the rescaling are the optical
depth ``d`` and the one-photon detuning ``delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "PhotonMemError",
    "GridError",
    "ConvergenceError",
    "InstabilityError",
    "ShapingError",
    "MediumParams",
    "TimeGrid",
    "SpaceGrid",
    "FieldMode",
    "ControlField",
    "SpinWave",
    "EfficiencyBreakdown",
    "mode_norm2",
    "spinwave_norm2",
    "flip",
    "time_reverse",
    "normalized_mode",
    "normalized_spinwave",
    "resample_spinwave",
    "make_reference_input",
    "nondimensionalize_doc",
]

GRID_SYMMETRY_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12


class PhotonMemError(Exception):
    """Base class for all library errors."""


class GridError(PhotonMemError):
    """Raised for invalid or incompatible grids."""


class ConvergenceError(PhotonMemError):
    """An iterative solver failed to converge; carries the last iterate."""

    def __init__(self, message, last_mode=None, last_eigenvalue=None):
        super().__init__(message)
        self.last_mode = last_mode
        self.last_eigenvalue = last_eigenvalue


class InstabilityError(PhotonMemError):
    """Time stepping became unstable; retry with a smaller step."""


class ShapingError(PhotonMemError):
    """Control shaping could not satisfy the requested target."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MediumParams:
    """Optical depth and detuning, the only medium parameters.

    ``d`` is dimensionless and must be positive; ``delta`` is the one-photon
    detuning in units of the polarization decay rate and may take any sign.
    """

    d: float
    delta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.d) and self.d > 0):
            raise ValueError(f"optical depth must be finite and > 0, got {self.d}")
        if not np.isfinite(self.delta):
            raise ValueError(f"detuning must be finite, got {self.delta}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``n`` samples starting at ``tau0`` with step ``dtau``."""

    tau0: float
    dtau: float
    n: int

    def __post_init__(self):
        if self.dtau <= 0 or not np.isfinite(self.dtau):
            raise GridError(f"dtau must be positive, got {self.dtau}")
        if self.n < 2:
            raise GridError(f"need at least 2 samples, got {self.n}")

    @cached_property
    def times(self) -> np.ndarray:
        return _readonly(self.tau0 + self.dtau * np.arange(self.n))

    @property
    def duration(self) -> float:
        return (self.n - 1) * self.dtau

    @property
    def t_end(self) -> float:
        return self.tau0 + self.duration

    @classmethod
    def linspace(cls, t0: float, t1: float, n: int) -> "TimeGrid":
        if t1 <= t0:
            raise GridError("t1 must exceed t0")
        if n < 2:
            raise GridError(f"need at least 2 samples, got {n}")
        return cls(tau0=t0, dtau=(t1 - t0) / (n - 1), n=n)


@dataclass(frozen=True, eq=False)
class SpaceGrid:
    """Quadrature nodes/weights on the unit interval.

    ``kind`` records how the grid was built ("gauss", "uniform" or "custom")
    so that interpolation can pick a stable scheme.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(np.asarray(self.nodes, float)))
        object.__setattr__(self, "weights", _readonly(np.asarray(self.weights, float)))
        z, w = self.nodes, self.weights
        if z.ndim != 1 or w.shape != z.shape or z.size < 2:
            raise GridError("nodes/weights must be matching 1-d arrays")
        if np.any(np.diff(z) <= 0):
            raise GridError("nodes must be strictly increasing")
        if z[0] < 0.0 or z[-1] > 1.0:
            raise GridError("nodes must lie in [0, 1]")
        if np.any(w <= 0):
            raise GridError("weights must be positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise GridError(f"weights must sum to 1, got {w.sum()!r}")

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def is_symmetric(self) -> bool:
        """True when the grid maps onto itself under zeta -> 1 - zeta."""
        z, w = self.nodes, self.weights
        return bool(
            np.max(np.abs(z + z[::-1] - 1.0)) < GRID_SYMMETRY_TOL
            and np.max(np.abs(w - w[::-1])) < GRID_SYMMETRY_TOL
        )

    @classmethod
    @lru_cache(maxsize=32)
    def gauss_legendre(cls, n: int = 200) -> "SpaceGrid":
        """Gauss-Legendre grid of ``n`` nodes; one shared read-only instance per ``n``."""
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=(x + 1.0) / 2.0, weights=w / 2.0, kind="gauss")

    @classmethod
    def uniform_midpoint(cls, n: int = 256) -> "SpaceGrid":
        dz = 1.0 / n
        return cls(nodes=(np.arange(n) + 0.5) * dz, weights=np.full(n, dz), kind="uniform")


def _as_complex_samples(samples, grid_len: int, what: str) -> np.ndarray:
    a = np.asarray(samples, dtype=complex)
    if a.shape != (grid_len,):
        raise ValueError(f"{what}: expected {grid_len} samples, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{what}: samples must be finite")
    return _readonly(a)


@dataclass(frozen=True, eq=False)
class FieldMode:
    """Complex field envelope sampled on a uniform time grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "samples", _as_complex_samples(self.samples, self.grid.n, "FieldMode")
        )

    def norm2(self) -> float:
        return mode_norm2(self)


@dataclass(frozen=True, eq=False)
class ControlField:
    """Complex Rabi-frequency samples on a uniform time grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "samples", _as_complex_samples(self.samples, self.grid.n, "ControlField")
        )


@dataclass(frozen=True, eq=False)
class SpinWave:
    """Complex spin-wave samples on a spatial quadrature grid."""

    grid: SpaceGrid
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "samples", _as_complex_samples(self.samples, self.grid.n, "SpinWave")
        )

    def norm2(self) -> float:
        return spinwave_norm2(self)


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Where the incident photon number went, as fractions of the input."""

    eta_storage: float = 0.0
    eta_retrieval: float = 0.0
    eta_total: float = 0.0
    leak_fraction: float = 0.0
    decay_fraction: float = 0.0
    residual_fraction: float = 0.0


def _trapezoid_weights(g: TimeGrid) -> np.ndarray:
    w = np.full(g.n, g.dtau)
    w[0] = w[-1] = 0.5 * g.dtau
    return w


def mode_norm2(mode: FieldMode) -> float:
    """Trapezoid value of the time integral of |samples|^2."""
    return float(np.trapezoid(np.abs(mode.samples) ** 2, dx=mode.grid.dtau))


def spinwave_norm2(s: SpinWave) -> float:
    """Quadrature value of the space integral of |samples|^2."""
    return float(np.dot(s.grid.weights, np.abs(s.samples) ** 2))


def flip(s: SpinWave) -> SpinWave:
    """Reverse a spin wave in space: output(zeta) = input(1 - zeta).

    Used to move between the storage and the backward-retrieval propagation
    frames.  Requires a grid that is symmetric under zeta -> 1 - zeta so the
    reversal is exact sample permutation; no extra phase is applied.
    """
    if not s.grid.is_symmetric:
        raise GridError("flip requires a grid symmetric under zeta -> 1 - zeta")
    return SpinWave(grid=s.grid, samples=s.samples[::-1])


def time_reverse(x):
    """Reverse in time and conjugate; works on FieldMode and ControlField.

    The sample order is reversed so that output(tau) = conj(input(T - tau))
    on the same grid.  Norms are preserved exactly.
    """
    if isinstance(x, FieldMode):
        return FieldMode(grid=x.grid, samples=np.conj(x.samples[::-1]))
    if isinstance(x, ControlField):
        return ControlField(grid=x.grid, samples=np.conj(x.samples[::-1]))
    raise TypeError(f"time_reverse expects FieldMode or ControlField, got {type(x)!r}")


def normalized_mode(mode: FieldMode) -> tuple[FieldMode, float]:
    """Return (unit-norm copy, original norm^2)."""
    n2 = mode_norm2(mode)
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero mode")
    return FieldMode(grid=mode.grid, samples=mode.samples / np.sqrt(n2)), n2


def normalized_spinwave(s: SpinWave) -> tuple[SpinWave, float]:
    """Return (unit-norm copy, original norm^2)."""
    n2 = spinwave_norm2(s)
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero spin wave")
    return SpinWave(grid=s.grid, samples=s.samples / np.sqrt(n2)), n2


def resample_spinwave(s: SpinWave, grid: SpaceGrid) -> SpinWave:
    """Interpolate a spin wave onto another grid.

    Gauss-type sources use barycentric polynomial interpolation (stable for
    endpoint-clustered nodes) with the closed-form Gauss-Legendre weights
    (-1)^j sqrt(zeta_j (1 - zeta_j) w_j) (Wang, Huybrechs & Vandewalle,
    Math. Comp. 83, 2014); uniform sources use a cubic spline, since a
    global polynomial through equispaced points is ill-conditioned.
    """
    if s.grid.kind == "gauss":
        z = s.grid.nodes
        wi = (-1.0) ** np.arange(z.size) * np.sqrt(z * (1.0 - z) * s.grid.weights)
        vals = _BarycentricInterpolant(points=z, values=s.samples, weights=wi)(grid.nodes)
    else:
        from scipy.interpolate import CubicSpline

        vals = CubicSpline(s.grid.nodes, s.samples, bc_type="natural")(grid.nodes)
    return SpinWave(grid=grid, samples=vals)


class _WaveformSpline:
    """Cubic spline of a sampled waveform, built once and read many times.

    A call gives its values at an array of times, zero outside the window
    (up to a 1e-12 margin at either end); ``integral`` gives its integral
    from the window's start, which outside the window is constant, from the
    spline's antiderivative.
    """

    def __init__(self, wf: FieldMode | ControlField):
        from scipy.interpolate import CubicSpline

        g = wf.grid
        self._spline = CubicSpline(g.times, wf.samples)
        self._antiderivative = self._spline.antiderivative()
        self._window = (g.tau0, g.t_end)

    def __call__(self, times: np.ndarray) -> np.ndarray:
        lo, hi = self._window
        vals = np.asarray(self._spline(times), dtype=complex)
        vals[(times < lo - 1e-12) | (times > hi + 1e-12)] = 0.0
        return vals

    def integral(self, times: np.ndarray) -> np.ndarray:
        return self._antiderivative(np.clip(times, *self._window))


def _hermite_panel(fa, dfa, fb, dfb, w, t):
    """The cubic Hermite interpolant of (f, f') on a panel of width ``w``
    from a to b, at the fraction ``t`` of the way: its integral from a and its value."""
    integral = w * (fa * t + (fb - fa) * t**3 * (1.0 - 0.5 * t)
                    + w * t * t * (dfa * (0.5 - t * (2.0 / 3.0 - 0.25 * t))
                                   + dfb * t * (0.25 * t - 1.0 / 3.0)))
    value = (fa + (fb - fa) * t * t * (3.0 - 2.0 * t)
             + w * t * (1.0 - t) * ((1.0 - t) * dfa - t * dfb))
    return integral, value


# Chebyshev interpolation of a smooth function on an interval: values at
# Chebyshev points of the second kind, evaluated by the barycentric formula
# (Berrut & Trefethen, SIAM Rev. 46, 2004), with the number of points
# chosen by where the Chebyshev coefficients reach rounding level (a plain
# form of the chop of Aurentz & Trefethen, ACM TOMS 43, 2017).
_CHEB_START = 65  # points of the first level; each level doubles the intervals
_CHEB_MAX = 8193  # the most points sampled; a function unresolved there raises
_CHEB_TAIL = 1e-14  # the last eighth of the coefficients, relative to the largest
_CHEB_BLOCK = 2**18  # (evaluation point, node) pairs per barycentric block


def _chebyshev_points(n: int, a: float, b: float) -> np.ndarray:
    """The n Chebyshev points of the second kind on [a, b], from b down to a.

    The sine form keeps them symmetric, and the points of n levels are
    bitwise the even points of 2n - 1.
    """
    m = n - 1
    t = np.sin(np.pi * np.arange(m, -m - 1, -2) / (2 * m))
    x = 0.5 * (a + b) + 0.5 * (b - a) * t
    x[0], x[-1] = b, a
    return x


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c_k of sum_k c_k T_k through ``values`` at the points of
    :func:`_chebyshev_points`, by one FFT of the even extension; one series
    per row of a 2-d ``values``."""
    m = values.shape[-1] - 1
    c = np.fft.fft(np.concatenate([values, values[..., m - 1:0:-1]], axis=-1))[..., : m + 1] / m
    c[..., [0, m]] /= 2.0
    return c


def _chebyshev_values(coefficients: np.ndarray, n: int) -> np.ndarray:
    """Values of the series sum_k c_k T_k at the n points of
    :func:`_chebyshev_points`, by one FFT of the zero-padded even extension.

    The inverse of :func:`_chebyshev_coefficients`; one series per row of a
    2-d ``coefficients``, each of at most n terms.
    """
    m = n - 1
    c = np.asarray(coefficients)
    e = np.zeros(c.shape[:-1] + (2 * m,), dtype=complex)
    e[..., :c.shape[-1]] = c
    e[..., 1:m] *= 0.5
    e[..., m + 1:] = e[..., m - 1:0:-1]
    return np.fft.fft(e)[..., : m + 1]


def _real_product(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a real matrix ``a`` and a contiguous complex vector ``v``, as
    one real product; ``a @ v`` would cast ``a`` to complex on every call."""
    return (a @ v.view(float).reshape(-1, 2)).view(complex).ravel()


@dataclass(frozen=True, eq=False)
class _BarycentricInterpolant:
    """Complex values at interpolation points, evaluated anywhere on their span.

    A call evaluates the barycentric formula with the points' ``weights``,
    ``_CHEB_BLOCK // n`` points at a time, so memory stays bounded whatever
    the number of evaluation points; :meth:`cauchy` is the formula's matrix.
    """

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.points.size

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        # numerator (real and imaginary parts) and denominator in one product
        vals = np.column_stack([self.values.real, self.values.imag, np.ones(self.n)])
        out = np.empty(flat.size, dtype=complex)
        step = max(1, _CHEB_BLOCK // self.n)
        for r in range(0, flat.size, step):
            num = self.cauchy(flat[r:r + step]) @ vals
            out[r:r + step] = (num[:, 0] + 1j * num[:, 1]) / num[:, 2]
        return out.reshape(x.shape)

    def cauchy(self, x: np.ndarray) -> np.ndarray:
        """The real len(x) x n matrix C_ij = w_j / (x_i - p_j), with the unit
        row of p_j where x_i = p_j: (C @ v) / (C @ 1) interpolates v at x.
        The points p may come in any order (Chebyshev points descend, the
        Gauss nodes of :func:`resample_spinwave` ascend)."""
        order = np.argsort(self.points)
        near = order[np.searchsorted(self.points, x, sorter=order).clip(max=self.n - 1)]
        on = np.flatnonzero(self.points[near] == x)
        c = np.subtract.outer(x, self.points)
        c[on] = 1.0  # no division by zero on the rows replaced below
        np.divide(self.weights, c, out=c)
        c[on] = 0.0
        c[on, near[on]] = 1.0
        return c


def _chebyshev_interpolant(
    f, a: float, b: float, n_max: int = _CHEB_MAX
) -> _BarycentricInterpolant:
    """Chebyshev interpolant of a smooth complex function on [a, b].

    ``f`` maps an array of points to the function's values there, or to
    one row of values per point for several functions at once.  It is
    sampled at ``_CHEB_START`` Chebyshev points, then at the new points of
    each level that doubles the intervals, until the last eighth of the
    Chebyshev coefficients, each the largest over the functions, is at most
    ``_CHEB_TAIL`` of the largest.  A function still unresolved on the last
    level of at most ``n_max`` points raises :class:`ConvergenceError`
    before any point beyond it is sampled, and one with non-finite values
    ValueError.
    """
    n, values = _CHEB_START, None
    while n <= n_max:
        x = _chebyshev_points(n, a, b)
        if values is None:
            values = np.asarray(f(x), dtype=complex)
        else:
            merged = np.empty((n,) + values.shape[1:], dtype=complex)
            merged[::2] = values
            merged[1::2] = f(x[1::2])
            values = merged
        if not np.all(np.isfinite(values)):
            raise ValueError("Chebyshev interpolant: the function is not finite on the interval")
        mag = np.abs(_chebyshev_coefficients(values.T)).reshape(-1, n).max(axis=0)
        if np.max(mag[-(n // 8):]) <= _CHEB_TAIL * np.max(mag):
            w = np.where(np.arange(n) % 2, -1.0, 1.0)  # (-1)^j, halved at the ends
            w[[0, -1]] *= 0.5
            return _BarycentricInterpolant(points=x, values=values, weights=w)
        n = 2 * n - 1
    raise ConvergenceError(
        f"Chebyshev interpolant: not resolved to rounding level on at most {n_max} points "
        f"on [{a!r}, {b!r}]"
    )


def make_reference_input(T: float, grid: TimeGrid | None = None) -> FieldMode:
    """Gaussian-like input mode on [0, T], vanishing exactly at the ends.

    A Gaussian centered at T/2 with standard deviation 0.15 T, shifted down
    by its boundary value so the endpoints are exactly zero, then normalized
    to unit energy.  Symmetric about T/2 by construction.
    """
    if T <= 0:
        raise ValueError("duration must be positive")
    if grid is None:
        grid = TimeGrid.linspace(0.0, T, 2001)
    t = grid.times - grid.tau0
    g = np.exp(-((t - 0.5 * T) ** 2) / (2.0 * (0.15 * T) ** 2))
    g = np.clip(g - g[0], 0.0, None)
    g /= np.sqrt(np.trapezoid(g**2, dx=grid.dtau))
    return FieldMode(grid=grid, samples=g.astype(complex))


def nondimensionalize_doc() -> str:
    """Canonical scaled equations used throughout the package."""
    return (
        "Scaled variables: tau = (decay rate) * (t - z/c) in the frame moving\n"
        "with the signal, zeta = z/L, omega = Omega/(decay rate), delta =\n"
        "Delta/(decay rate).  The field envelope E is rescaled so that the\n"
        "time integral of |E|^2 is the photon-number fraction; an input mode\n"
        "has integral 1.  The equations of motion become\n"
        "\n"
        "    dE/dzeta = i sqrt(d) P\n"
        "    dP/dtau  = -(1 + i delta) P + i sqrt(d) E + i omega(tau) S\n"
        "    dS/dtau  = i conj(omega(tau)) P\n"
        "\n"
        "with boundary condition E(0, tau) = E_in(tau) for storage and\n"
        "initial spin wave S(zeta, 0) for retrieval.  Retardation across the\n"
        "medium is absorbed by the comoving time, so the field is an\n"
        "instantaneous functional of P.  Storage efficiency is the zeta\n"
        "integral of |S|^2 at the end of the input window; retrieval\n"
        "efficiency is the tau integral of |E(1, tau)|^2.  With omega = 0 the\n"
        "spin wave is frozen and P decays at unit rate.\n"
    )
