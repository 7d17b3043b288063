"""Closed-form adiabatic retrieval, control shaping, and optimal storage.

With a smooth control the optical polarization follows the fields
quasi-statically and the retrieved field has the closed form

    E_out(tau) = -sqrt(d) omega(tau) q(h(tau)),
    q(h) = integral_0^1 dzeta [1/(1 + i delta)]
           * exp(-(d zeta + h)/(1 + i delta))
           * I0(2 sqrt(d zeta h)/(1 + i delta)) * s(1 - zeta),

where h(tau) is the accumulated control power.  Only h couples the control
to the output amplitude, so the map from target output shape to control is
a monotone change of clock: solve G(h(tau)) = eta_r * (target energy up to
tau) with G(h) = d * integral_0^h |q|^2 dh', read off the magnitude from
dh/dtau and the phase from the closed form itself.  Storage is the time
reverse of retrieval; its closed form is the adjoint integral and optimal
storage controls are time-reversed shaped retrieval controls.

Both maps share one factored retrieval matrix R = diag(row) C B: B is the
weighted bracket on a few Chebyshev points in sqrt(h), chopped over all
its columns, and C the barycentric formula's matrix from them to the
control's samples.  Retrieval applies C (B s), storage the weighted
adjoint ((tw e row) C) B, so neither builds a matrix over every sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder
from scipy.special import ive

from .core import (
    ControlField,
    FieldMode,
    MediumParams,
    ShapingError,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    _CHEB_START,
    _CHEB_TAIL,
    _BarycentricInterpolant,
    _chebyshev_coefficients,
    _chebyshev_interpolant,
    _chebyshev_points,
    _chebyshev_values,
    _hermite_panel,
    _real_product,
    _trapezoid_weights,
    mode_norm2,
    time_reverse,
)
from .kernel import optimal_spin_wave, retrieval_efficiency

__all__ = [
    "AdiabaticityWarning",
    "DecayFunction",
    "default_h_max",
    "retrieval_matrix",
    "storage_matrix",
    "retrieve_adiabatic",
    "store_adiabatic",
    "ShapingResult",
    "shape_retrieval_control",
    "StorageControlResult",
    "optimal_storage_control",
]

ADIABATIC_PRODUCT_MIN = 10.0


class AdiabaticityWarning(UserWarning):
    """The requested window is too short for the quasi-static closed forms."""


@dataclass(frozen=True, eq=False)
class DecayFunction:
    """Accumulated control power h(tau); nonnegative and nondecreasing."""

    grid: TimeGrid
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.grid.n,):
            raise ValueError("h must have one sample per grid point")
        if h[0] != 0.0 or np.any(np.diff(h) < -1e-12) or np.any(h < 0):
            raise ValueError("h must start at 0 and be nondecreasing")
        h = np.maximum.accumulate(h)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_control(cls, ctrl: ControlField) -> "DecayFunction":
        power = np.abs(ctrl.samples) ** 2
        dt = ctrl.grid.dtau
        h = np.concatenate([[0.0], np.cumsum(0.5 * dt * (power[1:] + power[:-1]))])
        return cls(grid=ctrl.grid, h=h)

    @property
    def total(self) -> float:
        return float(self.h[-1])


def default_h_max(params: MediumParams) -> float:
    """Accumulated power needed to drain a spin wave at this depth/detuning.

    The emission amplitude decays like exp(-(sqrt(h) - sqrt(d zeta))^2 /
    (1 + delta^2)), so completing retrieval takes h of order d on resonance
    and (1 + delta^2) times more energy off resonance.  This default leaves
    a residual below ~1e-8 of the retrievable energy.
    """
    return (math.sqrt(params.d) + math.sqrt(10.0 * (1.0 + params.delta**2))) ** 2 + 10.0


# Every Bessel argument 2 sqrt(h d zeta)/(1 + i delta) of the bracket lies
# on the ray t e^{-i phi}, phi = arctan(delta): the real axis on resonance.
# The scaled I0 along it is tabulated once per call as Taylor coefficients of
# order _RAY_ORDER at the nodes t_k = k * _RAY_STEP.  At |t - t_k| <= step / 2
# the truncation error is (step / 2)^(order + 1) / (order + 1)! times the scale
# of that derivative, which along the ray is of the order of the scaled I0
# itself: 7e-22.
_RAY_STEP, _RAY_ORDER = 0.5, 14
_RAY_BLOCK = 64  # rows per evaluation block, sized to stay in cache
# the most Chebyshev points of a factored map's predicted level; the chop may
# take the level above: 513 points at d = 3000, delta = 100 on 1,501 samples
# (store 19 ms, dense matrix 31; the rows at the samples 15 and 15)
_MAP_POINTS = 257
# Chebyshev points in sqrt(h) of the shaping's energy table, the least; an
# n-point interpolant of q takes the first 2^k + 1 >= 2n above it
_ENERGY_ROWS = 4097
_NEWTON_STEPS = 3  # per shaped sample, on the table's Hermite panel


def _ray_taylor_table(n_nodes: int, rot: complex, step: float, order: int) -> np.ndarray:
    """Taylor coefficients of I0(t rot) exp(-t_k Re rot) in t - t_k, per node t_k = k step.

    Complex, of shape (order + 1, n_nodes).  Orders 0 and 1 are
    ive(0, a) and ive(1, a) at a = t_k rot; Bessel's equation
    a y'' + y' - a y = 0 expanded about a gives the rest,

        a (n+1)(n+2) c_{n+2} = a c_n + c_{n-1} - (n+1)^2 c_{n+1},

    two Bessel evaluations per node instead of one per order.  The node
    t_0 = 0 is the equation's singular point and takes the series of I0 there.
    """
    a = np.arange(1, n_nodes) * (step * rot)
    c = np.zeros((order + 1, n_nodes), dtype=complex)
    c[0, 1:] = ive(0, a)
    c[1, 1:] = ive(1, a)
    for n in range(order - 1):
        c_prev = c[n - 1, 1:] if n else 0.0
        rhs = a * c[n, 1:] + c_prev - (n + 1) ** 2 * c[n + 1, 1:]
        c[n + 2, 1:] = rhs / (a * ((n + 1) * (n + 2)))
    for m in range(0, order + 1, 2):
        c[m, 0] = 1.0 / (4 ** (m // 2) * math.factorial(m // 2) ** 2)
    c *= rot ** np.arange(order + 1)[:, None]  # a step t - t_k moves a by rot (t - t_k)
    return c


def _ray_table(sh_max: float, zeta: np.ndarray, params: MediumParams) -> tuple:
    """(step, :func:`_ray_taylor_table`) of the bracket rows up to sqrt(h) = ``sh_max``.

    The nodes reach t = sh_max * 2 sqrt(d max zeta) cos(phi) plus one step.
    """
    step = _RAY_STEP
    denom = 1.0 + 1j * params.delta
    cos_phi = 1.0 / abs(denom)
    st_max = (2.0 * cos_phi) * np.sqrt(params.d * np.max(zeta, initial=0.0))
    rot = cos_phi * np.conj(denom)
    return step, _ray_taylor_table(int(sh_max * st_max / step) + 2, rot, step, _RAY_ORDER)


def _row_rate(params: MediumParams) -> float:
    """r = delta / (1 + delta^2): the bracket's row phase is e^{i r h}."""
    return params.delta / (1.0 + params.delta**2)


def _bracket_matrix(
    h: np.ndarray,
    zeta: np.ndarray,
    params: MediumParams,
    table: tuple | None = None,
) -> np.ndarray:
    """exp(-(d z + h)/(1+i delta)) * I0(2 sqrt(d z h)/(1+i delta)) * e^{-i r h}, stably.

    At every detuning, resonance included, the Bessel argument is t e^{-i phi}
    with t = 2 sqrt(d z h) / sqrt(1 + delta^2) and phi = arctan(delta); each
    element is a Horner step in t - t_k on the table of
    :func:`_ray_taylor_table`, whose node scaling t_k cos(phi) joins the
    exponent.  That exponent has real part -cos^2(phi) (sqrt(d z) -
    sqrt(h))^2 - cos(phi) (t - t_k) <= 1/32, so no depth overflows, and
    imaginary part r (d z + h), r = delta / (1 + delta^2), which separates
    into a row phase e^{i r h} and a node phase e^{i r d z}: one real exp per
    element.  The rows leave the row phase to the caller, so they are smooth
    in sqrt(h); on resonance r = 0 and both phases are 1.

    ``table`` is a :func:`_ray_table`, step and coefficients, for rows up to
    at least max sqrt(h), so that several calls share one; by default each
    call builds its own.
    """
    h = np.asarray(h, dtype=float)
    dz = params.d * zeta
    sh, sdz = np.sqrt(h), np.sqrt(dz)
    denom = 1.0 + 1j * params.delta
    cos_phi = 1.0 / abs(denom)
    sh_max = np.max(sh, initial=0.0)
    step, c = _ray_table(sh_max, zeta, params) if table is None else table
    order = c.shape[0] - 1
    st = (2.0 * cos_phi) * sdz  # t = sqrt(h) * st
    steps = st * (1.0 / step)  # t / step = sqrt(h) * steps
    if np.rint(sh_max * np.max(steps, initial=0.0)) >= c.shape[1]:
        raise ValueError("the ray table does not reach these rows")
    node_phase = np.exp(1j * (_row_rate(params) * dz))
    out = np.empty((h.size, zeta.size), dtype=complex)
    shape = (min(_RAY_BLOCK, h.size), zeta.size)
    # per-block scratch: node index, t - t_k (real, and complex with zero
    # imaginary part for the Horner step), a real and a complex work array
    bufs = (np.empty(shape, dtype=np.intp), np.empty(shape), np.zeros(shape, dtype=complex),
            np.empty(shape), np.empty(shape, dtype=complex))
    for r in range(0, h.size, _RAY_BLOCK):
        rows = slice(r, r + _RAY_BLOCK)
        o = out[rows]
        k, ds, ds_c, x, w = (b[:len(o)] for b in bufs)
        np.multiply(sh[rows, None], steps, out=ds)
        np.rint(ds, out=x)
        k[...] = x
        ds -= x
        ds *= step
        ds_c.real = ds
        # k is inside the table, checked above; "clip" skips the copy "raise" makes
        np.take(c[order], k, out=o, mode="clip")
        for m in range(order - 1, -1, -1):
            o *= ds_c
            o += np.take(c[m], k, out=w, mode="clip")
        np.subtract(sh[rows, None], sdz, out=x)
        x *= x
        x *= -(cos_phi * cos_phi)
        ds *= cos_phi
        x -= ds
        # a modulus below e^-700 would leave subnormal elements, each of which
        # slows every later product with the rows many times over; it goes to 0
        x[x < -700.0] = -np.inf
        np.exp(x, out=x)  # the modulus of the exponential
        o *= x
        o *= node_phase
    return out


def _quadrature_weights(grid: SpaceGrid, params: MediumParams) -> np.ndarray:
    """weights / (1 + i delta) of the bracket quadrature against s(1 - zeta).

    The reflection zeta -> 1 - zeta is a reversal of the nodes only on a grid
    symmetric under it.
    """
    if not grid.is_symmetric:
        raise ValueError("adiabatic forms require a grid symmetric under zeta -> 1 - zeta")
    return grid.weights / (1.0 + 1j * params.delta)


def _emission_profile(
    h: np.ndarray,
    s: SpinWave,
    params: MediumParams,
    table: tuple | None = None,
) -> np.ndarray:
    """q(h) e^{-i r h}, r = delta / (1 + delta^2), on the wave's grid.

    q is the bracket integral against s(1 - zeta): the bracket rows of
    :func:`_bracket_matrix`, to which ``table`` passes, contracted with the
    reversed weighted samples.
    """
    v = (_quadrature_weights(s.grid, params) * s.samples)[::-1].copy()  # contiguous for BLAS
    return _bracket_matrix(np.atleast_1d(h), s.grid.nodes, params, table) @ v


def _emission_interpolant(
    s: SpinWave, params: MediumParams, h_max: float
) -> _BarycentricInterpolant:
    """q~(u) = q(u^2) e^{-i r u^2}, r = delta / (1 + delta^2), on [0, sqrt(h_max)].

    Without its row phase q is smooth in u = sqrt(h), so a chopped Chebyshev
    interpolant on a few hundred bracket rows, sharing one ray table, carries
    q~ to rounding level; the reader applies the row phase exactly at each h.
    """
    u_max = math.sqrt(h_max)
    table = _ray_table(u_max, s.grid.nodes, params)
    return _chebyshev_interpolant(
        lambda u: _emission_profile(u * u, s, params, table), 0.0, u_max
    )


def _warn_short_window(duration: float, d: float, what: str):
    if duration * d < ADIABATIC_PRODUCT_MIN:
        warnings.warn(
            f"{what}: window duration * d = {duration * d:.2f} < "
            f"{ADIABATIC_PRODUCT_MIN:g}; the quasi-static approximation degrades",
            AdiabaticityWarning,
            stacklevel=3,
        )


def _chebyshev_level(u_max: float, zeta_max: float, params: MediumParams) -> int:
    """The level the chop is predicted to take on the bracket rows up to
    sqrt(h) = ``u_max``, over nodes up to ``zeta_max``.

    At large argument a row is, in u = sqrt(h), a Gaussian of width
    1/cos(phi) times a wave of 2 |r| sqrt(d zeta) radians per unit u; its
    spectrum falls to ``_CHEB_TAIL`` within 2 cos(phi) sqrt(-ln _CHEB_TAIL)
    of the wave's, and the chop reads 8/7 of that times u_max / 2.  Over 449
    cases (d from 0.1 to 1e4, |delta| to 1000, h to 3 default_h_max) the
    chop took at most the level above this; fewer where |delta| <= 3 and
    d >= 1e3, where the wave has not formed.
    """
    spread = (2.0 * abs(_row_rate(params)) * math.sqrt(params.d * zeta_max)
              + 2.0 / math.hypot(1.0, params.delta) * math.sqrt(-math.log(_CHEB_TAIL)))
    level = _CHEB_START
    while level < 4.0 / 7.0 * spread * u_max:
        level = 2 * level - 1
    return level


@dataclass(frozen=True, eq=False)
class _RetrievalMap:
    """R = diag(row) C B, the retrieval matrix of a control in factors.

    B, ``rows``, holds the bracket rows at the reversed nodes on Chebyshev
    points in sqrt(h) times the :func:`_quadrature_weights`; C, ``lag``, is
    their real barycentric ``cauchy`` matrix at the samples' sqrt(h), and
    ``row`` is -sqrt(d) omega e^{i r h} over C's row sums.  Where ``lag`` is
    None, B holds the rows at the samples and C = 1.
    """

    row: np.ndarray
    rows: np.ndarray
    lag: np.ndarray | None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = self.rows @ v
        if self.lag is not None:
            x = _real_product(self.lag, x)
        return self.row * x

    def adjoint(self, e: np.ndarray, tw: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(tw e) R / w = ((tw e row) C) B / w, the adjoint of R in the time
        weights ``tw`` and the space weights ``w``.  A control stores x into
        adjoint(x[::-1])[::-1], with R the retrieval matrix of its time reverse."""
        y = tw * e * self.row
        if self.lag is not None:
            y = _real_product(self.lag.T, y)
        return (y @ self.rows) / w


def _retrieval_map(ctrl: ControlField, params: MediumParams, grid: SpaceGrid) -> _RetrievalMap:
    """The factors of the retrieval matrix of ``ctrl`` on ``grid``.

    B is the chop of :func:`_chebyshev_interpolant` over all its columns,
    which share one ray table, where :func:`_chebyshev_level` predicts at
    most ``_MAP_POINTS`` points and the level above the prediction, the
    most the chop may take (past it, it raises ConvergenceError), is below
    the sample count: no map evaluates as many rows as the direct route.
    Elsewhere B is the rows at the samples.
    """
    h = DecayFunction.from_control(ctrl).h
    sh, zeta = np.sqrt(h), grid.nodes[::-1]
    table = _ray_table(sh[-1], zeta, params)
    level = _chebyshev_level(sh[-1], zeta[0], params)
    row = -math.sqrt(params.d) * ctrl.samples * np.exp(1j * _row_rate(params) * h)
    if level <= _MAP_POINTS and 2 * level - 1 < h.size:
        cheb = _chebyshev_interpolant(
            lambda u: _bracket_matrix(u * u, zeta, params, table), 0.0, sh[-1], 2 * level - 1
        )
        rows, lag = cheb.values, cheb.cauchy(sh)
        row /= lag.sum(axis=1)
    else:
        rows, lag = _bracket_matrix(h, zeta, params, table), None
    rows *= _quadrature_weights(grid, params)
    return _RetrievalMap(row=row, rows=rows, lag=lag)


def retrieval_matrix(ctrl: ControlField, params: MediumParams, grid: SpaceGrid) -> np.ndarray:
    """Matrix sending retrieval-frame spin-wave samples to output samples.

    Row k holds the quadrature of the closed-form emission integral at the
    k-th control time: the bracket at the reversed nodes, weighted by
    :func:`_quadrature_weights` and scaled by -sqrt(d) omega e^{i r h}; the
    dense product of the factors of :func:`_retrieval_map`.
    """
    fwd = _retrieval_map(ctrl, params, grid)
    r = fwd.rows if fwd.lag is None else (fwd.lag @ fwd.rows.view(float)).view(complex)
    r *= fwd.row[:, None]
    return r


def storage_matrix(ctrl: ControlField, params: MediumParams, grid: SpaceGrid) -> np.ndarray:
    """Matrix sending input-mode samples to stored spin-wave samples.

    :meth:`_RetrievalMap.adjoint` in matrix form: the retrieval matrix of the
    time-reversed control, scaled in place by tw (rows) and 1/w (columns),
    transposed and reversed in both axes; the grid must be symmetric under
    zeta -> 1 - zeta.
    """
    r = retrieval_matrix(time_reverse(ctrl), params, grid)
    r *= _trapezoid_weights(ctrl.grid)[:, None]
    r /= grid.weights
    return r.T[::-1, ::-1]


def retrieve_adiabatic(s: SpinWave, ctrl: ControlField, params: MediumParams) -> FieldMode:
    """Closed-form retrieval of a spin wave by a smooth control.

    ``s`` is expressed in the retrieval propagation frame (apply flip first
    for backward retrieval).  As the accumulated control power grows the
    output energy approaches the kernel retrieval efficiency regardless of
    control shape or detuning.
    """
    _warn_short_window(ctrl.grid.duration, params.d, "retrieve_adiabatic")
    out = _retrieval_map(ctrl, params, s.grid) @ s.samples
    return FieldMode(grid=ctrl.grid, samples=out)


def store_adiabatic(
    input_mode: FieldMode,
    ctrl: ControlField,
    params: MediumParams,
    grid: SpaceGrid | None = None,
) -> SpinWave:
    """Closed-form spin wave stored from an input mode (storage frame).

    This is the time reverse of :func:`retrieve_adiabatic`, by
    :meth:`_RetrievalMap.adjoint`; ``grid`` must be symmetric under
    zeta -> 1 - zeta.
    """
    if ctrl.grid != input_mode.grid:
        raise ValueError("control and input must share a time grid")
    if grid is None:
        grid = SpaceGrid.gauss_legendre()
    _warn_short_window(input_mode.grid.duration, params.d, "store_adiabatic")
    fwd = _retrieval_map(time_reverse(ctrl), params, grid)
    samples = fwd.adjoint(input_mode.samples[::-1], _trapezoid_weights(ctrl.grid), grid.weights)
    return SpinWave(grid=grid, samples=samples[::-1])


@dataclass(frozen=True, eq=False)
class ShapingResult:
    """Shaped retrieval control with its bookkeeping.

    ``truncation_loss`` is the fraction of the retrievable energy that the
    capped control power cannot deliver; ``eta_r`` is the kernel efficiency
    of the source spin wave, i.e. the energy of the produced output when the
    loss is negligible.
    """

    control: ControlField
    h: DecayFunction
    eta_r: float
    h_max: float
    truncation_loss: float
    n_truncated: int


def _running_sums(panels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the sum of the panels before it and the sum of those after it.

    Summed from the far end, the second keeps an exponentially small tail to
    relative accuracy, which the first minus its total would not.
    """
    return (np.concatenate([[0.0], np.cumsum(panels)]),
            np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]]))


def _tabulate_energy_curve(q_tilde: _BarycentricInterpolant, d: float):
    """The shaping's energy table on Chebyshev points u in sqrt(h), ascending.

    Returns u, the rate f = dG/du = d |q~(u)|^2 2u and its derivative f', the
    energy G(u) = d integral_0^{u^2} |q|^2 dh summed from 0, and the tail
    G(u_max) - G(u) summed from the cap, which keeps an exponentially small
    tail to relative accuracy.  q~ and q~' come at the points from the
    interpolant's Chebyshev coefficients by one FFT; f, of degree 2n - 1 for
    an n-point q~, is exact at the M >= 2n points.  G and the tail are sums
    of the integrals of the cubic Hermite interpolant of (f, f') between
    neighbouring points (:func:`_hermite_panel`).
    """
    n, u_max = q_tilde.n, q_tilde.points[0]
    m = max(_ENERGY_ROWS, 1 + (1 << (2 * n - 2).bit_length()))
    c = _chebyshev_coefficients(q_tilde.values)
    dc = np.append(chebder(c, scl=2.0 / u_max), 0.0)  # dx/du = 2 / u_max
    q, dq = _chebyshev_values(np.stack([c, dc]), m)[:, ::-1]
    u = _chebyshev_points(m, 0.0, u_max)[::-1]
    a2 = q.real**2 + q.imag**2
    f = (2.0 * d) * a2 * u
    df = (2.0 * d) * (a2 + 2.0 * u * (q.real * dq.real + q.imag * dq.imag))
    w = np.diff(u)
    panels = np.maximum(0.5 * w * (f[:-1] + f[1:]) + w * w / 12.0 * (df[:-1] - df[1:]), 0.0)
    return (u, f, df, *_running_sums(panels))


def shape_retrieval_control(
    s: SpinWave,
    target: FieldMode,
    params: MediumParams,
    h_max: float | None = None,
) -> ShapingResult:
    """Find the control that retrieves ``s`` into sqrt(eta_r) * ``target``.

    The accumulated-power clock h(tau) is the unique solution of
    G(h(tau)) = eta_r * (cumulative target energy).  G, its rate dG/du (u =
    sqrt(h)) and the rate's derivative are tabulated once at Chebyshev
    points in u, read off the Chebyshev interpolant of q that
    :func:`_emission_interpolant` builds, the only bracket evaluation.
    h(tau) comes from linear inversion of that monotone table, refined by
    Newton steps on the cubic Hermite model of the rate between table
    points: on G in the bulk, on the log of the remaining energy near
    saturation.  The magnitude follows from dh/dtau by centered differences
    (one-sided at the ends, round-off negatives clamped), the phase from
    the closed-form output at h(tau), read off the same interpolant with
    its row phase e^{i r h} applied exactly at each h.  Where the demanded h
    exceeds ``h_max`` the clock is capped and the control switches off; the
    unmet energy fraction is reported as the truncation loss.
    """
    return _shape_retrieval(s, target, params, h_max, retrieval_efficiency(s, params.d))


def _shape_retrieval(
    s: SpinWave, target: FieldMode, params: MediumParams, h_max: float | None, eta_r: float
) -> ShapingResult:
    """:func:`shape_retrieval_control`, given ``eta_r``, the kernel efficiency of ``s``."""
    if h_max is None:
        h_max = default_h_max(params)
    if h_max <= 0:
        raise ValueError("h_max must be positive")
    if eta_r <= 0:
        raise ShapingError("source spin wave has zero retrieval efficiency")
    _warn_short_window(target.grid.duration, params.d, "shape_retrieval_control")

    tgt_power = np.abs(target.samples) ** 2
    dt = target.grid.dtau
    cum, tail_cum = _running_sums(0.5 * dt * (tgt_power[1:] + tgt_power[:-1]))
    total = cum[-1]
    if total <= 0:
        raise ShapingError("target mode carries no energy")
    demanded = eta_r * cum / total  # target assumed unit norm; rescale defensively
    demanded_tail = eta_r * tail_cum / total

    q_tilde = _emission_interpolant(s, params, h_max)
    u_tab, f_tab, df_tab, g_tab, tail_tab = _tabulate_energy_curve(q_tilde, params.d)
    w_tab = np.diff(u_tab)
    g_cap = float(g_tab[-1])
    truncation_loss = float(max(0.0, 1.0 - g_cap / eta_r))

    # The delivered-energy clock G(h) saturates exponentially, so inverting
    # G(h) = demanded is ill-conditioned near the end of the pulse.  Split:
    # the bulk is solved on the forward curve; the near-saturation band on
    # the log of the remaining energy, which stays well-conditioned all the
    # way to the power cap.  Each demand takes its table panel and a linear
    # first guess in it, then Newton steps on the panel's Hermite model.
    tail_switch = 1e-3 * eta_r
    resolvable = max(float(tail_tab[-2]), 1e-290)
    truncated = demanded_tail <= resolvable
    bulk = (demanded_tail > tail_switch) & ~truncated
    band = ~bulk & ~truncated

    u = np.full(target.grid.n, u_tab[-1])
    if np.any(bulk):
        i = np.clip(np.searchsorted(g_tab, demanded[bulk], side="right") - 1, 0, w_tab.size - 1)
        r = demanded[bulk] - g_tab[i]
        t = np.clip(r / np.maximum(g_tab[i + 1] - g_tab[i], 1e-300), 0.0, 1.0)
        panel = (f_tab[i], df_tab[i], f_tab[i + 1], df_tab[i + 1], w_tab[i])
        for _ in range(_NEWTON_STEPS):
            integral, value = _hermite_panel(*panel, t)
            t = np.clip(t - (integral - r) / np.maximum(w_tab[i] * value, 1e-300), 0.0, 1.0)
        u[bulk] = u_tab[i] + w_tab[i] * t
    if np.any(band):
        r = demanded_tail[band]
        i = np.clip(np.searchsorted(-tail_tab, -r, side="right") - 1, 0, w_tab.size - 1)
        right = tail_tab[i + 1]
        # t runs leftwards from the panel's right end, where the tail is `right`
        t = np.clip((r - right) / np.maximum(tail_tab[i] - right, 1e-300), 0.0, 1.0)
        panel = (f_tab[i + 1], -df_tab[i + 1], f_tab[i], -df_tab[i], w_tab[i])
        for _ in range(_NEWTON_STEPS):
            integral, value = _hermite_panel(*panel, t)
            rest = np.maximum(right + integral, 1e-300)
            step = np.log(rest / r) * rest / np.maximum(w_tab[i] * value, 1e-300)
            t = np.clip(t - step, 0.0, 1.0)
        u[band] = u_tab[i + 1] - w_tab[i] * t
    n_trunc = int(np.count_nonzero(truncated))
    h = np.maximum.accumulate(u**2)
    h[0] = 0.0

    magnitude = np.sqrt(np.clip(np.gradient(h, dt), 0.0, None))
    # the row phase of q is exact at h(tau), where at |delta| >~ 200 arg q
    # turns by more than 1 rad between table points; only the smooth rest of q
    # is interpolated
    q_at_h = np.exp(1j * _row_rate(params) * h) * q_tilde(np.sqrt(h))
    phase_ref = -target.samples * np.conj(q_at_h)
    # the unit phasor of phase_ref (1 where it is 0) is exactly real where
    # phase_ref is, so resonant controls come out exactly real
    size = np.abs(phase_ref)
    phasor = np.divide(phase_ref, size, out=np.ones_like(phase_ref), where=size > 0)
    omega = magnitude * phasor
    ctrl = ControlField(grid=target.grid, samples=omega)
    return ShapingResult(
        control=ctrl,
        h=DecayFunction(grid=target.grid, h=h),
        eta_r=eta_r,
        h_max=h_max,
        truncation_loss=truncation_loss,
        n_truncated=n_trunc,
    )


@dataclass(frozen=True, eq=False)
class StorageControlResult:
    """Optimal storage control for a given input mode.

    ``control`` stores ``input`` into the optimal spin wave (flipped into
    the storage frame) with predicted efficiency ``predicted_eta_s``;
    ``retrieval_control`` is the shaped backward-retrieval control it was
    time-reversed from.
    """

    control: ControlField
    predicted_eta_s: float
    optimal_mode: SpinWave
    retrieval_control: ControlField
    shaping: ShapingResult


def optimal_storage_control(
    input_mode: FieldMode,
    params: MediumParams,
    grid: SpaceGrid | None = None,
    h_max: float | None = None,
) -> StorageControlResult:
    """Storage control maximizing the stored fraction of ``input_mode``.

    Shapes the backward-retrieval control that maps the optimal spin wave
    onto the time-reversed input, then time-reverses it.  The predicted
    storage efficiency equals the maximum retrieval efficiency at this
    depth, by the time-reversal argument; it is attained for inputs long
    enough that the quasi-static approximation holds.
    """
    n2 = mode_norm2(input_mode)
    if abs(n2 - 1.0) > 1e-6:
        raise ValueError(f"input mode must be normalized, norm^2 = {n2!r}")
    s_opt, eta_max = optimal_spin_wave(params.d, grid)
    # eta_max is the kernel efficiency of s_opt; the shaping need not rebuild the kernel
    shaping = _shape_retrieval(s_opt, time_reverse(input_mode), params, h_max, eta_max)
    storage_ctrl = time_reverse(shaping.control)
    return StorageControlResult(
        control=storage_ctrl,
        predicted_eta_s=eta_max,
        optimal_mode=s_opt,
        retrieval_control=shaping.control,
        shaping=shaping,
    )
