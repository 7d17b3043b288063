"""Direct integration of the scaled light-matter equations.

The field is slaved to the polarization in the comoving frame, so a run
steps only (P, S) with classical RK4; the field enters every stage through
a cumulative sum of P in space.  The spatial layout is staggered: P and S
live at cell midpoints, the field at cell faces, with the P equation driven
by the face average.  That pairing makes the semi-discrete photon-number
balance

    d/dtau [ sum (|P|^2 + |S|^2) dz ] = |E_in|^2 - |E_out|^2 - 2 sum |P|^2 dz

hold exactly, so the only balance defect left is the RK4 time-stepping error
(which the energy audit measures, and which shrinks 16x per step halving).
Input energy, leaked energy and decayed energy are integrated as additional
RK4 state components for the same reason.

The integrator never builds the field profile.  With C = cumsum(P) the
face-averaged field is E_in + i sqrt(d) dz (C - P/2), so the P equation
reads

    dP/dtau = alpha P - beta C + i sqrt(d) E_in + i omega S,
    alpha = -(gamma + i delta) + d dz / 2,   beta = d dz,

with gamma the polarization damping (1 in scaled units).  The exit-face
field E_in + i sqrt(d) dz C[-1] comes from the same cumulative sum.  This
is the same semi-discrete right-hand side with its terms grouped
differently, so the balance above still holds exactly; only the
floating-point rounding of each step moves.

Each RK4 stage holds rows [P, S, C] with a ghost cell in front of every
row.  Writing g = -i sqrt(d) E_in / beta into P's ghost cell makes one
cumulative sum of that row give C + g, and -beta (C + g) is exactly
-beta C + i sqrt(d) E_in, so one 2x3 product

    [[alpha, i omega, -beta], [i conj(omega), 0, 0]] @ [P, S, C + g]

gives dP and dS = i conj(omega) P at once, and i sqrt(d) dz (C + g)[-1] is
the exit-face field.  The ghost column of that product is discarded.

On resonance (delta = 0) with a real input and a real control, the
polarization stays in quadrature with the field: P = i p with p real, and S
stays real.  A run whose inputs lie in that subspace (p0 imaginary, s0 real,
both drives real, delta = 0) steps p = -i P instead, in real arithmetic, so
every buffer holds half the numbers.  Dividing the P row by i and
multiplying the P column by i makes the product real,

    [[alpha, omega, -beta], [-omega, 0, 0]] @ [p, S, C_p + g'],

with the ghost g' = -sqrt(d) E_in / beta and the exit-face field
-sqrt(d) dz (C_p + g')[-1].  The scheme is the same, so the two paths
agree to rounding; the run's record says which one it took
(``AuditReport.arithmetic``).

Time stepping follows an error estimate, not the sampling of the inputs.
Classical RK4 carries a free embedded third-order estimate: with k5 the
next step's first stage, a step's local error is about (h/6)(k4 - k5)
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
sec. II.4).  It is taken for the state (P, S), whose norm is held to
``_STEP_TOL`` of the amplitude of the run's photon number, and for the
leaked and decayed energies, held to ``_ENERGY_TOL`` of the photon number.
The stages see each drive only at t, t + h/2 and t + h, so a step also
carries the error of Simpson's rule on those values against the drive
spline's exact integral, times the state's sensitivity to the drive: the
embedded estimate is blind to drive structure between stage times, such as
a spline's ringing at a kink of a sampled control.  Steps come in chunks of
``_CHUNK`` at one step size, with the drives evaluated once per chunk at
its stage times, from one cubic spline per waveform.  A step that fails
its tolerance is undone and its chunk ends before it; a chunk that cannot
keep its first step is redone from its saved start.  The failed step's
estimate, or the chunk's largest, sets the next chunk's step (an
elementary controller), at most the medium's step bound.  The output field
is written on the caller's uniform grid from each step's cubic Hermite
interpolant (same book, sec. II.6), whose values and slopes come from the
exit-face sums the stages record.  The ring-down runs under the same
controller with the drives off.  An explicit ``dtau`` runs uniform steps
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ControlField,
    EfficiencyBreakdown,
    FieldMode,
    InstabilityError,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    _WaveformSpline,
    _hermite_panel,
    flip,
    mode_norm2,
    resample_spinwave,
)

__all__ = [
    "EnsembleState",
    "SimulationResult",
    "AuditReport",
    "simulate_storage",
    "simulate_retrieval",
    "simulate_fast_storage",
    "pi_pulse",
    "apply_finite_pi_pulse",
    "energy_audit",
]

Waveform = FieldMode | ControlField | None

DEFAULT_N_ZETA = 256
DEFECT_TOL = 1e-4
RING_DOWN_P_TOL = 1e-10
RING_DOWN_MAX_TIME = 40.0
MAX_STEPS = 20_000_000
# largest predicted RK4 steps times cells a run may start with
WORK_BUDGET = 100_000_000
# RK4 steps per chunk: one step size, one drive evaluation, one keep-or-redo
# decision and one instability check each; the scratch memory scales with
# this, not with the run length
_CHUNK = 64
# largest local error estimates of a kept step: of the state (P, S),
# relative to the amplitude of the run's photon number, and of the leaked
# and decayed energies, relative to the run's photon number
_STEP_TOL = 1e-6
_ENERGY_TOL = 3e-9
# per-chunk step changes: safety factor, largest growth, largest shrink
_SAFETY, _GROW, _SHRINK = 0.9, 4.0, 0.2
# RK4 steps across a finite pi pulse
_PI_PULSE_STEPS = 256


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """Snapshot of the medium: field, polarization and spin wave vs position.

    All three arrays are sampled at the cell midpoints of a uniform grid.
    """

    grid: SpaceGrid
    E: np.ndarray
    P: np.ndarray
    S: np.ndarray
    tau: float

    def excitation_norm2(self) -> float:
        w = self.grid.weights
        return float(np.dot(w, np.abs(self.P) ** 2 + np.abs(self.S) ** 2))


@dataclass(frozen=True)
class AuditReport:
    """The record of one run: its photon-number bookkeeping and its steps.

    ``defect`` is the imbalance; ``kind`` is "storage" or "retrieval";
    ``n_steps`` counts the kept RK4 steps, ring-down included, ``dtau`` and
    ``dtau_min`` are the largest and the smallest of them, ``refinements``
    counts the redone chunks and ``local_error`` is the largest kept local
    error estimate, relative to the amplitude of the run's photon number.
    ``arithmetic`` is "real" when every RK4 step of the run stayed in the
    real subspace of the module docstring, else "complex".
    ``record["key"]`` reads field ``key``.
    """

    input_norm2: float
    initial_excitation: float
    stored: float
    leaked: float
    decayed: float
    residual_polarization: float
    defect: float
    kind: str
    dtau: float
    n_steps: int
    dtau_min: float
    n_zeta: int
    refinements: int
    ring_down_time: float
    arithmetic: str
    local_error: float

    def __getitem__(self, key: str):
        if key not in self.__dataclass_fields__:
            raise KeyError(key)
        return getattr(self, key)

    def balanced(self, tol: float = DEFECT_TOL) -> bool:
        return abs(self.defect) <= tol


@dataclass(frozen=True, eq=False)
class SimulationResult:
    final_state: EnsembleState
    output_mode: FieldMode
    breakdown: EfficiencyBreakdown
    diagnostics: AuditReport


def _medium_dtau(params: MediumParams) -> float:
    """Step resolving the detuning rotation and the collective coupling, at most 0.05."""
    return min(0.05, 0.5 / math.sqrt(1.0 + params.delta**2), 2.0 / (1.0 + 0.7 * params.d))


def _output_grid(params: MediumParams, window, ctrl: Waveform, input_mode, dtau,
                 n_zeta: int, tail: float) -> TimeGrid:
    """Uniform grid of the output field: equal spacings of at most ``dtau``,
    or when it is ``None`` of at most the medium's step bound and the
    sampling of a sampled control or input.  It sets where the output is
    written; only an explicit ``dtau`` also sets the RK4 steps.  A run whose
    predicted steps (at ``dtau``, else at the step bound) over the window
    and the ``tail`` after it (a ring-down) times ``n_zeta`` exceed
    ``WORK_BUDGET`` is refused before anything is allocated."""
    t0, t1 = window
    bound = _medium_dtau(params)
    work = math.ceil((t1 - t0 + tail) / (bound if dtau is None else dtau) - 1e-12) * n_zeta
    if work > WORK_BUDGET:
        raise InstabilityError(f"predicted {work:.3g} cell-steps exceed the budget of "
                               f"{WORK_BUDGET:.3g}; lower d, the window or n_zeta")
    if dtau is None:
        dtau = bound
        if isinstance(ctrl, ControlField):
            dtau = min(dtau, ctrl.grid.dtau)
        if input_mode is not None:
            dtau = min(dtau, input_mode.grid.dtau)
    n = max(2, int(math.ceil((t1 - t0) / dtau - 1e-12)))
    return TimeGrid(tau0=t0, dtau=(t1 - t0) / n, n=n + 1)


class _Uniform:
    """Equal steps of ``h``: every step is kept, and an unstable chunk raises."""

    tol = energy_tol = math.inf

    def __init__(self, h: float):
        self.h = h

    def judge(self, ratio: float, h: float) -> None:
        pass

    def unstable(self, message: str) -> float:
        raise InstabilityError(message)


class _Controller:
    """The next chunk's step from the chunk's largest local error estimate.

    A step is kept while the estimate of its state error is at most
    ``tol``, ``_STEP_TOL`` times ``amplitude``, that of the run's photon
    number, and that of its leaked and decayed energy at most
    ``energy_tol``, ``_ENERGY_TOL`` times the photon number.
    ``judge(ratio, h)`` takes the larger estimate over its bound, for the
    step a chunk ended before or the chunk's largest, and sets ``self.h`` to
    h * safety * ratio^(-1/4), the elementary controller of a third-order
    estimate, changed by at most ``_GROW`` or ``_SHRINK`` and at most
    ``h_max``.  A non-finite ratio, which ``unstable`` gives, shrinks the
    step most.
    """

    def __init__(self, h_max: float, amplitude: float):
        self.h = self.h_max = h_max
        self.tol = _STEP_TOL * amplitude
        self.energy_tol = _ENERGY_TOL * amplitude**2

    def unstable(self, message: str) -> float:
        return math.inf

    def judge(self, ratio: float, h: float) -> None:
        if ratio == 0.0:
            factor = _GROW
        elif math.isfinite(ratio):
            factor = min(_GROW, max(_SHRINK, _SAFETY * ratio ** -0.25))
        else:
            factor = _SHRINK
        self.h = min(self.h_max, h * factor)


class _Integrator:
    """RK4 evolution of (P, S) plus energy accumulators.

    The integrator keeps the counts of all its marches: kept steps, steps
    outside the real subspace, redone chunks, the largest and smallest kept
    step and the largest kept local error estimate.
    """

    def __init__(self, params: MediumParams, n_zeta: int, damping: float = 1.0):
        self.params = params
        self.grid = SpaceGrid.uniform_midpoint(n_zeta)
        self.dz = 1.0 / n_zeta
        self.sqrt_d = math.sqrt(params.d)
        self.damping = damping
        self.decay_coeff = -(damping + 1j * params.delta)
        self.n_steps = self.complex_steps = self.redone = self.tried = 0
        self.dt_max, self.dt_min, self.error_max = 0.0, math.inf, 0.0

    def field_profile(self, p: np.ndarray) -> np.ndarray:
        """Cell-center field values for given P, with no field entering the medium."""
        cs = np.cumsum(p) * self.dz
        return 1j * self.sqrt_d * (cs - 0.5 * self.dz * p)

    def march(self, p0, s0, window, input_mode: Waveform, ctrl: Waveform, steps,
              out_times=None, stop=None):
        """RK4 from (p0, s0) across ``window`` in chunks sized by ``steps``, the
        policy (:class:`_Controller` or :class:`_Uniform`) that also says what an
        unstable chunk does; the last chunk is cut to end on the window's end.
        With ``out_times`` (ascending, inside the window) the exit field is
        returned there; with ``stop`` the march ends after the first chunk that
        leaves dz sum|P|^2 at or below it.  P, S and the output are complex.
        Returns (p, s, out, acc_in, acc_leak, acc_dec, n0, t_end).
        """
        chunks = _Chunks(self, p0, s0, input_mode, ctrl)
        t, t1 = window
        acc_in = acc_leak = acc_dec = 0.0
        n0 = chunks.norm(chunks.cells)
        out = None if out_times is None else np.empty(out_times.size, dtype=complex)
        n_out, last = 0, False
        while not (last or stop is not None and chunks.norm(chunks.p_cells) <= stop):
            h = steps.h
            left = t1 - t
            nc = min(_CHUNK, max(1, math.ceil(left / h - 1e-9)))
            last = nc * h >= left - 1e-9 * h
            if last:
                h = left / nc
            if h < 1e-12 * (t1 - window[0]):
                raise InstabilityError(f"step size {h:.3g} underflows at tau={t:.3f}")
            ran, fail = chunks.read_drives(t, h, nc, steps.tol)
            if self.tried + ran > MAX_STEPS:
                raise InstabilityError(f"more than {MAX_STEPS} steps exceeds limit")
            self.tried += ran
            kept, ratio, step_err = chunks.rk4(h, ran, steps, fail)
            gained, leaked, decayed = chunks.energies(kept)
            n_now = chunks.norm(chunks.cells)
            if not np.isfinite(n_now):
                kept, ratio = 0, steps.unstable(f"non-finite state at tau={t + ran * h:.3f};"
                                                " reduce dtau")
            # leaked/decayed energy never returns, so the excitation still in
            # the medium can only exceed the injected budget through
            # numerical blow-up
            elif self.damping >= 1.0 and n_now > n0 + acc_in + gained + 1e-6:
                kept, ratio = 0, steps.unstable("excitation grew beyond the injected energy;"
                                                " reduce dtau")
            steps.judge(ratio, h)
            # a chunk that keeps fewer steps than it was sized for failed one
            if kept < nc:
                self.redone += 1
                last = False
                if kept == 0:
                    chunks.y_real[:] = chunks.saved
                    continue
            self.n_steps += kept
            if not chunks.real:
                self.complex_steps += kept
            self.dt_max, self.dt_min = max(self.dt_max, h), min(self.dt_min, h)
            self.error_max = max(self.error_max, float(step_err.max()))
            acc_in, acc_leak, acc_dec = acc_in + gained, acc_leak + leaked, acc_dec + decayed
            t_next = t1 if last else t + kept * h
            if out is not None:
                hi = out.size if last else int(np.searchsorted(out_times, t_next))
                chunks.output(out[n_out:hi], out_times[n_out:hi], t, h, kept, ran)
                n_out = hi
            t = t_next
        p, s = chunks.y[0, 1:], chunks.y[1, 1:]
        if chunks.real:
            p, s = 1j * p, s.astype(complex)
        return p, s, out, acc_in, acc_leak, acc_dec, n0, t


class _Chunks:
    """The buffers of one march and the parts of its chunks.

    ``input_mode`` and ``ctrl`` are sampled waveforms or ``None`` (off).  One
    buffer holds the four stage derivatives [dP, dS], then the four stage
    states [P, S, C] with the ghost cell of the module docstring in column 0;
    stage 1's state is y = [P, S] itself.  When the inputs lie in the real
    subspace of the module docstring (``real``) the buffer is real and holds
    [p, S, C_p] with P = i p.  Each part leaves on ``self`` what the next
    reads: ``read_drives`` the ghosts, drive errors and input energies, ``rk4``
    the RK4 weights.
    """

    def __init__(self, integ: _Integrator, p0, s0, input_mode: Waveform, ctrl: Waveform):
        self.dz, self.sqrt_d, d = integ.dz, integ.sqrt_d, integ.params.d
        m = integ.grid.n + 1
        alpha, beta = integ.decay_coeff + 0.5 * d * self.dz, d * self.dz
        self.dec_rate = 2.0 * integ.damping * self.dz
        waves = (input_mode, ctrl)
        self.e_of, self.w_of = (None if wf is None else _WaveformSpline(wf) for wf in waves)
        p0, s0 = np.asarray(p0), np.asarray(s0)
        self.real = (integ.params.delta == 0.0
                     and not any(wf is not None and np.any(wf.samples.imag) for wf in waves)
                     and not np.any(p0.real) and not np.any(s0.imag))
        # the factors of omega and the ghost in the P row (rot_in) and of
        # conj(omega) in the S row and the exit field (rot_out): i and i, or,
        # after P = i p, i/i = 1 and i*i = -1
        if self.real:
            dtype, self.rot_in, self.rot_out = float, 1.0, -1.0
            alpha = alpha.real
            p0, s0 = p0.imag, s0.real
        else:
            dtype, self.rot_in, self.rot_out = complex, 1j, 1j
        buf = np.zeros(20 * m, dtype=dtype)
        self.k = buf[: 8 * m].reshape(4, 2, m)
        self.st = buf[8 * m:].reshape(4, 3, m)
        self.y = self.st[0, :2]
        self.cells, self.p_cells = self.y[:, 1:], self.y[0, 1:]
        self.cells[:] = p0, s0
        # real views: the RK4 weights are real, and so act on re and im alike;
        # fm floats per row
        self.flat = buf.view(float)
        self.fm = fm = self.flat.size // buf.size * m
        self.y_real = self.flat[8 * fm: 10 * fm]
        self.saved = np.empty(2 * fm)
        self.coef = np.zeros((2 * _CHUNK + 1, 2, 3), dtype=dtype)
        self.coef[:, 0, ::2] = alpha, -beta
        self.ghost_scale = -self.rot_in * self.sqrt_d / beta
        self.out_scale = self.rot_out * self.sqrt_d * self.dz
        self.tails, self.sums = np.empty((2, _CHUNK + 1, 4), dtype=dtype)
        self.errs, self.energy_errs = np.empty(_CHUNK), np.empty(_CHUNK)

    def norm(self, x) -> float:
        """dz sum |x|^2."""
        return self.dz * float(np.vdot(x, x).real)

    def read_drives(self, t: float, h: float, nc: int, tol: float):
        """Read the drives at the stage times t + h (0, 1/2, 1, ..., nc) of ``nc``
        steps of ``h``, cut the chunk before the first step whose drive error
        exceeds ``tol``, and fill ``coef`` and the ghosts of the steps left.
        Returns their number and that step's error ratio (``None``: no cut).
        """
        times = t + h * (0.5 * np.arange(2 * nc + 1))
        off = np.zeros(times.size, dtype=self.coef.dtype)
        e = off if self.e_of is None else self.e_of(times)
        w = off if self.w_of is None else self.w_of(times)

        def simpson(v):
            return (h / 6.0) * (v[:-1:2] + 4.0 * v[1::2] + v[2::2])

        step_in = simpson(np.abs(e) ** 2)
        drive_err = np.zeros(nc)
        fail = None
        gains = (self.sqrt_d, math.sqrt(self.norm(self.cells) + step_in.sum()))
        for f_of, vals, gain in zip((self.e_of, self.w_of), (e, w), gains):
            if f_of is not None:
                exact = np.diff(f_of.integral(times[::2]))
                drive_err += gain * np.abs(simpson(vals) - exact)
        over = np.flatnonzero(drive_err > tol)
        if over.size:
            nc, fail = int(over[0]), float(drive_err[over[0]]) / tol
            e, w = e[: 2 * nc + 1], w[: 2 * nc + 1]
        self.drive_err, self.step_in = drive_err[:nc], step_in[:nc]
        if self.real:
            e, w = e.real, w.real
        self.coef[: 2 * nc + 1, 0, 1] = self.rot_in * w
        self.coef[: 2 * nc + 1, 1, 0] = self.rot_out * w.conj()
        self.ghost = self.ghost_scale * e
        return nc, fail

    def rk4(self, h: float, nc: int, steps, fail):
        """``nc`` RK4 steps of ``h`` from y, undone from the first whose estimate
        exceeds what the drives leave of ``steps.tol``, or ``steps.energy_tol``.
        A stage is one cumulative sum, one 2x3 product and one ``vdot`` for
        sum|P|^2; the next stage's state is y + c k.  A step's first stage also
        gives the previous step's estimate (h/6)|k4 - k1|, and one more first
        stage at the chunk's end the last one's.  Returns the steps kept, the
        error ratio for the next step (the failed step's, else ``fail``, else the
        chunk's largest) and the kept steps' estimates."""
        dz, fm, st, k, flat, y = self.dz, self.fm, self.st, self.k, self.flat, self.y
        y_real, ghost, coef, drive_err = self.y_real, self.ghost, self.coef, self.drive_err
        tails, sums, errs, energy_errs = self.tails, self.sums, self.errs, self.energy_errs
        k_real = flat[: 8 * fm].reshape(4, 2 * fm)
        # stage s > 0 starts from y + c_s k[s - 1], c = h/2, h/2, h, and reads
        # the drive at half-step point 2j + 1, 2j + 1, 2j + 2 of step j
        stages = [
            (s, k_real[s - 1], flat[(8 + 3 * s) * fm: (10 + 3 * s) * fm], c, point, st[s, 0],
             st[s, 2], st[s], k[s], st[s, 0, 1:])
            for s, c, point in zip((1, 2, 3), (0.5 * h, 0.5 * h, h), (1, 1, 2))
        ]
        p_row, c_row, psc, k1, p_cells = st[0, 0], st[0, 2], st[0], k[0], st[0, 0, 1:]
        # k4 - k1 from the P row's first cell on: the S ghosts of the two are
        # equal (the drive and the ghost at the same time), the P ghosts not
        gw = fm // st.shape[2]
        k4_cells, k1_cells = k_real[3, gw:], k_real[0, gw:]
        diff, acc_real = np.empty(2 * fm - gw), np.empty(2 * fm)
        tail_view = st[:, 2, -1]
        limits = ((steps.tol - drive_err) * (6.0 / h)) ** 2 / dz
        # the embedded estimates of the leaked and decayed energies: (h/6)
        # times the change of their rates from stage 4 to the next step's stage 1
        leak_w, dec_w = (h / 6.0) * abs(self.out_scale) ** 2, (h / 6.0) * self.dec_rate
        self.weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
        dot, vdot, accumulate = np.dot, np.vdot, np.add.accumulate
        add, multiply, subtract = np.add, np.multiply, np.subtract
        self.saved[:] = y_real
        kept = nc
        for j in range(nc + 1):
            p_row[0] = ghost[2 * j]
            accumulate(p_row, out=c_row)
            dot(coef[2 * j], psc, out=k1)
            sums[j, 0] = vdot(p_cells, p_cells)
            if j:
                subtract(k4_cells, k1_cells, out=diff)
                errs[j - 1] = vdot(diff, diff)
                energy_errs[j - 1] = (
                    leak_w * abs(abs(tails[j - 1, 3]) ** 2 - abs(tail_view[0]) ** 2)
                    + dec_w * abs(sums[j - 1, 3].real - sums[j, 0].real)
                )
                if errs[j - 1] > limits[j - 1] or energy_errs[j - 1] > steps.energy_tol:
                    y_real -= acc_real
                    kept = j - 1
                    fail = max(((h / 6.0) * math.sqrt(dz * errs[kept]) + drive_err[kept])
                               / steps.tol, energy_errs[kept] / steps.energy_tol)
                    break
            if j == nc:
                tails[j, 0] = tail_view[0]
                break
            for s, k_prev, state, c, point, s_p_row, s_c_row, s_psc, ks, s_p_cells in stages:
                multiply(k_prev, c, out=state)
                add(state, y_real, out=state)
                i = 2 * j + point
                s_p_row[0] = ghost[i]
                accumulate(s_p_row, out=s_c_row)
                dot(coef[i], s_psc, out=ks)
                sums[j, s] = vdot(s_p_cells, s_p_cells)
            tails[j] = tail_view
            dot(self.weights, k_real, out=acc_real)
            y_real += acc_real
            # the ghost S gains i conj(omega) g h per step; keep it bounded
            y[1, 0] = 0.0
        step_err = (h / 6.0) * np.sqrt(dz * errs[:kept]) + drive_err[:kept]
        if fail is None:
            fail = max(float(step_err.max()) / steps.tol,
                       float(energy_errs[:kept].max()) / steps.energy_tol)
        return kept, fail, step_err

    def energies(self, kept: int):
        """The input, leaked and decayed energies of the first ``kept`` steps."""
        return (float(self.step_in[:kept].sum()),
                abs(self.out_scale) ** 2 * float(np.sum(np.abs(self.tails[:kept]) ** 2
                                                        @ self.weights)),
                self.dec_rate * float(np.sum(self.sums[:kept].real @ self.weights)))

    def output(self, dest, tau, t: float, h: float, kept: int, nc: int) -> None:
        """Write the exit field at ``tau`` into ``dest``: the input plus
        i sqrt(d) dz F, F = sum(P).  F is a stage's tail minus its ghost, and
        stage 2 starts from y + (h/2) k1, so its F minus stage 1's is (h/2) F'.
        """
        f = self.tails[: kept + 1, 0] - self.ghost[: 2 * kept + 1: 2]
        df = np.empty(kept + 1, dtype=f.dtype)
        r = min(kept + 1, nc)  # the steps whose second stage ran
        df[:r] = (2.0 / h) * (self.tails[:r, 1] - self.ghost[1: 2 * r: 2] - f[:r])
        if r == kept:
            df[kept] = self.k[0, 0, 1:].sum()
        x = (tau - t) / h
        j = np.minimum(x.astype(np.int64), kept - 1)
        _, f_tau = _hermite_panel(f[j], df[j], f[j + 1], df[j + 1], h, x - j)
        dest[:] = self.out_scale * f_tau
        if self.e_of is not None:
            dest += self.e_of(tau)


def _ring_down(integ: _Integrator, p, s, t_start: float, steps):
    """Flush residual polarization with the drive off; S is frozen exactly.

    Returns the flushed state, the additional leaked and decayed energy and
    the time it took.
    """
    p, s, _, _, leak, dec, _, t = integ.march(
        p, s, (t_start, t_start + RING_DOWN_MAX_TIME), None, None, steps, stop=RING_DOWN_P_TOL
    )
    return p, s, leak, dec, t - t_start


def _swap_finish(integ: _Integrator, p, s, t_end: float, steps):
    """The ideal instantaneous swap pulse, :func:`pi_pulse`."""
    e = integ.field_profile(p)
    state = pi_pulse(EnsembleState(grid=integ.grid, E=e, P=p, S=s, tau=t_end))
    return state.P, state.S, 0.0, 0.0, 0.0


def _simulate(
    kind: str,
    params: MediumParams,
    n_zeta: int,
    s_init: SpinWave | None,
    window: tuple[float, float],
    input_mode: FieldMode | None,
    ctrl: Waveform,
    finish,
    dtau: float | None,
) -> SimulationResult:
    """Run and audit one simulation; the entry points only set it up.

    Integrates over ``window`` from P = 0 and S = ``s_init`` (``None``:
    empty), then applies ``finish(integ, p, s, t_end, steps) -> (p, s,
    leaked, decayed, ring_time)`` if given.  Steps follow the error
    controller, or are uniform at an explicit ``dtau``; a balance defect
    above ``DEFECT_TOL`` raises.  Fractions are of the injected energy
    (``kind="storage"``) or of the initial excitation (``"retrieval"``).
    """
    if n_zeta < 64:
        raise ValueError("n_zeta must be at least 64")
    out_grid = _output_grid(params, window, ctrl, input_mode, dtau, n_zeta,
                            RING_DOWN_MAX_TIME if finish is _ring_down else 0.0)
    integ = _Integrator(params, n_zeta)
    p0 = np.zeros(n_zeta, dtype=complex)
    s0 = p0 if s_init is None else resample_spinwave(s_init, integ.grid).samples
    # the amplitude of the run's photon number, which local errors are relative to
    amplitude = math.sqrt(
        integ.dz * float(np.vdot(s0, s0).real)
        + (0.0 if input_mode is None else mode_norm2(input_mode))
    )
    if dtau is not None:
        steps = _Uniform(out_grid.dtau)
    else:
        steps = _Controller(_medium_dtau(params), amplitude or 1.0)
    p, s, out, acc_in, leaked, decayed, n0, _ = integ.march(
        p0, s0, window, input_mode, ctrl, steps, out_grid.times
    )
    ring_time = 0.0
    if finish is not None:
        p, s, rl, rd, ring_time = finish(integ, p, s, window[1], steps)
        leaked += rl
        decayed += rd
    stored = integ.dz * float(np.sum(np.abs(s) ** 2))
    residual_p = integ.dz * float(np.sum(np.abs(p) ** 2))
    defect = (stored + residual_p + leaked + decayed) - (n0 + acc_in)
    if abs(defect) > DEFECT_TOL:
        raise InstabilityError(f"balance defect {defect:.2e} above tolerance; reduce dtau")
    if kind == "storage":
        scale = acc_in if acc_in > 0 else 1.0
        br = EfficiencyBreakdown(
            eta_storage=stored / scale,
            eta_total=stored / scale,
            leak_fraction=leaked / scale,
            decay_fraction=decayed / scale,
            residual_fraction=residual_p / scale,
        )
    else:
        scale = n0 if n0 > 0 else 1.0
        br = EfficiencyBreakdown(
            eta_retrieval=leaked / scale,
            eta_total=leaked / scale,
            leak_fraction=leaked / scale,
            decay_fraction=decayed / scale,
            residual_fraction=(stored + residual_p) / scale,
        )
    state = EnsembleState(
        grid=integ.grid, E=integ.field_profile(p), P=p, S=s,
        tau=out_grid.t_end + ring_time,
    )
    diagnostics = AuditReport(
        input_norm2=acc_in, initial_excitation=n0, stored=stored, leaked=leaked,
        decayed=decayed, residual_polarization=residual_p, defect=defect, kind=kind,
        dtau=integ.dt_max, n_steps=integ.n_steps, dtau_min=integ.dt_min, n_zeta=n_zeta,
        refinements=integ.redone, ring_down_time=ring_time,
        arithmetic="complex" if integ.complex_steps else "real",
        local_error=integ.error_max / amplitude if amplitude > 0 else 0.0,
    )
    return SimulationResult(
        final_state=state, output_mode=FieldMode(grid=out_grid, samples=out), breakdown=br,
        diagnostics=diagnostics,
    )


def simulate_storage(
    input_mode: FieldMode,
    ctrl: Waveform,
    params: MediumParams,
    n_zeta: int = DEFAULT_N_ZETA,
    dtau: float | None = None,
    ring_down: bool = True,
) -> SimulationResult:
    """Map an input mode onto the spin wave with the given control.

    Integrates over the input window, then (by default) lets the leftover
    polarization ring down with the drive off so the reported fractions
    satisfy the storage sum rule.  The steps follow the error controller of
    the module docstring unless ``dtau`` is given.
    """
    return _simulate(
        "storage", params, n_zeta, None, (input_mode.grid.tau0, input_mode.grid.t_end),
        input_mode, ctrl, _ring_down if ring_down else None, dtau,
    )


def simulate_retrieval(
    s: SpinWave,
    ctrl: ControlField,
    params: MediumParams,
    direction: str = "backward",
    n_zeta: int = DEFAULT_N_ZETA,
    dtau: float | None = None,
    ring_down: bool = True,
) -> SimulationResult:
    """Retrieve a stored spin wave onto the output field.

    ``s`` is given in the storage frame; ``direction="backward"`` flips it
    into the retrieval propagation frame internally, ``"forward"`` uses it as
    is.  The integration window is the control's grid span.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not isinstance(ctrl, ControlField):
        raise ValueError("retrieval needs a sampled ControlField; its span is the window")
    return _simulate(
        "retrieval", params, n_zeta, flip(s) if direction == "backward" else s,
        (ctrl.grid.tau0, ctrl.grid.t_end), None, ctrl,
        _ring_down if ring_down else None, dtau,
    )


def simulate_fast_storage(
    input_mode: FieldMode,
    params: MediumParams,
    n_zeta: int = DEFAULT_N_ZETA,
    dtau: float | None = None,
) -> SimulationResult:
    """Free absorption of the input, then the ideal swap pulse at the window end.

    Requires resonance.  For a finite pulse (convergence studies), apply
    :func:`apply_finite_pi_pulse` to a run's state instead.
    """
    if params.delta != 0.0:
        raise ValueError("fast storage requires resonance (delta = 0)")
    return _simulate(
        "storage", params, n_zeta, None, (input_mode.grid.tau0, input_mode.grid.t_end),
        input_mode, None, _swap_finish, dtau,
    )


def pi_pulse(state: EnsembleState) -> EnsembleState:
    """Ideal instantaneous swap: P -> iS, S -> iP at every position.

    The field is untouched and the excitation norm is preserved exactly.
    The i-phase convention matches the sign of the fast-retrieval output
    formula; applying the map twice gives a global minus sign.
    """
    return replace(state, P=1j * state.S, S=1j * state.P)


def apply_finite_pi_pulse(
    state: EnsembleState,
    params: MediumParams,
    omega0: float,
):
    """Drive a constant resonant control of quarter-period area through the
    full equations.  Approaches the ideal swap as ``omega0`` grows."""
    if omega0 <= 0:
        raise ValueError("pulse strength must be positive")
    integ = _Integrator(params, state.grid.n)
    duration = 0.5 * math.pi / omega0
    window = (state.tau, state.tau + duration)
    ctrl = ControlField(grid=TimeGrid.linspace(*window, 2), samples=np.full(2, omega0))
    p, s, _, _, leak, dec, _, _ = integ.march(
        state.P, state.S, window, None, ctrl, _Uniform(duration / _PI_PULSE_STEPS)
    )
    new = replace(state, E=integ.field_profile(p), P=p, S=s, tau=window[1])
    return new, leak, dec


def energy_audit(result: SimulationResult) -> AuditReport:
    """Photon-number balance of a finished run.

    Checks injected energy + initial excitation against stored + leaked +
    decayed + residual polarization; the defect is pure integrator error and
    shrinks at fourth order in the step size.  This is the run's own record,
    ``result.diagnostics``.
    """
    return result.diagnostics
