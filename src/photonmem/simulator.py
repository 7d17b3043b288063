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

Time stepping is two-level.  The window is split into uniform coarse steps
sized by the medium (detuning, optical depth) and by the sampling of the
input and control, but not by the control's strength.  Each coarse step is
cut into equal RK4 substeps as the control's local magnitude requires, so a
brief strong spike of a shaped control no longer sets the step for the whole
window.  The output field is kept at the coarse boundaries, which are exact
RK4 states, so it stays on a uniform time grid.  Where no step needs a
substep the step sequence is exactly the uniform one; an explicit ``dtau``
always runs uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import fast as _fast
from .core import (
    ControlField,
    EfficiencyBreakdown,
    FieldMode,
    InstabilityError,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    _resample_waveform,
    flip,
    resample_spinwave,
)

__all__ = [
    "EnsembleState",
    "SimulationResult",
    "AuditReport",
    "simulate_storage",
    "simulate_retrieval",
    "simulate_fast_storage",
    "apply_finite_pi_pulse",
    "energy_audit",
]

Waveform = FieldMode | ControlField | None

DEFAULT_N_ZETA = 256
DEFECT_TOL = 1e-4
RING_DOWN_P_TOL = 1e-10
RING_DOWN_MAX_TIME = 40.0
MAX_STEPS = 20_000_000
# RK4 steps per block of stage coefficients and per-stage records; the
# integrator's scratch memory scales with this, not with the run length
_STEP_BLOCK = 4096
# steps between instability checks; divides _STEP_BLOCK
_CHECK_EVERY = 64
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
    ``dtau`` is the coarse step, ``n_steps`` counts the window's RK4 steps,
    substeps included, and ``dtau_min`` is the smallest of them.
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


def _waveform_on(times: np.ndarray, wf: Waveform) -> np.ndarray:
    """Input or control values at the given times; ``None`` is switched off."""
    if wf is None:
        return np.zeros(times.size, dtype=complex)
    return _resample_waveform(wf, times)


def _medium_dtau(params: MediumParams, cap: float) -> float:
    """Step resolving the detuning rotation and the collective coupling, at most ``cap``."""
    return min(cap, 0.5 / math.sqrt(1.0 + params.delta**2), 2.0 / (1.0 + 0.7 * params.d))


def default_dtau(
    params: MediumParams,
    ctrl: Waveform,
    input_mode: FieldMode | None = None,
) -> float:
    """Coarse step: resolve the detuning rotation, collective coupling, and
    the sampling of a sampled control or input.

    The control's strength is left out; :func:`_substeps` cuts each coarse
    step into as many RK4 substeps as the control there needs.
    """
    dt = _medium_dtau(params, 0.05)
    if isinstance(ctrl, ControlField):
        dt = min(dt, ctrl.grid.dtau)
    if input_mode is not None:
        dt = min(dt, input_mode.grid.dtau)
    return dt


def _substeps(om_half: np.ndarray, dt: float, scale: float) -> np.ndarray:
    """Equal RK4 substeps per coarse step of size ``dt``.

    Coarse step k is resolved at the looser of a power-resolving bound
    (.5/|w|^2, right for moderate drives) and a rotation-resolving bound
    (.3/|w|, right for brief strong spikes such as shaped-control leading
    edges), where w is the largest |omega| at its three half-grid points of
    ``om_half``.  ``scale`` shrinks that bound with each audit refinement;
    the balance-defect refinement loop catches any case where the bound is
    too optimistic.
    """
    a = np.abs(om_half)
    w = np.maximum(np.maximum(a[:-1:2], a[1::2]), a[2::2])
    # dt / bound without dividing by w, which is subnormal where a drive returns to 0
    per_step = (dt / scale) * np.minimum(2.0 * w**2, w / 0.3)
    return np.maximum(1, np.ceil(per_step - 1e-12)).astype(np.int64)


class _Integrator:
    """RK4 evolution of (P, S) plus energy accumulators on a fixed window."""

    def __init__(self, params: MediumParams, n_zeta: int, damping: float = 1.0):
        self.params = params
        self.grid = SpaceGrid.uniform_midpoint(n_zeta)
        self.dz = 1.0 / n_zeta
        self.sqrt_d = math.sqrt(params.d)
        self.damping = damping
        self.decay_coeff = -(damping + 1j * params.delta)
        # RK4 steps taken outside the real subspace, over all runs
        self.complex_steps = 0

    def field_profile(self, p: np.ndarray, e_in: complex):
        """Cell-center field values and the exit-face value for given P."""
        cs = np.cumsum(p) * self.dz
        e_end = e_in + 1j * self.sqrt_d * cs[-1]
        e_centers = e_in + 1j * self.sqrt_d * (cs - 0.5 * self.dz * p)
        return e_centers, e_end

    def run(self, p0, s0, t0, dt, n_steps, e_in_half, om_half, record_output=True):
        """March n_steps of RK4; half-grid arrays hold the drive at stage times.

        ``dt`` is one step size for all steps or an array of per-step sizes.
        Every stage works in one buffer allocated per call: the four stage
        derivatives [dP, dS], then the four stage states [P, S, C] with the
        ghost cell of the module docstring in column 0; stage 1's state is
        y = [P, S] itself.  A stage is one cumulative sum, one 2x3 product
        and one ``vdot`` for sum|P|^2; the next stage's state is one product
        of [c, 1] with the rows [k, y].  The stage coefficients are built one
        block of ``_STEP_BLOCK`` steps at a time, and the exit-face fields and
        |P|^2 sums each stage records are reduced into the leaked energy, the
        decayed energy and the output after each block.  The input energy
        depends on the drive alone and comes from a cumulative sum, which is
        also the injected budget of the growth check.

        When the inputs lie in the real subspace of the module docstring the
        buffer is real and holds [p, S, C_p] with P = i p; P, S and the output
        are returned complex either way.
        """
        n, dz, sqrt_d = self.grid.n, self.dz, self.sqrt_d
        m = n + 1
        alpha = self.decay_coeff + 0.5 * self.params.d * dz
        beta = self.params.d * dz
        dec_rate = 2.0 * self.damping * dz
        steps = np.broadcast_to(np.asarray(dt, dtype=float), (n_steps,))
        e_half = np.asarray(e_in_half, dtype=complex)
        w_half = np.asarray(om_half, dtype=complex)
        p0, s0 = np.asarray(p0), np.asarray(s0)
        real_run = (
            self.params.delta == 0.0
            and not np.any(e_half.imag) and not np.any(w_half.imag)
            and not np.any(p0.real) and not np.any(s0.imag)
        )
        # the factors of omega and the ghost in the P row (rot_in) and of
        # conj(omega) in the S row and the exit field (rot_out): i and i, or,
        # after P = i p, i/i = 1 and i*i = -1
        if real_run:
            dtype, rot_in, rot_out = float, 1.0, -1.0
            alpha, e_half, w_half = alpha.real, e_half.real, w_half.real
            p0, s0 = p0.imag, s0.real
        else:
            dtype, rot_in, rot_out = complex, 1j, 1j
            self.complex_steps += n_steps

        buf = np.zeros(20 * m, dtype=dtype)
        k = buf[: 8 * m].reshape(4, 2, m)
        st = buf[8 * m:].reshape(4, 3, m)
        y = st[0, :2]
        y[0, 1:] = p0
        y[1, 1:] = s0
        cells = y[:, 1:]
        # real views: the RK4 weights are real, and so act on re and im alike;
        # fm floats per row
        real = buf.view(float)
        fm = real.size // buf.size * m
        k_real = real[: 8 * fm].reshape(4, 2 * fm)
        y_real = real[8 * fm: 10 * fm]
        acc_real = np.empty(2 * fm)
        stages = []
        for s in range(4):
            # stage s starts from y + c k[s - 1]: those two rows as one array
            rows = None if s == 0 else as_strided(
                real[2 * (s - 1) * fm:], shape=(2, 2 * fm),
                strides=((10 - 2 * s) * fm * real.itemsize, real.itemsize), writeable=False,
            )
            state = real[(8 + 3 * s) * fm: (10 + 3 * s) * fm]
            stages.append((rows, state, st[s, 0], st[s, 2], st[s], k[s], st[s, 0, 1:]))
        tail_view = st[:, 2, -1]
        # stages 1-4 read the drive at half-grid points 2j, 2j + 1, 2j + 1, 2j + 2
        stage_point = (0, 1, 1, 2)
        rk4_weights = np.array([1.0, 2.0, 2.0, 1.0])

        acc_in = acc_leak = acc_dec = 0.0
        n0 = dz * float(np.vdot(cells, cells).real)
        out = np.empty(n_steps + 1, dtype=complex) if record_output else None
        dot, vdot, accumulate = np.dot, np.vdot, np.add.accumulate
        for b0 in range(0, n_steps, _STEP_BLOCK):
            h = steps[b0: b0 + _STEP_BLOCK]
            e = e_half[2 * b0: 2 * (b0 + h.size) + 1]
            w = w_half[2 * b0: 2 * (b0 + h.size) + 1]
            coef = np.zeros((e.size, 2, 3), dtype=dtype)
            coef[:, 0, 0] = alpha
            coef[:, 0, 1] = rot_in * w
            coef[:, 0, 2] = -beta
            coef[:, 1, 0] = rot_out * w.conj()
            ghost = (-rot_in * sqrt_d / beta) * e
            # stage s > 0 starts from y + (h/2, h/2, h) k[s - 1]
            stage_c = np.ones((h.size, 4, 2))
            stage_c[:, :, 0] = h[:, None] * [0.0, 0.5, 0.5, 1.0]
            weights = (h / 6.0)[:, None] * rk4_weights
            e2 = np.abs(e) ** 2
            budget = acc_in + np.cumsum(weights[:, 0] * (e2[:-1:2] + 4.0 * e2[1::2] + e2[2::2]))
            tails = np.empty((h.size, 4), dtype=dtype)
            sums = np.empty((h.size, 4), dtype=dtype)
            for c0 in range(0, h.size, _CHECK_EVERY):
                c1 = min(c0 + _CHECK_EVERY, h.size)
                for j in range(c0, c1):
                    for s, (rows, state, p_row, c_row, psc, ks, p_cells) in enumerate(stages):
                        if rows is not None:
                            dot(stage_c[j, s], rows, out=state)
                        i = 2 * j + stage_point[s]
                        p_row[0] = ghost[i]
                        accumulate(p_row, out=c_row)
                        dot(coef[i], psc, out=ks)
                        sums[j, s] = vdot(p_cells, p_cells)
                    tails[j] = tail_view
                    dot(weights[j], k_real, out=acc_real)
                    y_real += acc_real
                    # the ghost S gains i conj(omega) g h per step; keep it bounded
                    y[1, 0] = 0.0
                n_now = dz * float(np.vdot(cells, cells).real)
                if not np.isfinite(n_now):
                    tau = t0 + math.fsum(steps[: b0 + c1])
                    raise InstabilityError(
                        f"non-finite state at tau={tau:.3f}; reduce dtau"
                    )
                # leaked/decayed energy never returns, so the excitation still
                # in the medium can only exceed the injected budget through
                # numerical blow-up
                if self.damping >= 1.0 and n_now > n0 + budget[c1 - 1] + 1e-6:
                    raise InstabilityError(
                        "excitation grew beyond the injected energy; reduce dtau"
                    )
            fields = (rot_out * sqrt_d * dz) * tails
            acc_in = float(budget[-1])
            acc_leak += float(np.sum(weights * np.abs(fields) ** 2))
            acc_dec += dec_rate * float(np.sum(weights * sums.real))
            if record_output:
                # the first stage of a step sees the state and drive of the
                # previous step's end, so its exit-face field is that output
                out[b0: b0 + h.size] = fields[:, 0]
        p, s = y[0, 1:], y[1, 1:]
        if real_run:
            p, s = 1j * p, s.astype(complex)
        if record_output:
            out[n_steps] = self.field_profile(p, e_half[2 * n_steps])[1]
        return p, s, out, acc_in, acc_leak, acc_dec, n0


def _half_times(t0: float, dt: float, m: np.ndarray) -> np.ndarray:
    """Stage times t0 + dt/2 (2k + i/m_k), i = 0 .. 2 m_k, of all substeps."""
    reps = 2 * m
    i = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    x = np.repeat(2 * np.arange(m.size), reps) + i / np.repeat(m, reps)
    return t0 + 0.5 * dt * np.append(x, 2.0 * m.size)


def _run_window(
    integ: _Integrator,
    p0,
    s0,
    window: tuple[float, float],
    dtau: float,
    input_mode: Waveform,
    ctrl: Waveform,
    substep_scale: float | None = None,
):
    """Integrate over ``window`` on coarse steps of at most ``dtau``.

    With ``substep_scale`` set, each coarse step is cut into the RK4
    substeps :func:`_substeps` asks for; ``None`` keeps every step coarse.
    The output field is returned at the coarse boundaries only.
    """
    t0, t1 = window
    n_coarse = max(2, int(math.ceil((t1 - t0) / dtau - 1e-12)))
    if n_coarse > MAX_STEPS:
        raise InstabilityError(f"required {n_coarse} steps exceeds limit; widen dtau")
    dt = (t1 - t0) / n_coarse
    m = np.ones(n_coarse, dtype=np.int64)
    times = _half_times(t0, dt, m)
    om_half = _waveform_on(times, ctrl)
    if substep_scale is not None:
        m = _substeps(om_half, dt, substep_scale)
    n_steps = int(m.sum())
    if n_steps > MAX_STEPS:
        raise InstabilityError(
            f"required {n_steps} steps ({n_coarse} coarse) under the control exceeds limit"
        )
    if n_steps > n_coarse:
        times = _half_times(t0, dt, m)
        om_half = _waveform_on(times, ctrl)
    e_half = _waveform_on(times, input_mode)
    p, s, out, acc_in, acc_leak, acc_dec, n0 = integ.run(
        p0, s0, t0, np.repeat(dt / m, m), n_steps, e_half, om_half
    )
    out = out[np.concatenate(([0], np.cumsum(m)))]
    out_grid = TimeGrid(tau0=t0, dtau=dt, n=n_coarse + 1)
    return (
        p, s, FieldMode(grid=out_grid, samples=out), acc_in, acc_leak, acc_dec, n0,
        dt, n_steps, dt / int(m.max()),
    )


def _ring_down(integ: _Integrator, p, s, t_start: float, dt_cap: float = 0.02):
    """Flush residual polarization with the drive off; S is frozen exactly.

    Returns the additional leaked/decayed energy and the flushed state.
    """
    dz = integ.dz
    leak = dec = 0.0
    t = t_start
    dt = _medium_dtau(integ.params, dt_cap)
    n_steps = max(2, int(round(5.0 / dt)))
    e_half = np.zeros(2 * n_steps + 1, dtype=complex)
    while dz * float(np.sum(np.abs(p) ** 2)) > RING_DOWN_P_TOL and t - t_start < RING_DOWN_MAX_TIME:
        p, s, _, _, dl, dd, _ = integ.run(
            p, s, t, dt, n_steps, e_half, e_half, record_output=False
        )
        leak += dl
        dec += dd
        t += n_steps * dt
    return p, s, leak, dec, t - t_start


def _ring_down_finish(integ: _Integrator, p, s, t_end: float, refinements: int):
    return _ring_down(integ, p, s, t_end, dt_cap=0.02 / 2**refinements)


def _swap_finish(integ: _Integrator, p, s, t_end: float, refinements: int):
    """The ideal instantaneous swap pulse, :func:`photonmem.fast.pi_pulse`."""
    e = integ.field_profile(p, 0.0)[0]
    state = _fast.pi_pulse(EnsembleState(grid=integ.grid, E=e, P=p, S=s, tau=t_end))
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
    max_refinements: int,
) -> SimulationResult:
    """Run, audit and retry one simulation; the entry points only set it up.

    Integrates over ``window`` from P = 0 and S = ``s_init`` (``None``:
    empty), then applies ``finish(integ, p, s, t_end, refinements) -> (p, s,
    leaked, decayed, ring_time)`` if given.  While the balance defect exceeds
    ``DEFECT_TOL``, reruns with the coarse step and substep bound halved, at
    most ``max_refinements`` times.  Fractions are of the injected energy
    (``kind="storage"``) or of the initial excitation (``"retrieval"``).
    """
    if n_zeta < 64:
        raise ValueError("n_zeta must be at least 64")
    integ = _Integrator(params, n_zeta)
    p0 = np.zeros(n_zeta, dtype=complex)
    s0 = p0 if s_init is None else resample_spinwave(s_init, integ.grid).samples
    dt0 = dtau if dtau is not None else default_dtau(params, ctrl, input_mode)
    refinements = 0
    while True:
        try:
            p, s, out_mode, acc_in, leaked, decayed, n0, dt, n_steps, dt_min = _run_window(
                integ, p0, s0, window, dt0, input_mode, ctrl,
                substep_scale=None if dtau is not None else 0.5**refinements,
            )
            ring_time = 0.0
            if finish is not None:
                p, s, rl, rd, ring_time = finish(integ, p, s, window[1], refinements)
                leaked += rl
                decayed += rd
            stored = integ.dz * float(np.sum(np.abs(s) ** 2))
            residual_p = integ.dz * float(np.sum(np.abs(p) ** 2))
            defect = (stored + residual_p + leaked + decayed) - (n0 + acc_in)
            if abs(defect) > DEFECT_TOL:
                raise InstabilityError(
                    f"balance defect {defect:.2e} above tolerance; reduce dtau"
                )
            break
        except InstabilityError:
            if refinements >= max_refinements:
                raise
            refinements += 1
            dt0 /= 2.0
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
        grid=integ.grid, E=integ.field_profile(p, 0.0)[0], P=p, S=s,
        tau=out_mode.grid.t_end + ring_time,
    )
    diagnostics = AuditReport(
        input_norm2=acc_in, initial_excitation=n0, stored=stored, leaked=leaked,
        decayed=decayed, residual_polarization=residual_p, defect=defect, kind=kind,
        dtau=dt, n_steps=n_steps, dtau_min=dt_min, n_zeta=n_zeta, refinements=refinements,
        ring_down_time=ring_time, arithmetic="complex" if integ.complex_steps else "real",
    )
    return SimulationResult(
        final_state=state, output_mode=out_mode, breakdown=br, diagnostics=diagnostics
    )


def simulate_storage(
    input_mode: FieldMode,
    ctrl: Waveform,
    params: MediumParams,
    n_zeta: int = DEFAULT_N_ZETA,
    dtau: float | None = None,
    max_refinements: int = 3,
    ring_down: bool = True,
) -> SimulationResult:
    """Map an input mode onto the spin wave with the given control.

    Integrates over the input window, then (by default) lets the leftover
    polarization ring down with the drive off so the reported fractions
    satisfy the storage sum rule.  The step size (coarse step and local
    substep bound alike) is halved automatically until the energy-balance
    defect is below tolerance.
    """
    return _simulate(
        "storage", params, n_zeta, None, (input_mode.grid.tau0, input_mode.grid.t_end),
        input_mode, ctrl, _ring_down_finish if ring_down else None, dtau, max_refinements,
    )


def simulate_retrieval(
    s: SpinWave,
    ctrl: ControlField,
    params: MediumParams,
    direction: str = "backward",
    n_zeta: int = DEFAULT_N_ZETA,
    dtau: float | None = None,
    max_refinements: int = 3,
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
        _ring_down_finish if ring_down else None, dtau, max_refinements,
    )


def simulate_fast_storage(
    input_mode: FieldMode,
    params: MediumParams,
    n_zeta: int = DEFAULT_N_ZETA,
    dtau: float | None = None,
    max_refinements: int = 3,
) -> SimulationResult:
    """Free absorption of the input, then the ideal swap pulse at the window end.

    Requires resonance.  For a finite pulse (convergence studies), apply
    :func:`apply_finite_pi_pulse` to a run's state instead.
    """
    if params.delta != 0.0:
        raise ValueError("fast storage requires resonance (delta = 0)")
    return _simulate(
        "storage", params, n_zeta, None, (input_mode.grid.tau0, input_mode.grid.t_end),
        input_mode, None, _swap_finish, dtau, max_refinements,
    )


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
    dt = duration / _PI_PULSE_STEPS
    e_half = np.zeros(2 * _PI_PULSE_STEPS + 1, dtype=complex)
    om_half = np.full(2 * _PI_PULSE_STEPS + 1, omega0, dtype=complex)
    p, s, _, _, leak, dec, _ = integ.run(
        state.P, state.S, state.tau, dt, _PI_PULSE_STEPS, e_half, om_half, record_output=False
    )
    new = replace(state, E=integ.field_profile(p, 0.0)[0], P=p, S=s, tau=state.tau + duration)
    return new, leak, dec


def energy_audit(result: SimulationResult) -> AuditReport:
    """Photon-number balance of a finished run.

    Checks injected energy + initial excitation against stored + leaked +
    decayed + residual polarization; the defect is pure integrator error and
    shrinks at fourth order in the step size.  This is the run's own record,
    ``result.diagnostics``.
    """
    return result.diagnostics
