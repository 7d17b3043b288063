"""Time-reversal iteration for optimal modes and composite efficiencies.

Retrieving a trial spin wave, time-reversing the output, and storing it
with the time-reversed control is one application of the efficiency
kernel: iterating the physical maps is power iteration and climbs
monotonically to the optimal spin wave.  The same alternation applied to
storage followed by retrieval optimizes the composite process; for
backward retrieval the fixed point is known in closed form (the optimal
mode stores and retrieves optimally, so the composite maximum is the
squared kernel eigenvalue), while forward retrieval requires the actual
iteration because storage and retrieval then want different spin waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import (
    _retrieval_map,
    default_h_max,
    optimal_storage_control,
    store_adiabatic,
)
from .core import (
    ControlField,
    FieldMode,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    _WaveformSpline,
    _trapezoid_weights,
    flip,
    mode_norm2,
    normalized_spinwave,
    resample_spinwave,
    time_reverse,
)
from .kernel import _efficiency_bounds, retrieval_efficiency
from .simulator import simulate_retrieval, simulate_storage

__all__ = [
    "IterationTrace",
    "CompositeControls",
    "iterate_retrieval",
    "optimize_storage_retrieval",
    "forward_max_efficiency",
    "completing_control",
]


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Efficiency history of a time-reversal iteration.

    ``efficiencies[k]`` is the realized efficiency of the k-th trial mode;
    the sequence is nondecreasing up to solver tolerance.
    """

    efficiencies: list
    final_mode: object
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class CompositeControls:
    storage: ControlField
    retrieval: ControlField


def completing_control(
    params: MediumParams, omega: float | None = None, n: int = 1501
) -> ControlField:
    """Constant control whose accumulated power drains the spin wave.

    The window is sized so that the leftover excitation is negligible at
    this depth and detuning (same budget as the shaping default).
    """
    if omega is None:
        omega = max(1.0, 0.3 * math.sqrt(params.d))
    duration = default_h_max(params) / omega**2
    grid = TimeGrid.linspace(0.0, duration, n)
    return ControlField(grid=grid, samples=np.full(n, omega, dtype=complex))


def _time_reversal_loop(run, reverse, x0, weights, tol, max_iter):
    """Iterate trial -> output -> time-reversed output until the trial settles.

    ``run(x)`` returns the efficiency and output of the unit-norm (in
    ``weights``) trial ``x``; ``reverse(out, eta)`` makes the next trial from
    that output.  Converged when the efficiency moves by less than ``tol`` and
    the trial by less than sqrt(``tol``).  The move is measured after the
    global phase of the overlap <x, next> is taken out, since a cycle off
    resonance turns that phase; the trials themselves are not rotated.  A
    trial whose efficiency is not finite and positive has nothing to reverse
    and raises ``ValueError``.  Returns the efficiencies, the last trial, the
    count and convergence.
    """
    efficiencies: list[float] = []
    x = x0
    for it in range(1, max_iter + 1):
        eta, out = run(x)
        if not (math.isfinite(eta) and eta > 0.0):
            raise ValueError(
                f"trial {it} has efficiency {eta!r}; the control retrieves nothing"
            )
        efficiencies.append(eta)
        nxt = reverse(out, eta)
        nxt = nxt / math.sqrt(float(weights @ np.abs(nxt) ** 2))
        overlap = complex(weights @ (np.conj(x) * nxt))
        phase = overlap / abs(overlap) if overlap != 0 else 1.0
        move = math.sqrt(float(weights @ np.abs(nxt - phase * x) ** 2))
        d_eta = abs(eta - efficiencies[-2]) if it > 1 else math.inf
        x = nxt
        if move < math.sqrt(tol) and d_eta < tol:
            return efficiencies, x, it, True
    return efficiencies, x, max_iter, False


def iterate_retrieval(
    d: float,
    ctrl: ControlField,
    init: SpinWave,
    tol: float = 1e-8,
    max_iter: int = 500,
    method: str = "adiabatic",
    delta: float = 0.0,
    n_zeta: int = 256,
) -> IterationTrace:
    """Optimize retrieval by retrieve / time-reverse / store-reversed cycles.

    ``init`` is the trial spin wave in the retrieval frame and ``ctrl`` the
    fixed retrieval control, which must complete retrieval for the iteration
    to represent the efficiency kernel.  ``method="adiabatic"`` uses the
    closed-form maps; ``"simulate"`` runs the full equations both ways.
    Efficiency is read off as the output energy of each (normalized) trial;
    convergence requires the efficiency change below ``tol`` and the mode
    movement below sqrt(tol).  Non-convergence is
    reported in the trace, not raised; a trial that retrieves nothing
    raises ``ValueError``.
    """
    if method not in ("adiabatic", "simulate"):
        raise ValueError(f"unknown method {method!r}")
    params = MediumParams(d=d, delta=delta)

    if method == "adiabatic":
        sigma, _ = normalized_spinwave(init)
        fwd = _retrieval_map(ctrl, params, sigma.grid)
        tw = _trapezoid_weights(ctrl.grid)

        def run(samples):
            e = fwd @ samples
            return float(tw @ np.abs(e) ** 2), e

        def reverse(e, eta):
            # store time_reverse(e), flip into the retrieval frame: the reversals cancel
            return fwd.adjoint(np.conj(e), tw, sigma.grid.weights) / math.sqrt(eta)

    else:
        sigma, _ = normalized_spinwave(
            resample_spinwave(init, SpaceGrid.uniform_midpoint(n_zeta))
        )

        def run(samples):
            # the trial is in the retrieval frame, which forward retrieval takes as is
            e = simulate_retrieval(
                SpinWave(grid=sigma.grid, samples=samples), ctrl, params,
                direction="forward", n_zeta=n_zeta,
            ).output_mode
            return mode_norm2(e), e

        def reverse(e, eta):
            m = time_reverse(e)
            m = FieldMode(grid=m.grid, samples=m.samples / math.sqrt(eta))
            st = simulate_storage(m, time_reverse(ctrl), params, n_zeta=n_zeta)
            return st.final_state.S[::-1]  # flip back into the retrieval frame

    efficiencies, x, iterations, converged = _time_reversal_loop(
        run, reverse, sigma.samples, sigma.grid.weights, tol, max_iter
    )
    return IterationTrace(
        efficiencies=efficiencies,
        final_mode=SpinWave(grid=sigma.grid, samples=x),
        iterations=iterations,
        converged=converged,
    )


def forward_max_efficiency(d: float, grid: SpaceGrid | None = None) -> float:
    """Maximum storage-plus-forward-retrieval efficiency at depth d.

    Derived from the time-reversal bound: the best storage into a spin-wave
    direction is set by the kernel, and forward retrieval applies the kernel
    without the spatial flip, so the composite maximum is the top eigenvalue
    of K^(1/2) F K F K^(1/2) = M^2 with M = K^(1/2) F K^(1/2) (F = spatial
    flip).  For any factor K = r r^T, M has the nonzero spectrum of r^T F r,
    so the bound is the larger square of that matrix's extreme eigenvalues.
    Raises :class:`GridError` on an under-resolved grid.
    """
    if grid is None:
        grid = SpaceGrid.gauss_legendre()
    return _efficiency_bounds(d, grid)[1]


def optimize_storage_retrieval(
    d: float,
    input_mode: FieldMode,
    retrieval_direction: str = "backward",
    tol: float = 1e-8,
    max_iter: int = 500,
    grid: SpaceGrid | None = None,
    h_max: float | None = None,
    delta: float = 0.0,
) -> tuple[CompositeControls, IterationTrace]:
    """Optimal controls and efficiency for storage followed by retrieval.

    Backward: the optimal spin wave serves both halves, so the controls are
    built directly (shaped storage control and its time reverse) and the
    composite efficiency is evaluated through the closed-form stored wave;
    it equals the squared maximum retrieval efficiency up to shaping and
    quadrature error.  Forward: a compromise spin wave is found by
    iterating the composite map with a fixed completing control pair,
    time-reversing the output into the next trial input.
    """
    if retrieval_direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction {retrieval_direction!r}")
    params = MediumParams(d=d, delta=delta)
    if grid is None:
        grid = SpaceGrid.gauss_legendre()

    if retrieval_direction == "backward":
        res = optimal_storage_control(input_mode, params, grid=grid, h_max=h_max)
        stored = store_adiabatic(input_mode, res.control, params, grid)
        eta_back = retrieval_efficiency(flip(stored), d)
        trace = IterationTrace(
            efficiencies=[eta_back],
            final_mode=normalized_spinwave(stored)[0],
            iterations=1,
            converged=True,
        )
        controls = CompositeControls(storage=res.control, retrieval=res.retrieval_control)
        return controls, trace

    ctrl = completing_control(params)  # real and constant: its own time reverse
    fwd = _retrieval_map(ctrl, params, grid)
    tw = _trapezoid_weights(ctrl.grid)
    u = _WaveformSpline(input_mode)(ctrl.grid.times)
    nrm = math.sqrt(float(tw @ np.abs(u) ** 2))
    if nrm <= 0:
        raise ValueError("input mode vanishes on the iteration window")

    def run(x):
        # store, then retrieve forward (no flip)
        e = fwd @ fwd.adjoint(x[::-1], tw, grid.weights)[::-1]
        return float(tw @ np.abs(e) ** 2), e

    efficiencies, u, iterations, converged = _time_reversal_loop(
        run, lambda e, eta: np.conj(e[::-1]), u / nrm, tw, tol, max_iter
    )
    final = FieldMode(grid=ctrl.grid, samples=u)
    trace = IterationTrace(
        efficiencies=efficiencies, final_mode=final, iterations=iterations, converged=converged
    )
    return CompositeControls(storage=ctrl, retrieval=ctrl), trace
