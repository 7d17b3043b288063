"""Acceptance suite: the quantitative claims the package must reproduce.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the same condition, so the suite doubles as a human-readable report:

  1. factor-2 advantage of shaped controls over the naive square pulse at d=5
  2. storage + backward retrieval efficiency = (max retrieval efficiency)^2
  3. retrieval efficiency independent of control and detuning, kernel-exact
  4. time-reversal iteration reproduces the kernel eigenmode
  5. optimal storage is time-reversed retrieval (resonant and Raman)
  6. fast-limit consistency (emission energy, matched input, strong pulses)
  7. photon-number conservation and fourth-order defect scaling
  8. asymptotics and curve ordering across the depth sweep
"""

import math

import numpy as np
import pytest

from photonmem import (
    ControlField,
    MediumParams,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    flip,
    forward_max_efficiency,
    iterate_retrieval,
    make_reference_input,
    mode_norm2,
    optimal_fast_input,
    optimal_spin_wave,
    optimize_storage_retrieval,
    pi_pulse,
    resample_spinwave,
    retrieval_efficiency,
    retrieve_fast,
    simulate_fast_storage,
    simulate_retrieval,
    simulate_storage,
)
from photonmem.cli import _curve_point
from photonmem.fast import recommended_fast_grid
from photonmem.simulator import apply_finite_pi_pulse, EnsembleState

from conftest import smooth_test_wave


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def ref_input():
    return make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 2001))


@pytest.fixture(scope="module")
def eta_max():
    return {d: optimal_spin_wave(d)[1] for d in (1.0, 5.0, 10.0, 30.0, 100.0)}


@pytest.fixture(scope="module")
def collected_storage_runs():
    """Converged storage runs accumulated for the conservation criterion."""
    return []


def test_criterion_1_factor_two_over_square_pulse(ref_input, eta_max, collected_storage_runs):
    d = 5.0
    eta_back = eta_max[d] ** 2
    omega_sq = math.sqrt(d / 20.0)  # group-velocity matching: v_g T = L
    ctrl = ControlField(
        grid=ref_input.grid, samples=np.full(ref_input.grid.n, omega_sq, dtype=complex)
    )
    run = simulate_storage(ref_input, ctrl, MediumParams(d=d))
    collected_storage_runs.append(run)
    stored = SpinWave(grid=run.final_state.grid, samples=run.final_state.S)
    eta_square = retrieval_efficiency(flip(stored), d)
    ratio = eta_back / eta_square
    ok = ratio > 2.0
    _report("1 factor-2 at d=5", ok, f"eta_back={eta_back:.4f} eta_square={eta_square:.4f} ratio={ratio:.2f}")
    assert ok


def test_criterion_2_backward_efficiency_identity(ref_input, eta_max):
    gaps = {}
    for d in (1.0, 10.0, 100.0):
        _, trace = optimize_storage_retrieval(d, ref_input, "backward")
        gaps[d] = abs(trace.efficiencies[-1] - eta_max[d] ** 2)
    ok = all(g < 2e-3 for g in gaps.values())
    _report(
        "2 eta_back = eta_r_max^2",
        ok,
        " ".join(f"d={d:g}: gap={g:.1e}" for d, g in gaps.items()),
    )
    assert ok


def test_criterion_3_control_independence(uniform_grid, gauss_grid):
    d = 10.0
    profile = smooth_test_wave(gauss_grid, 1)
    s_gauss = SpinWave(grid=gauss_grid, samples=profile)
    kernel_value = retrieval_efficiency(s_gauss, d)
    s_uniform = resample_spinwave(s_gauss, uniform_grid)
    stored = flip(s_uniform)

    def const(omega, T, n):
        g = TimeGrid.linspace(0.0, T, n)
        return ControlField(grid=g, samples=np.full(n, omega, dtype=complex))

    g_env = TimeGrid.linspace(0.0, 30.0, 1201)
    env = ControlField(
        grid=g_env, samples=(3.0 * np.exp(-(((g_env.times - 14.0) / 5.0) ** 2))).astype(complex)
    )
    variants = [
        ("omega=1 delta=0", const(1.0, 55.0, 1101), 0.0),
        ("omega=3 delta=0", const(3.0, 6.2, 1241), 0.0),
        ("gaussian delta=0", env, 0.0),
        ("omega=6 delta=10", const(6.0, 35.0, 1401), 10.0),
    ]
    etas = {}
    for name, ctrl, delta in variants:
        run = simulate_retrieval(stored, ctrl, MediumParams(d=d, delta=delta), direction="backward")
        etas[name] = run.breakdown.eta_retrieval
    spread = max(etas.values()) - min(etas.values())
    kernel_gap = max(abs(v - kernel_value) for v in etas.values())
    ok = spread < 1e-3 and kernel_gap < 1e-3
    _report(
        "3 control independence",
        ok,
        f"spread={spread:.1e} worst kernel gap={kernel_gap:.1e}",
    )
    assert ok


def test_criterion_4_time_reversal_equivalence(uniform_grid, eta_max):
    from photonmem.optimizer import completing_control

    results = []
    for d in (1.0, 10.0, 100.0):
        s_opt, eta = optimal_spin_wave(d)
        ctrl = completing_control(MediumParams(d=d), n=3001)
        init = SpinWave(grid=s_opt.grid, samples=np.ones(s_opt.grid.n, dtype=complex))
        trace = iterate_retrieval(d, ctrl, init, tol=1e-10, max_iter=400)
        l2 = math.sqrt(
            float(np.dot(s_opt.grid.weights, np.abs(trace.final_mode.samples - s_opt.samples) ** 2))
        )
        monotone = bool(np.all(np.diff(trace.efficiencies) >= -1e-6))
        results.append((d, abs(trace.efficiencies[-1] - eta), l2, monotone))

    # the full-simulator route must show the same equivalence
    d = 10.0
    ctrl = completing_control(MediumParams(d=d))
    init = SpinWave(grid=uniform_grid, samples=np.ones(uniform_grid.n, dtype=complex))
    trace = iterate_retrieval(d, ctrl, init, tol=1e-7, method="simulate", max_iter=30)
    ref = resample_spinwave(optimal_spin_wave(d)[0], uniform_grid)
    l2_sim = math.sqrt(
        float(np.dot(uniform_grid.weights, np.abs(trace.final_mode.samples - ref.samples) ** 2))
    )
    monotone_sim = bool(np.all(np.diff(trace.efficiencies) >= -1e-6))
    results.append((d, abs(trace.efficiencies[-1] - eta_max[d]), l2_sim, monotone_sim))

    ok = all(gap < 1e-3 and l2 < 0.02 and mono for _, gap, l2, mono in results)
    _report(
        "4 time-reversal equivalence",
        ok,
        " ".join(f"d={d:g}:gap={gap:.0e},L2={l2:.3f}" for d, gap, l2, _ in results),
    )
    assert ok


def test_criterion_5_storage_is_reversed_retrieval(ref_input, eta_max, collected_storage_runs):
    from photonmem import optimal_storage_control

    d = 10.0
    eta = eta_max[d]
    outcomes = []
    for delta in (0.0, 50.0):
        params = MediumParams(d=d, delta=delta)
        res = optimal_storage_control(ref_input, params)
        run = simulate_storage(ref_input, res.control, params)
        collected_storage_runs.append(run)
        grid = run.final_state.grid
        target = np.sqrt(eta) * resample_spinwave(res.optimal_mode, grid).samples[::-1]
        l2 = math.sqrt(float(np.dot(grid.weights, np.abs(run.final_state.S - target) ** 2)))
        outcomes.append((delta, abs(run.breakdown.eta_storage - eta), l2 / math.sqrt(eta)))
    ok = all(gap < 1e-2 and l2 < 0.05 for _, gap, l2 in outcomes)
    _report(
        "5 storage = reversed retrieval",
        ok,
        " ".join(f"delta={dl:g}: gap={g:.1e} modeL2={l:.3f}" for dl, g, l in outcomes),
    )
    assert ok


def test_criterion_6_fast_limit(gauss_grid, uniform_grid, eta_max):
    d = 30.0
    # (a) emission energy equals the kernel efficiency for three waves
    energy_gaps = []
    for which in range(3):
        s = SpinWave(grid=gauss_grid, samples=smooth_test_wave(gauss_grid, which))
        out = retrieve_fast(s, d, recommended_fast_grid(d))
        energy_gaps.append(abs(mode_norm2(out) - retrieval_efficiency(s, d)))
    # (b) the matched input stores at the kernel maximum
    matched = optimal_fast_input(d, recommended_fast_grid(d))
    run = simulate_fast_storage(matched.mode, MediumParams(d=d))
    storage_gap = abs(run.breakdown.eta_storage - eta_max[d])
    # (c) a strong finite pulse approaches the ideal swap
    s_u = resample_spinwave(optimal_spin_wave(d)[0], uniform_grid)
    state = EnsembleState(
        grid=uniform_grid,
        E=np.zeros(uniform_grid.n, dtype=complex),
        P=np.zeros(uniform_grid.n, dtype=complex),
        S=s_u.samples,
        tau=0.0,
    )
    ideal = pi_pulse(state)
    finite, _, _ = apply_finite_pi_pulse(state, MediumParams(d=d), 1e3 * d)
    pulse_err = math.sqrt(
        float(
            np.dot(
                uniform_grid.weights,
                np.abs(finite.P - ideal.P) ** 2 + np.abs(finite.S - ideal.S) ** 2,
            )
        )
    )
    ok = max(energy_gaps) < 1e-3 and storage_gap < 1e-2 and pulse_err < 1e-3
    _report(
        "6 fast limit",
        ok,
        f"energy gaps max={max(energy_gaps):.1e} storage gap={storage_gap:.1e} pulse err={pulse_err:.1e}",
    )
    assert ok


def test_criterion_7_conservation_and_order(ref_input, collected_storage_runs):
    # sum rule on every converged storage run accumulated by this suite,
    # plus two dedicated ones
    ctrl = ControlField(grid=ref_input.grid, samples=np.full(ref_input.grid.n, 1.2, dtype=complex))
    collected_storage_runs.append(simulate_storage(ref_input, ctrl, MediumParams(d=10.0)))
    collected_storage_runs.append(simulate_storage(ref_input, None, MediumParams(d=3.0)))
    worst = 0.0
    for run in collected_storage_runs:
        b = run.breakdown
        worst = max(worst, abs(b.eta_storage + b.leak_fraction + b.decay_fraction - 1.0))

    inp = make_reference_input(10.0, TimeGrid.linspace(0.0, 10.0, 501))
    c = ControlField(grid=inp.grid, samples=np.full(inp.grid.n, 2.0, dtype=complex))
    defects = []
    for dt in (0.02, 0.01):
        run = simulate_storage(
            inp, c, MediumParams(d=10.0), dtau=dt, ring_down=False
        )
        defects.append(abs(run.diagnostics["defect"]))
    order = math.log2(defects[0] / defects[1])
    ok = worst < 1e-4 and 3.5 <= order <= 4.5
    _report(
        "7 conservation audit",
        ok,
        f"worst sum-rule defect={worst:.1e} over {len(collected_storage_runs)} runs, RK4 order={order:.2f}",
    )
    assert ok


def test_criterion_8_asymptotics_and_ordering(eta_max):
    ladder = [optimal_spin_wave(d)[1] for d in (0.5, 1, 2, 5, 10, 30, 100, 300, 1000)]
    monotone = bool(np.all(np.diff(ladder) > 0))
    _, eta_1000 = optimal_spin_wave(1000.0, SpaceGrid.gauss_legendre(400))
    approach = eta_1000 > 0.99

    ds = np.geomspace(0.3, 300.0, 25)
    points = [_curve_point((float(d), 0.0, 200, 256, 20.0, 2001)) for d in ds]
    clean = all("error" not in p for p in points)
    back = np.array([p["eta_back"] for p in points])
    forw = np.array([p["eta_forw"] for p in points])
    square = np.array([p["eta_square"] for p in points])
    ordering = bool(np.all(back >= forw - 1e-12) and np.all(back >= square - 1e-12))
    bounded = bool(np.all(back <= 1.0) and np.all(square >= 0.0))

    strict_gap = eta_max[10.0] ** 2 - forward_max_efficiency(10.0)
    ok = monotone and approach and clean and ordering and bounded and strict_gap > 1e-3
    _report(
        "8 asymptotics and ordering",
        ok,
        f"eta(1000)={eta_1000:.4f}, forward gap at d=10 = {strict_gap:.3f}, sweep clean={clean}",
    )
    assert ok
