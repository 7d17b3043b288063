"""The benchmark's three workloads: seeded inputs, the timed op, untimed checks.

Every workload is a closed loop with one caller.  ``setup()`` builds all
inputs from the seed (and any precomputation the op relies on); ``op(i)``
returns the i-th operation, whose ``call`` is the only code that is timed;
``check(op, out)`` then inspects the answer outside the timed region and
returns the names of the checks it failed together with the op's numeric
fingerprint.  The fingerprint holds only values the program computed, so it
repeats exactly for the same code and seed.

The package is reached only through attribute lookups on ``pm`` at call
time, so a traced run that rebinds the package's functions sees every call.

Draws are stratified (see ``stratified``): each aligned block of ops covers
every stratum of the input distribution once.  Op cost depends strongly on
the inputs (a Raman verify op costs 0.5-9 s, a resonant one 0.3 s), and a
run completes only tens of ops, so independent draws would let the seed
swing a run's cost by tens of percent; stratified draws keep each run a
like-for-like sample of the same distribution.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Acceptance-suite bounds, reused unchanged (tests/test_acceptance.py).
SUM_RULE_TOL = 1e-4  # criterion 7
STORAGE_GAP_TOL = 1e-2  # criteria 5 and 6
BACKWARD_IDENTITY_TOL = 2e-3  # criterion 2

N_ZETA_CHOICES = (128, 256, 512)


@dataclass
class Op:
    """One operation: ``call`` is timed, ``label`` describes its inputs."""

    kind: str
    label: dict
    call: Callable[[], Any]
    extra: dict = field(default_factory=dict)


def stratified(rng: np.random.Generator, n: int, block: int) -> np.ndarray:
    """``n`` draws from U(0, 1); each aligned block of ``block`` draws has one
    draw in each of ``block`` equal strata, in random order."""
    out = np.empty(n)
    for start in range(0, n, block):
        m = min(block, n - start)
        out[start:start + m] = ((rng.permutation(block) + rng.random(block)) / block)[:m]
    return out


def log_uniform(q, lo: float, hi: float):
    """Map U(0, 1) draws onto a log-uniform distribution on [lo, hi]."""
    return lo * (hi / lo) ** np.asarray(q)


def spread_order(m: int) -> list[int]:
    """Visiting order of ``m`` strata by bit reversal, so every prefix of the
    visits is spread over the strata."""
    bits = max(1, (m - 1).bit_length())
    return sorted(range(m), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def kind_count(pattern: tuple, i: int) -> tuple[str, int]:
    """Kind of op ``i`` in a repeating pattern, and how many ops of that kind
    came before it."""
    rounds, pos = divmod(i, len(pattern))
    kind = pattern[pos]
    return kind, rounds * pattern.count(kind) + pattern[:pos].count(kind)


def _in_unit(x: float) -> bool:
    return 0.0 < x <= 1.0


class Design:
    """``optimal_storage_control`` for a seeded medium and input pulse.

    Exercises the adiabatic layer (about 97% of each op); the simulator does
    no work.  Ops alternate resonant and Raman media so a resonant-only fast
    path that slows Raman shaping shows.
    """

    name = "design"
    ROUND_LEN = 8  # one block of depth and duration strata
    POOL = 128  # more inputs than a run completes; ops wrap around
    GAUSS_NODES = 200
    INPUT_SAMPLES = 2001

    def __init__(self, pm, seed: int, tiny: bool = False):
        self.pm = pm
        self.seed = seed
        self.pool = 8 if tiny else self.POOL

    def setup(self):
        pm = self.pm
        rng = np.random.default_rng([self.seed, 0])
        n = self.pool
        half = n // 2
        d_res = log_uniform(stratified(rng, half, 4), 1.0, 300.0)
        d_ram = log_uniform(stratified(rng, half, 4), 1.0, 300.0)
        delta = (10.0 + 40.0 * stratified(rng, half, 4)) * rng.choice([-1.0, 1.0], half)
        durations = 10.0 + 30.0 * stratified(rng, n, 8)
        self.grid = pm.SpaceGrid.gauss_legendre(self.GAUSS_NODES)
        self.cases = []
        for i in range(n):
            k = i // 2
            d, dl = (d_res[k], 0.0) if i % 2 == 0 else (d_ram[k], delta[k])
            T = float(durations[i])
            inp = pm.make_reference_input(T, pm.TimeGrid.linspace(0.0, T, self.INPUT_SAMPLES))
            self.cases.append((pm.MediumParams(d=float(d), delta=float(dl)), T, inp))

    def op(self, i: int) -> Op:
        pm = self.pm
        params, T, inp = self.cases[i % len(self.cases)]
        grid = self.grid
        return Op(
            kind="raman" if params.delta else "resonant",
            label={"d": params.d, "delta": params.delta, "T": T},
            call=lambda: pm.optimal_storage_control(inp, params, grid=grid),
            extra={"params": params, "input": inp},
        )

    def check(self, op: Op, res) -> tuple[list, dict]:
        pm = self.pm
        params, inp = op.extra["params"], op.extra["input"]
        eta = res.predicted_eta_s
        stored = pm.store_adiabatic(inp, res.control, params, self.grid)
        eta_back = pm.retrieval_efficiency(pm.flip(stored), params.d)
        failed = []
        if not (_in_unit(eta) and _in_unit(eta_back)):
            failed.append("eta_in_unit_interval")
        if not abs(eta_back - eta**2) < BACKWARD_IDENTITY_TOL:
            failed.append("criterion2_backward_identity")
        return failed, {
            "eta_max": eta,
            "eta_back": eta_back,
            "truncation_loss": res.shaping.truncation_loss,
        }


@dataclass
class _Medium:
    params: Any
    control: Any
    reversed_control: Any
    eta_max: float


class Verify:
    """Full-equation runs: the RK4 loop does about 99% of each op.

    Set-up shapes storage controls for seeded media: 5 Raman, 6 resonant.
    Ops repeat the round ``ROUND``: shaped storage plus backward retrieval
    on a Raman medium and on four resonant media, and fast storage of the
    optimal fast-limit input at a seeded depth.  A Raman op costs about ten
    resonant ones, so one per round keeps a 30-s run at about 40 ops and
    still visits every Raman medium; the resonant ops put the median and
    the tail percentile inside one op kind instead of on the edge between
    two.  ``n_zeta`` cycles through its three values per op kind,
    so over a run the resonant ops cover every (medium, n_zeta) pair.
    Fast-op depths come from 32 strata, deepest first: the fast input's
    memory grows with depth, so the run's peak memory is then set by a
    depth between 246 and 300 on every seed.
    """

    name = "verify"
    ROUND = ("raman", "resonant", "resonant", "fast", "resonant", "resonant")
    ROUND_LEN = len(ROUND)
    N_RAMAN = 5
    N_RESONANT = 6
    N_FAST = 32
    T = 20.0
    INPUT_SAMPLES = 2001
    GAUSS_NODES = 200

    def __init__(self, pm, seed: int, tiny: bool = False):
        self.pm = pm
        self.seed = seed
        self.sizes = (2, 1, 2) if tiny else (self.N_RAMAN, self.N_RESONANT, self.N_FAST)

    def setup(self):
        pm = self.pm
        rng = np.random.default_rng([self.seed, 1])
        nr, ns, nf = self.sizes
        # Latin hypercube over (depth, |detuning|) with a fixed pairing of
        # strata, so high-depth media do not all get high detunings on
        # some seeds.  The seed moves each point within its cell, the
        # detuning opposite to the depth (antithetic), because a Raman op's
        # step count grows with both.
        pairing = np.argsort(np.argsort((np.arange(nr) * 0.6180339887498949) % 1.0))
        jitter = rng.random(nr)
        d_ram = log_uniform((np.arange(nr) + jitter) / nr, 1.0, 300.0)
        detuning = 10.0 + 40.0 * (pairing + 1.0 - jitter) / nr
        sign = rng.choice([-1.0, 1.0], nr)
        d_res = log_uniform((np.arange(ns) + rng.random(ns)) / ns, 1.0, 300.0)
        d_fast = log_uniform((np.arange(nf) + rng.random(nf)) / nf, 1.0, 300.0)

        self.input = pm.make_reference_input(
            self.T, pm.TimeGrid.linspace(0.0, self.T, self.INPUT_SAMPLES)
        )
        grid = pm.SpaceGrid.gauss_legendre(self.GAUSS_NODES)

        def medium(d, delta):
            params = pm.MediumParams(d=float(d), delta=float(delta))
            res = pm.optimal_storage_control(self.input, params, grid=grid)
            return _Medium(params, res.control, pm.time_reverse(res.control), res.predicted_eta_s)

        self.raman = [medium(d_ram[i], sign[i] * detuning[i]) for i in range(nr)]
        self.resonant = [medium(d, 0.0) for d in d_res]
        self.fast = [(float(d), pm.fast.recommended_fast_grid(float(d))) for d in d_fast]
        self.order = {"raman": spread_order(nr), "resonant": spread_order(ns),
                      "fast": [nf - 1 - i for i in spread_order(nf)]}

    def op(self, i: int) -> Op:
        pm = self.pm
        kind, k = kind_count(self.ROUND, i)
        order = self.order[kind]
        idx = order[k % len(order)]
        nz = N_ZETA_CHOICES[k % len(N_ZETA_CHOICES)]
        if kind == "fast":
            d, tgrid = self.fast[idx]

            def call():
                fin = pm.optimal_fast_input(d, tgrid)
                return fin, pm.simulate_fast_storage(fin.mode, pm.MediumParams(d=d), n_zeta=nz)

            return Op(kind=kind, label={"d": d, "delta": 0.0, "n_zeta": nz}, call=call)

        m = (self.raman if kind == "raman" else self.resonant)[idx]
        inp = self.input

        def call():
            run = pm.simulate_storage(inp, m.control, m.params, n_zeta=nz)
            stored = pm.SpinWave(grid=run.final_state.grid, samples=run.final_state.S)
            back = pm.simulate_retrieval(
                stored, m.reversed_control, m.params, direction="backward", n_zeta=nz
            )
            return run, back

        return Op(kind=kind, label={"d": m.params.d, "delta": m.params.delta, "n_zeta": nz},
                  call=call, extra={"eta_max": m.eta_max})

    def check(self, op: Op, out) -> tuple[list, dict]:
        pm = self.pm
        tol = pm.simulator.DEFECT_TOL
        failed = []
        if op.kind == "fast":
            fin, run = out
            runs = [run]
            eta_max = pm.optimal_spin_wave(op.label["d"])[1]
            fp = {"eta_max": eta_max, "fast_raw_norm2": fin.raw_norm2}
        else:
            run, back = out
            runs = [run, back]
            eta_max = op.extra["eta_max"]
            b = back.breakdown
            eta_r = b.eta_retrieval
            if abs(eta_r + b.decay_fraction + b.residual_fraction - 1.0) >= SUM_RULE_TOL:
                failed.append("sum_rule_retrieval")
            if not _in_unit(eta_r):
                failed.append("eta_in_unit_interval")
            fp = {"eta_max": eta_max, "eta_retrieval": eta_r}
        b = run.breakdown
        eta_s = b.eta_storage
        if abs(eta_s + b.leak_fraction + b.decay_fraction - 1.0) >= SUM_RULE_TOL:
            failed.append("sum_rule_storage")
        if any(abs(r.diagnostics["defect"]) > tol for r in runs):
            failed.append("audit_defect")
        if not (_in_unit(eta_s) and _in_unit(eta_max)):
            failed.append("eta_in_unit_interval")
        if not abs(eta_s - eta_max) < STORAGE_GAP_TOL:
            failed.append("criterion6_fast_storage" if op.kind == "fast"
                          else "criterion5_shaped_storage")
        fp.update(
            eta_storage=eta_s,
            defect_max=max(abs(r.diagnostics["defect"]) for r in runs),
            steps=sum(r.diagnostics["n_steps"] for r in runs),
            refinements=sum(r.diagnostics["refinements"] for r in runs),
        )
        return sorted(set(failed)), fp


class Session:
    """In-process ``photonmem`` CLI calls (``cli.main``), as a user runs them.

    A round is one ``curves`` sweep followed by four times ``simulate``,
    ``iterate``, ``simulate``, ``optimal-spinwave``, ``simulate``,
    ``simulate``.  A sweep costs 0.45, 0.65 or 0.85 s depending on how many
    of its depths take a step-halving retry, so when sweeps are more than
    about ten per run the tail percentile lands between those modes and
    jumps from seed to seed; at one sweep per round (6-7 per run) the median
    and the tail both fall inside the ``simulate`` calls, whose cost is
    nearly constant.  Each call writes into a fresh directory under the
    benchmark's output directory.
    """

    name = "session"
    ROUND = ("curves",) + ("simulate", "iterate", "simulate", "optimal-spinwave", "simulate",
                           "simulate") * 4
    ROUND_LEN = len(ROUND)
    POOL = 64  # per command; calls wrap around
    CURVE_POINTS = 3
    SPINWAVE_DEPTHS = 4

    def __init__(self, pm, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.pm = pm
        self.seed = seed
        self.pool = 4 if tiny else self.POOL
        self.curve_points = 2 if tiny else self.CURVE_POINTS
        self.workdir = workdir

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        n = self.pool
        d_min = log_uniform(stratified(rng, n, 4), 0.3, 3.0)
        d_max = log_uniform(stratified(rng, n, 4), 30.0, 300.0)
        curves = [["curves", "--jobs", "1", "--d-min", repr(float(a)), "--d-max", repr(float(b)),
                   "--d-points", str(self.curve_points)] for a, b in zip(d_min, d_max)]
        d_it = log_uniform(stratified(rng, n, 4), 1.0, 100.0)
        seeds = rng.integers(0, 2**31, n)
        iterate = [["iterate", "--d", repr(float(d)), "--init", "random", "--seed", str(int(s))]
                   for d, s in zip(d_it, seeds)]
        sw = [sorted(log_uniform(stratified(rng, self.SPINWAVE_DEPTHS, self.SPINWAVE_DEPTHS),
                                 1.0, 1e4))
              for _ in range(n)]
        spinwave = [["optimal-spinwave", "--d", ",".join(repr(float(d)) for d in ds)] for ds in sw]
        m = 3 * n
        d_sim = log_uniform(stratified(rng, m, 4), 1.0, 100.0)
        a = 0.5 + 2.5 * stratified(rng, m, 4)
        b = 0.5 + 2.5 * stratified(rng, m, 4)
        t1 = 4.0 + 8.0 * stratified(rng, m, 4)
        t2 = t1 + 1.0 + 5.0 * stratified(rng, m, 4)
        simulate = [["simulate", "--d", repr(float(d_sim[j])),
                     "--control", f"0:{float(a[j])!r}; {float(t1[j])!r}:{float(b[j])!r}; "
                                  f"{float(t2[j])!r}:0",
                     "--retrieve", "backward"] for j in range(m)]
        self.args = {"curves": curves, "iterate": iterate, "optimal-spinwave": spinwave,
                     "simulate": simulate}
        self.workdir.mkdir(parents=True, exist_ok=True)

    def op(self, i: int) -> Op:
        pm = self.pm
        kind, k = kind_count(self.ROUND, i)
        pool = self.args[kind]
        args = pool[k % len(pool)]
        out = self.workdir / "cli"
        if out.exists():
            shutil.rmtree(out)
        argv = args + ["--out", str(out)]
        return Op(kind=kind, label={"argv": args}, call=lambda: pm.cli.main(argv),
                  extra={"out": out})

    def check(self, op: Op, rc) -> tuple[list, dict]:
        out: Path = op.extra["out"]
        files = sorted(out.iterdir()) if out.exists() else []
        nbytes = sum(f.stat().st_size for f in files)
        fp = {"exit_code": rc, "bytes": nbytes}
        if rc != 0:
            return ["exit_code"], fp
        summary_name = f"{op.kind.replace('-', '_')}_summary.json"
        try:
            summary = json.loads((out / summary_name).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return ["summary_json"], fp
        results = summary["results"]
        fp["results"] = results
        failed = []
        etas = []
        tol = self.pm.simulator.DEFECT_TOL
        if op.kind == "curves":
            if any("error" in p for p in results):
                failed.append("curves_error_rows")
            values = [p[k] for p in results for k in ("eta_back", "eta_forw", "eta_square")]
            if not all(math.isfinite(v) for v in values):
                failed.append("curves_nan")
            etas = values
        elif op.kind == "optimal-spinwave":
            etas = [p["eta_r_max"] for p in results]
            fp["eta_max_per_d"] = {repr(p["d"]): p["eta_r_max"] for p in results}
            fp["power_iterations"] = sum(p["iterations"] for p in results)
        elif op.kind == "iterate":
            etas = [results["efficiencies"][-1]]
            fp["time_reversal_iterations"] = results["iterations"]
        else:
            st = results["storage"]
            rt = results["retrieval"]
            if abs(st["eta_storage"] + st["leak_fraction"] + st["decay_fraction"] - 1.0) \
                    >= SUM_RULE_TOL:
                failed.append("sum_rule_storage")
            if abs(rt["eta_retrieval"] + rt["decay_fraction"] + rt["residual_fraction"] - 1.0) \
                    >= SUM_RULE_TOL:
                failed.append("sum_rule_retrieval")
            if max(abs(st["audit_defect"]), abs(rt["audit_defect"])) > tol:
                failed.append("audit_defect")
            etas = [st["eta_storage"], rt["eta_retrieval"]]
            fp["eta_storage"] = st["eta_storage"]
            fp["defect_max"] = max(abs(st["audit_defect"]), abs(rt["audit_defect"]))
        if not all(isinstance(v, float) and _in_unit(v) for v in etas):
            failed.append("eta_in_unit_interval")
        return failed, fp


WORKLOADS = {w.name: w for w in (Design, Verify, Session)}
