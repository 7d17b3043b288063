"""Command-line front end: reference inputs, figure data, CSV/JSON emission.

Subcommands
-----------
optimal-spinwave   optimal retrieval modes and max efficiencies per depth
shape-controls     optimal storage controls for the reference input
curves             efficiency-vs-depth sweep (backward/forward/square pulse)
simulate           storage (and optional retrieval) with a piecewise control,
                   at a single depth
iterate            time-reversal retrieval optimization from a trial wave,
                   at a single depth

Configuration is a flat ``key = value`` text file (# comments allowed);
command-line flags override file values.  All outputs are deterministic for
a fixed configuration.  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ControlField,
    FieldMode,
    MediumParams,
    PhotonMemError,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    flip,
    make_reference_input,
)

__all__ = ["ConfigError", "RunConfig", "make_reference_input", "main"]


class ConfigError(PhotonMemError):
    """Bad key, value, or combination in the run configuration."""


# key: (parser, default); None default means command decides
_KEY_SPECS = {
    "out": (str, "photonmem_out"),
    "jobs": (int, 1),
    "tol": (float, 1e-8),
    "d": (str, "1,10,100"),
    "delta": (float, 0.0),
    "gauss_nodes": (int, 200),
    "n_zeta": (int, 256),
    "input_T": (float, 20.0),
    "input_n": (int, 2001),
    "h_max": (float, None),
    "d_min": (float, 0.3),
    "d_max": (float, 300.0),
    "d_points": (int, 25),
    "control": (str, "0:1"),
    "retrieve": (str, "none"),
    "retrieval_control": (str, ""),
    "seed": (int, 0),
    "init": (str, "flat"),
    "omega": (float, 0.0),
    "max_iter": (int, 500),
}

# key: the commands that take it as a --flag (None: every command), in --help order
_FLAGS = {
    "d": ("optimal-spinwave", "shape-controls", "simulate", "iterate"),
    "delta": ("shape-controls", "curves", "simulate", "iterate"),
    "out": None, "jobs": ("curves",), "tol": ("iterate",),
    "d_min": ("curves",), "d_max": ("curves",), "d_points": ("curves",),
    "input_T": ("shape-controls", "curves", "simulate"),
    "control": ("simulate",), "retrieve": ("simulate",),
    "init": ("iterate",), "seed": ("iterate",), "omega": ("iterate",),
}
_FLAG_HELP = {"d": "comma-separated depth list", "out": "output directory"}


class RunConfig:
    """Typed, validated parameters for one command invocation."""

    def __init__(self, values: dict):
        for key, (cast, default) in _KEY_SPECS.items():
            raw = values.get(key, default)
            if raw is None:
                setattr(self, key, None)
                continue
            try:
                setattr(self, key, cast(raw))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for key '{key}': {raw!r}") from exc
            if cast is float and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"key '{key}' must be finite, got {raw!r}")
        unknown = set(values) - set(_KEY_SPECS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        self._validate()

    def _validate(self):
        for key in ("jobs", "gauss_nodes", "n_zeta", "input_n", "d_points", "max_iter",
                    "tol", "input_T", "d_min", "d_max", "h_max"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigError(f"key '{key}' must be positive")
        for key in ("omega", "seed"):  # omega = 0 picks the automatic control
            if getattr(self, key) < 0:
                raise ConfigError(f"key '{key}' must be non-negative")
        if self.d_max < self.d_min:
            raise ConfigError("key 'd_max' must be >= d_min")
        if self.retrieve not in ("none", "backward", "forward"):
            raise ConfigError("key 'retrieve' must be none, backward or forward")
        if self.init not in ("flat", "random"):
            raise ConfigError("key 'init' must be flat or random")

    def d_list(self) -> list[float]:
        try:
            vals = [float(x) for x in self.d.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad value for key 'd': {self.d!r}") from exc
        if not vals or any(v <= 0 or not math.isfinite(v) for v in vals):
            raise ConfigError("key 'd' must list positive finite depths")
        return vals

    def depth_files(self, prefix: str) -> list[tuple[float, str]]:
        """(depth, CSV name) per listed depth; depths that share a name are refused."""
        named = [(d, f"{prefix}_d{d:g}.csv") for d in self.d_list()]
        names = [name for _, name in named]
        clash = next((name for name in names if names.count(name) > 1), None)
        if clash is not None:
            raise ConfigError(f"key 'd': depths {self.d!r} would share the output file {clash}")
        return named

    def depth(self) -> float:
        """The depth of a command that models a single medium."""
        vals = self.d_list()
        if len(vals) != 1:
            raise ConfigError(f"key 'd' must give a single depth here, got {self.d!r}")
        return vals[0]

    def reference_input(self) -> FieldMode:
        """The reference input pulse, sampled at ``input_n`` times on [0, input_T]."""
        return make_reference_input(self.input_T, TimeGrid.linspace(0, self.input_T, self.input_n))


def parse_config_file(path: Path) -> dict:
    values = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per sample, every value as ``%.17g`` (round-trips exactly)."""
    fmt = ",".join(["%.17g"] * len(columns))
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    lines = [",".join(header), *(fmt % row for row in rows)]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: Path, text: str):
    """Write one output file, making its directory: a run that fails first leaves none."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PhotonMemError(f"cannot create output directory {path.parent}: {exc}") from exc
    path.write_text(text, encoding="utf-8")


def cmd_optimal_spinwave(cfg: RunConfig) -> tuple:
    from .kernel import optimal_spin_wave

    files = cfg.depth_files("spinwave")
    grid = SpaceGrid.gauss_legendre(cfg.gauss_nodes)
    results = []
    for d, name in files:
        mode, eta = optimal_spin_wave(d, grid)
        _write_csv(Path(cfg.out) / name, ["zeta", "S"], [grid.nodes, mode.samples.real])
        # a direct solve; the key stays so that readers of the summary keep working
        results.append({"d": d, "eta_r_max": eta, "iterations": 0})
    return {"d": cfg.d_list()}, results, ()


def cmd_shape_controls(cfg: RunConfig) -> tuple:
    from .adiabatic import optimal_storage_control

    files = cfg.depth_files("control")
    grid = SpaceGrid.gauss_legendre(cfg.gauss_nodes)
    input_mode = cfg.reference_input()
    results = []
    for d, name in files:
        params = MediumParams(d=d, delta=cfg.delta)
        res = optimal_storage_control(input_mode, params, grid=grid, h_max=cfg.h_max)
        om = res.control.samples
        disp = om * math.sqrt(cfg.input_T / d)  # control in sqrt(d/T) display units
        _write_csv(
            Path(cfg.out) / name,
            ["tau", "re_omega", "im_omega", "re_omega_display", "im_omega_display"],
            [input_mode.grid.times, om.real, om.imag, disp.real, disp.imag],
        )
        results.append({
            "d": d,
            "predicted_eta_s": res.predicted_eta_s,
            "truncation_loss": res.shaping.truncation_loss,
            "h_max": res.shaping.h_max,
        })
    return {"d": cfg.d_list(), "delta": cfg.delta, "input_T": cfg.input_T}, results, ()


def _curve_point(task: tuple) -> dict:
    """One depth of the efficiency sweep; must stay picklable for --jobs."""
    d, delta, gauss_nodes, n_zeta, input_T, input_n = task
    from .kernel import _efficiency_bounds, retrieval_efficiency
    from .simulator import simulate_storage

    eta_max, eta_forw = _efficiency_bounds(d, SpaceGrid.gauss_legendre(gauss_nodes))
    eta_back = eta_max**2
    input_mode = RunConfig({"input_T": input_T, "input_n": input_n}).reference_input()
    omega_sq = math.sqrt(d / input_T)  # group-velocity matching: v_g T = L
    ctrl = ControlField(
        grid=input_mode.grid,
        samples=np.full(input_mode.grid.n, omega_sq, dtype=complex),
    )
    # only S is read, and the ring-down leaves S exactly unchanged (omega = 0)
    run = simulate_storage(input_mode, ctrl, MediumParams(d=d, delta=delta), n_zeta=n_zeta,
                           ring_down=False)
    stored = SpinWave(grid=run.final_state.grid, samples=run.final_state.S)
    eta_square = retrieval_efficiency(flip(stored), d)
    return {"d": d, "eta_back": eta_back, "eta_forw": eta_forw, "eta_square": eta_square}


def _curve_point_or_error(task: tuple) -> dict:
    """:func:`_curve_point`, with a failure turned into a NaN row carrying ``error``."""
    try:
        return _curve_point(task)
    except Exception as exc:  # per-point failure becomes NaN, sweep continues
        return {"d": task[0], "eta_back": math.nan, "eta_forw": math.nan,
                "eta_square": math.nan, "error": f"{type(exc).__name__}: {exc}"}


# the thread counts of OpenBLAS and of OpenMP, read once when a process loads its BLAS
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _worker_pool(jobs: int):
    """``jobs`` spawned worker processes whose BLAS runs one thread each.

    The workers already share the cores, so a BLAS thread pool in each
    would oversubscribe them.  A spawned process reads the caps from the
    environment it starts with; the parent's environment is restored when
    the pool has shut down, and its own BLAS, already loaded, is unaffected.
    """
    saved = {key: os.environ.get(key) for key in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def cmd_curves(cfg: RunConfig) -> tuple:
    ds = np.geomspace(cfg.d_min, cfg.d_max, cfg.d_points)
    tasks = [
        (float(d), cfg.delta, cfg.gauss_nodes, cfg.n_zeta, cfg.input_T, cfg.input_n)
        for d in ds
    ]
    if cfg.jobs > 1:
        with _worker_pool(cfg.jobs) as pool:
            points = list(pool.map(_curve_point_or_error, tasks))
    else:
        points = [_curve_point_or_error(t) for t in tasks]
    failed = tuple(p for p in points if "error" in p)
    for p in failed:
        print(f"warning: d={p['d']:g} failed: {p['error']}", file=sys.stderr)
    _write_csv(
        Path(cfg.out) / "curves.csv",
        ["d", "eta_back", "eta_forw", "eta_square"],
        [np.array([p[k] for p in points]) for k in ("d", "eta_back", "eta_forw", "eta_square")],
    )
    params = {"d_min": cfg.d_min, "d_max": cfg.d_max, "d_points": cfg.d_points,
              "delta": cfg.delta, "input_T": cfg.input_T}
    return params, points, failed


def _parse_piecewise_control(spec: str, grid: TimeGrid, key: str) -> ControlField:
    """'tau:value; tau:value; ...' with complex values, linearly interpolated."""
    knots_t, knots_v = [], []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"key '{key}': expected 'tau:value' pairs, got {chunk!r}")
        t_str, _, v_str = chunk.partition(":")
        try:
            knots_t.append(float(t_str))
            knots_v.append(complex(v_str.replace(" ", "")))
        except ValueError as exc:
            raise ConfigError(f"key '{key}': bad pair {chunk!r}") from exc
    if not knots_t:
        raise ConfigError(f"key '{key}': empty control specification")
    order = np.argsort(knots_t)
    t = np.asarray(knots_t, float)[order]
    v = np.asarray(knots_v, complex)[order]
    times = grid.times
    re = np.interp(times, t, v.real, left=v.real[0], right=v.real[-1])
    im = np.interp(times, t, v.imag, left=v.imag[0], right=v.imag[-1])
    return ControlField(grid=grid, samples=re + 1j * im)


def _write_mode_csv(path: Path, mode: FieldMode):
    _write_csv(path, ["tau", "re_E", "im_E"],
               [mode.grid.times, mode.samples.real, mode.samples.imag])


def cmd_simulate(cfg: RunConfig) -> tuple:
    from .simulator import energy_audit, simulate_retrieval, simulate_storage

    params = MediumParams(d=cfg.depth(), delta=cfg.delta)
    input_mode = cfg.reference_input()
    ctrl = _parse_piecewise_control(cfg.control, input_mode.grid, "control")
    run = simulate_storage(input_mode, ctrl, params, n_zeta=cfg.n_zeta)
    _write_mode_csv(Path(cfg.out) / "output_mode.csv", run.output_mode)
    results = {
        "storage": {
            "eta_storage": run.breakdown.eta_storage,
            "leak_fraction": run.breakdown.leak_fraction,
            "decay_fraction": run.breakdown.decay_fraction,
            "residual_fraction": run.breakdown.residual_fraction,
            "audit_defect": energy_audit(run).defect,
        }
    }
    if cfg.retrieve != "none":
        stored = SpinWave(grid=run.final_state.grid, samples=run.final_state.S)
        rspec = cfg.retrieval_control or cfg.control
        rctrl = _parse_piecewise_control(rspec, input_mode.grid, "retrieval_control")
        rrun = simulate_retrieval(stored, rctrl, params, direction=cfg.retrieve,
                                  n_zeta=cfg.n_zeta)
        _write_mode_csv(Path(cfg.out) / "retrieved_mode.csv", rrun.output_mode)
        results["retrieval"] = {
            "direction": cfg.retrieve,
            "eta_retrieval": rrun.breakdown.eta_retrieval,
            "eta_total": run.breakdown.eta_storage * rrun.breakdown.eta_retrieval,
            "decay_fraction": rrun.breakdown.decay_fraction,
            "residual_fraction": rrun.breakdown.residual_fraction,
            "audit_defect": energy_audit(rrun).defect,
        }
    return ({"d": params.d, "delta": params.delta, "input_T": cfg.input_T,
             "control": cfg.control}, results, ())


def cmd_iterate(cfg: RunConfig) -> tuple:
    from .optimizer import completing_control, iterate_retrieval

    d = cfg.depth()
    params = MediumParams(d=d, delta=cfg.delta)
    grid = SpaceGrid.gauss_legendre(cfg.gauss_nodes)
    if cfg.init == "flat":
        init = SpinWave(grid=grid, samples=np.ones(grid.n, dtype=complex))
    else:
        rng = np.random.default_rng(cfg.seed)
        coeffs = rng.normal(size=4)
        z = grid.nodes
        samples = 1.0 + 0.3 * sum(
            c * np.sin((k + 1) * np.pi * z) for k, c in enumerate(coeffs)
        )
        init = SpinWave(grid=grid, samples=np.clip(samples, 0.05, None).astype(complex))
    ctrl = completing_control(params, omega=cfg.omega if cfg.omega > 0 else None)
    trace = iterate_retrieval(d, ctrl, init, tol=cfg.tol, max_iter=cfg.max_iter, delta=cfg.delta)
    _write_csv(
        Path(cfg.out) / "iterate_mode.csv",
        ["zeta", "re_S", "im_S"],
        [grid.nodes, trace.final_mode.samples.real, trace.final_mode.samples.imag],
    )
    results = {"efficiencies": list(map(float, trace.efficiencies)),
               "iterations": trace.iterations, "converged": trace.converged}
    return {"d": d, "delta": cfg.delta, "init": cfg.init, "seed": cfg.seed}, results, ()


# each command writes its CSVs and returns (params, results, failed) for main's summary;
# ``failed`` lists the results of failed points, which make the run exit 2
_COMMANDS = {
    "optimal-spinwave": cmd_optimal_spinwave,
    "shape-controls": cmd_shape_controls,
    "curves": cmd_curves,
    "simulate": cmd_simulate,
    "iterate": cmd_iterate,
}

# commands that model one medium: they take a single depth, 1 by default
_SINGLE_DEPTH_COMMANDS = ("simulate", "iterate")


@cache  # one parser per process: building it costs about 30 parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmem",
        description="Optimal photon storage and retrieval in Lambda-type atomic media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="flat key=value file")
        for key, commands in _FLAGS.items():
            if commands is None or name in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEY_SPECS[key][0],
                               default=None, help=_FLAG_HELP.get(key))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; write its summary JSON and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        values = {}
        if args.config:
            values.update(parse_config_file(Path(args.config)))
        for key in _FLAGS:
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
        if args.command in _SINGLE_DEPTH_COMMANDS:
            values.setdefault("d", "1")
        cfg = RunConfig(values)
        params, results, failed = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PhotonMemError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    summary = {
        "command": args.command,
        "params": params,
        "results": results,
        "metadata": {
            "version": __version__,
            "grids": {"gauss_nodes": cfg.gauss_nodes, "n_zeta": cfg.n_zeta,
                      "input_T": cfg.input_T, "input_n": cfg.input_n},
            "tolerances": {"tol": cfg.tol},
        },
    }
    path = Path(cfg.out) / f"{args.command.replace('-', '_')}_summary.json"
    _write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
