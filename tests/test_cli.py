import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import photonmem
from photonmem import TimeGrid, cli, mode_norm2, optimal_spin_wave
from photonmem.cli import (
    _KEY_SPECS,
    ConfigError,
    RunConfig,
    _parse_piecewise_control,
    make_reference_input,
    main,
    parse_config_file,
)


class TestReferenceInput:
    def test_unit_energy(self):
        mode = make_reference_input(20.0)
        assert mode_norm2(mode) == pytest.approx(1.0, abs=1e-10)

    def test_endpoints_exactly_zero(self):
        mode = make_reference_input(13.0)
        assert mode.samples[0] == 0.0
        assert mode.samples[-1] == 0.0

    def test_symmetric_about_midpoint(self):
        mode = make_reference_input(20.0, TimeGrid.linspace(0.0, 20.0, 1001))
        assert np.allclose(mode.samples, mode.samples[::-1], atol=1e-12)

    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            make_reference_input(-1.0)


class TestConfig:
    def test_parse_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("d = 2,20\n# comment\ndelta = 1.5  # inline\n")
        values = parse_config_file(cfg_file)
        assert values == {"d": "2,20", "delta": "1.5"}

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="optical_depht"):
            RunConfig({"optical_depht": "3"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="'tol'"):
            RunConfig({"tol": "fast"})

    def test_d_list_validation(self):
        with pytest.raises(ConfigError):
            RunConfig({"d": "1,-3"}).d_list()

    def test_piecewise_control(self):
        grid = TimeGrid.linspace(0.0, 10.0, 11)
        ctrl = _parse_piecewise_control("0:0; 5:2; 10:1+1j", grid, "control")
        assert ctrl.samples[0] == 0.0
        assert ctrl.samples[5] == pytest.approx(2.0)
        assert ctrl.samples[-1] == pytest.approx(1.0 + 1.0j)

    def test_piecewise_control_errors(self):
        grid = TimeGrid.linspace(0.0, 1.0, 3)
        with pytest.raises(ConfigError, match="'control'"):
            _parse_piecewise_control("0=1", grid, "control")
        with pytest.raises(ConfigError):
            _parse_piecewise_control("0:not_a_number", grid, "control")


class TestCommands:
    def test_optimal_spinwave_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["optimal-spinwave", "--d", "1,10,100", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "optimal_spinwave_summary.json").read_text())
        etas = [r["eta_r_max"] for r in summary["results"]]
        assert etas == sorted(etas)
        for d in (1, 10, 100):
            csv = (out / f"spinwave_d{d}.csv").read_text().splitlines()
            assert csv[0] == "zeta,S"
            assert len(csv) == summary["metadata"]["grids"]["gauss_nodes"] + 1

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimal-spinwave", "--d", "10", "--out", str(a)]) == 0
        assert main(["optimal-spinwave", "--d", "10", "--out", str(b)]) == 0
        for name in ("spinwave_d10.csv", "optimal_spinwave_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_csv_values_formatted_as_per_element_17g(self, tmp_path):
        # the row-at-a-time %-format writes the bytes that formatting each
        # element with f"{float(x):.17g}" wrote, special values included
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf]
        rng = np.random.default_rng(3)
        a = np.concatenate([special, rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)])
        b = np.concatenate([special[::-1], rng.uniform(-1, 1, 50)])
        cli._write_csv(tmp_path / "x.csv", ["a", "b"], [a, b])
        want = "a,b\n" + "".join(f"{float(x):.17g},{float(y):.17g}\n" for x, y in zip(a, b))
        assert (tmp_path / "x.csv").read_bytes() == want.encode("utf-8")

    def test_shape_controls_summary_consistent(self, tmp_path):
        out = tmp_path / "s"
        rc = main(["shape-controls", "--d", "10", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "shape_controls_summary.json").read_text())
        spin = tmp_path / "o2"
        main(["optimal-spinwave", "--d", "10", "--out", str(spin)])
        eta = json.loads((spin / "optimal_spinwave_summary.json").read_text())["results"][0][
            "eta_r_max"
        ]
        assert summary["results"][0]["predicted_eta_s"] == pytest.approx(eta, abs=1e-9)
        header = (out / "control_d10.csv").read_text().splitlines()[0]
        assert header == "tau,re_omega,im_omega,re_omega_display,im_omega_display"

    def test_shape_controls_raman_regime_runs(self, tmp_path):
        out = tmp_path / "raman"
        rc = main(["shape-controls", "--d", "10", "--delta", "50", "--out", str(out)])
        assert rc == 0

    def test_fig2_display_units_ordering(self, tmp_path):
        # in sqrt(d/T) display units the mid-pulse control level decreases
        # with depth
        out = tmp_path / "f"
        assert main(["shape-controls", "--d", "1,10,100", "--out", str(out)]) == 0
        mids = {}
        for d in (1, 10, 100):
            rows = np.genfromtxt(out / f"control_d{d}.csv", delimiter=",", names=True)
            mag = np.hypot(rows["re_omega_display"], rows["im_omega_display"])
            mids[d] = mag[len(mag) // 2]
        assert mids[1] > mids[10] > mids[100]

    def test_curves_small_sweep(self, tmp_path):
        out = tmp_path / "c"
        rc = main([
            "curves", "--d-min", "1", "--d-max", "20", "--d-points", "4", "--out", str(out)
        ])
        assert rc == 0
        rows = np.genfromtxt(out / "curves.csv", delimiter=",", names=True)
        assert rows.shape == (4,)
        assert np.all(rows["eta_back"] >= rows["eta_forw"] - 1e-12)
        assert np.all(rows["eta_back"] >= rows["eta_square"] - 1e-12)

    def test_curves_csv_independent_of_jobs(self, tmp_path):
        sweep = ["curves", "--d-min", "1", "--d-max", "60", "--d-points", "3"]
        for jobs in ("1", "2"):
            assert main([*sweep, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert (tmp_path / "1" / "curves.csv").read_bytes() == (
            tmp_path / "2" / "curves.csv"
        ).read_bytes()

    def test_jobs_workers_start_with_single_threaded_blas(self):
        before = {key: os.environ.get(key) for key in cli._BLAS_THREAD_VARS}
        with cli._worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, cli._BLAS_THREAD_VARS))
        assert seen == ["1"] * len(cli._BLAS_THREAD_VARS)
        assert {key: os.environ.get(key) for key in cli._BLAS_THREAD_VARS} == before

    def test_curve_point_stores_without_ring_down(self, monkeypatch):
        # only the stored spin wave is read, and with the drives off the
        # ring-down leaves it exactly as the window left it
        import photonmem.simulator

        real = photonmem.simulator.simulate_storage
        runs = []

        def recording(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(photonmem.simulator, "simulate_storage", recording)
        d = float(np.geomspace(0.3, 300.0, 25)[22])
        cli._curve_point((d, 0.0, 200, 256, 20.0, 2001))
        (run,) = runs
        assert run.diagnostics["ring_down_time"] == 0.0
        inp = cli.RunConfig({"input_T": 20.0, "input_n": 2001}).reference_input()
        ctrl = photonmem.ControlField(grid=inp.grid, samples=np.full(2001, np.sqrt(d / 20.0)))
        rung = real(inp, ctrl, photonmem.MediumParams(d=d), n_zeta=256)
        assert rung.diagnostics["ring_down_time"] > 0.0
        assert np.array_equal(rung.final_state.S, run.final_state.S)

    def test_simulate_zero_control(self, tmp_path):
        out = tmp_path / "z"
        rc = main(["simulate", "--d", "10", "--control", "0:0", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        storage = summary["results"]["storage"]
        assert storage["eta_storage"] == 0.0
        assert abs(storage["audit_defect"]) < 1e-4
        csv_rows = (out / "output_mode.csv").read_text().splitlines()
        assert csv_rows[0] == "tau,re_E,im_E"
        # one row per sample of the run's own uniform output grid, spanning
        # the full input window
        taus = np.array([float(r.split(",")[0]) for r in csv_rows[1:]])
        assert np.allclose(np.diff(taus), taus[1] - taus[0])
        assert taus[0] == 0.0
        assert taus[-1] == pytest.approx(20.0, abs=1e-12)

    def test_simulate_with_retrieval(self, tmp_path):
        out = tmp_path / "sr"
        rc = main([
            "simulate", "--d", "5", "--control", "0:0.5", "--retrieve", "backward",
            "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert "retrieval" in summary["results"]
        assert summary["results"]["retrieval"]["eta_total"] <= 1.0
        assert (out / "retrieved_mode.csv").exists()

    def test_iterate_seeded_determinism(self, tmp_path):
        outs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            rc = main([
                "iterate", "--d", "5", "--init", "random", "--seed", "3", "--out", str(out)
            ])
            assert rc == 0
            outs.append((out / "iterate_summary.json").read_bytes())
        assert outs[0] == outs[1]
        trace = json.loads(outs[0])
        effs = trace["results"]["efficiencies"]
        assert all(b >= a - 1e-6 for a, b in zip(effs, effs[1:]))

    def test_simulate_default_depth_is_one(self, tmp_path):
        out = tmp_path / "d1"
        assert main(["simulate", "--out", str(out)]) == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["params"]["d"] == 1.0

    @pytest.mark.parametrize("delta", [30.0, -30.0])
    def test_iterate_honours_detuning(self, tmp_path, delta):
        # the completing control is sized for delta; retrieving on resonance
        # instead empties the medium in the first samples and reads eta = 1.61
        out = tmp_path / "i"
        assert main(["iterate", "--d", "10", "--delta", repr(delta), "--out", str(out)]) == 0
        eta = json.loads((out / "iterate_summary.json").read_text())["results"]["efficiencies"][-1]
        assert 0.0 < eta <= 1.0
        assert eta == pytest.approx(optimal_spin_wave(10.0)[1], abs=1e-3)

    def test_control_returning_to_zero_raises_no_warning(self, tmp_path):
        # the spline leaves subnormal values where the piecewise control reaches 0
        out = tmp_path / "s"
        argv = ["simulate", "--d", "30", "--control", "0:2; 8:1; 12:0", "--retrieve",
                "backward", "--out", str(out)]
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            assert main(argv) == 0

    def test_adiabaticity_warning_reaches_stderr(self, tmp_path):
        # pytest records warnings raised in-process, so the CLI runs in its own interpreter
        src = str(Path(photonmem.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "photonmem", "shape-controls", "--d", "0.3",
             "--out", str(tmp_path / "c")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "AdiabaticityWarning" in done.stderr


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        assert main(["optimal-spinwave", "--config", str(cfg)]) == 1

    def test_missing_config_file_is_one(self):
        assert main(["optimal-spinwave", "--config", "/nonexistent/x.cfg"]) == 1

    def test_usage_error_is_one(self):
        assert main(["unknown-command"]) == 1

    def test_numerical_failure_is_two(self, tmp_path):
        # a one-node quadrature grid cannot be built
        cfg = tmp_path / "n.cfg"
        cfg.write_text("gauss_nodes = 1\n")
        rc = main(["optimal-spinwave", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_one_input_sample_is_two(self, tmp_path, capsys):
        # a one-sample input grid cannot be built; it is refused before the
        # grid's spacing is divided by n - 1 = 0
        cfg = tmp_path / "n.cfg"
        cfg.write_text("input_n = 1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("key, flags", [("omega", ["--omega", "-3"]),
                                            ("seed", ["--init", "random", "--seed", "-1"])])
    def test_negative_iterate_key_is_one(self, tmp_path, key, flags, capsys):
        # omega = 0 picks the automatic control, a negative one is no control;
        # a seed is a non-negative integer
        out = tmp_path / "x"
        assert main(["iterate", *flags, "--out", str(out)]) == 1
        assert f"'{key}' must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_run_over_the_work_budget_is_two(self, tmp_path, capsys):
        # d = 1e6 at T = 20: 7.0e6 steps at the medium's bound on 256 cells
        # over the window and 2.1e7 with the 40-unit ring-down, 5.4e9
        # cell-steps; refused up front, before any file is written
        out = tmp_path / "x"
        start = time.perf_counter()
        assert main(["simulate", "--d", "1e6", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 2.0
        assert "5.38e+09 cell-steps exceed the budget of 1e+08" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    def test_run_whose_ring_down_passes_the_work_budget_is_two(self, tmp_path, capsys,
                                                               monkeypatch):
        # d = 3e4 at T = 20: 2.1e5 steps at the medium's bound over the window,
        # 5.4e7 cell-steps on 256 cells, within the budget; with the 40-unit
        # ring-down 6.3e5 steps, 1.6e8 cell-steps.  Refused before the
        # integrator is built, and before the output directory is made
        monkeypatch.setattr(photonmem.simulator, "_Integrator", None)
        out = tmp_path / "x"
        assert main(["simulate", "--d", "3e4", "--out", str(out)]) == 2
        assert "1.61e+08 cell-steps exceed the budget of 1e+08" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        (["simulate", "--d", "1e6"], ""),
        (["simulate"], "input_n = 1\n"),
        (["optimal-spinwave", "--d", "10000"], "gauss_nodes = 50\n"),
    ], ids=["work-budget", "one-sample", "under-resolved"])
    def test_refused_run_leaves_no_directory(self, tmp_path, argv, config):
        # the output directory is made with the first file written
        cfg = tmp_path / "n.cfg"
        cfg.write_text(config)
        out = tmp_path / "x"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_output_directory_that_cannot_be_made_is_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["optimal-spinwave", "--d", "1", "--out", str(blocker / "x")]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_under_resolved_grid_is_two(self, tmp_path):
        cfg = tmp_path / "n.cfg"
        cfg.write_text("gauss_nodes = 50\n")
        rc = main(["optimal-spinwave", "--config", str(cfg), "--d", "10000",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["simulate", "iterate"])
    def test_depth_list_is_one(self, tmp_path, command, capsys):
        # both commands model a single medium; extra depths are refused, not dropped
        out = tmp_path / "x"
        assert main([command, "--d", "1,10", "--out", str(out)]) == 1
        assert "'d'" in capsys.readouterr().err
        assert not any(out.glob("*_summary.json"))

    @pytest.mark.parametrize("command", ["optimal-spinwave", "shape-controls"])
    @pytest.mark.parametrize("depths", ["10,10", "1.0000001,1.0000002"])
    def test_depths_sharing_a_file_are_one(self, tmp_path, command, depths, capsys):
        # per-depth CSVs are named with 6 significant digits; depths that agree
        # to that many would overwrite each other's file
        out = tmp_path / "x"
        assert main([command, "--d", depths, "--out", str(out)]) == 1
        assert "'d'" in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_failed_sweep_point_is_two(self, tmp_path, monkeypatch):
        real_point = cli._curve_point

        def flaky(task):
            if task[0] == 1.0:
                raise RuntimeError("injected failure")
            return real_point(task)

        monkeypatch.setattr(cli, "_curve_point", flaky)
        out = tmp_path / "c"
        rc = main([
            "curves", "--d-min", "1", "--d-max", "20", "--d-points", "3", "--jobs", "1",
            "--out", str(out),
        ])
        assert rc == 2
        results = json.loads((out / "curves_summary.json").read_text())["results"]
        assert [r["d"] for r in results] == pytest.approx([1.0, np.sqrt(20.0), 20.0])
        assert [("error" in r) for r in results] == [True, False, False]
        assert "injected failure" in results[0]["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [k for k, (cast, _) in _KEY_SPECS.items() if cast is float])
    def test_non_finite_float_key_is_one(self, tmp_path, key, value, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "x"
        assert main(["iterate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 3\n")
        out = tmp_path / "o"
        assert main(["optimal-spinwave", "--config", str(cfg), "--d", "7", "--out", str(out)]) == 0
        summary = json.loads((out / "optimal_spinwave_summary.json").read_text())
        assert summary["results"][0]["d"] == 7.0


# the --flags each command takes, besides --config and --out, which all take;
# a command takes a flag only if it reads the key
_OWN_FLAGS = {
    "optimal-spinwave": {"--d": "2"},
    "shape-controls": {"--d": "2", "--delta": "0", "--input-T": "10"},
    "curves": {"--delta": "0", "--jobs": "1", "--d-min": "1", "--d-max": "2", "--d-points": "2",
               "--input-T": "10"},
    "simulate": {"--d": "2", "--delta": "0", "--input-T": "10", "--control": "0:1",
                 "--retrieve": "none"},
    "iterate": {"--d": "2", "--delta": "0", "--tol": "1e-6", "--init": "flat", "--seed": "0",
                "--omega": "0"},
}


@pytest.mark.parametrize("command", list(_OWN_FLAGS))
def test_every_summary_has_one_envelope_and_its_own_flags(tmp_path, command):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("gauss_nodes = 60\nn_zeta = 64\ninput_T = 10\ninput_n = 401\ntol = 1e-6\n")
    own = [arg for flag, value in _OWN_FLAGS[command].items() for arg in (flag, value)]
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), *own, "--out", str(out)])
    assert rc == 0
    name = f"{command.replace('-', '_')}_summary.json"
    assert [p.name for p in out.glob("*_summary.json")] == [name]
    summary = json.loads((out / name).read_text())
    assert sorted(summary) == ["command", "metadata", "params", "results"]
    assert summary["command"] == command
    assert summary["metadata"] == {
        "version": photonmem.__version__,
        "grids": {"gauss_nodes": 60, "n_zeta": 64, "input_T": 10.0, "input_n": 401},
        "tolerances": {"tol": 1e-6},
    }
    # another command's own flag is refused before anything runs
    for flags in _OWN_FLAGS.values():
        for flag, value in flags.items():
            if flag not in _OWN_FLAGS[command]:
                assert main([command, flag, value, "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", list(_OWN_FLAGS))
def test_each_command_reads_every_flag_it_takes(tmp_path, monkeypatch, command):
    # a flag the command never reads would be accepted and silently ignored
    read, watched = set(), []
    real = cli._COMMANDS[command]

    def getattribute(self, name):
        if watched and self is watched[0]:
            read.add(name)
        return object.__getattribute__(self, name)

    def recorded(cfg):
        # only the command's reads of its own config: not main's validation or
        # metadata, nor a config that the command builds for itself
        watched.append(cfg)
        try:
            return real(cfg)
        finally:
            watched.clear()

    monkeypatch.setattr(RunConfig, "__getattribute__", getattribute)
    monkeypatch.setitem(cli._COMMANDS, command, recorded)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("d = 2\ngauss_nodes = 60\nn_zeta = 64\ninput_T = 10\ninput_n = 401\n"
                   "d_min = 1\nd_max = 2\nd_points = 2\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    flags = set(vars(cli._build_parser().parse_args([command]))) - {"command", "config"}
    assert flags - read == set()


def test_parser_built_once_per_process(tmp_path):
    # two calls share one parser and write the same summary
    cli._build_parser.cache_clear()
    for name in ("a", "b"):
        assert main(["optimal-spinwave", "--d", "3", "--out", str(tmp_path / name)]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    first, second = ((tmp_path / name / "optimal_spinwave_summary.json").read_bytes()
                     for name in ("a", "b"))
    assert first == second
