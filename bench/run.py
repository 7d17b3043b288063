"""Run one benchmark workload against the package in ``src/`` of this checkout.

    python3 bench/run.py --workload {design,verify,session} --seed N \
        --seconds S --trace {0,1} [--tiny]

The load is a closed loop with one caller: the next op starts when the
previous one returns.  Ops are timed here, outside the package, and each
answer is checked afterwards (untimed) against the acceptance suite's
bounds.  ``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs
the same ops twice, first untraced and then traced, and reports the
per-layer metrics and the tracing overhead between the two passes.
``--tiny`` shrinks every workload for the smoke test.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it is
the full report: environment, every end-to-end metric including
``fail_frac``, the tail percentile and sample counts, failed ops with the
checks they failed, and the numeric fingerprints.  The report and the spans
of a traced run are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
MIN_OPS = 4  # so the fingerprint prefix always exists
FINGERPRINT_OPS = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_package():
    """Import ``photonmem`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "photonmem" / "__init__.py").is_file():
        raise SystemExit(f"error: no photonmem package under {src}")
    sys.path.insert(0, str(src))
    # The package imports these lazily on first use; importing them here
    # keeps that one-off cost in set-up instead of in the first timed op.
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    import photonmem

    if Path(photonmem.__file__).resolve().parent != (src / "photonmem").resolve():
        raise SystemExit(f"error: imported photonmem from {photonmem.__file__}, not {src}")
    return photonmem


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip()
            for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_op(wl, i: int, tracer=None) -> dict:
    op = wl.op(i)
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as exc:  # a failed op is recorded, and the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    if error is None:
        try:
            failed, fingerprint = wl.check(op, out)
        except Exception as exc:  # a malformed answer fails its check
            failed, fingerprint = [f"check raised {type(exc).__name__}: {exc}"], {}
    else:
        failed, fingerprint = [f"op raised {error}"], {}
    return {"op": i, "kind": op.kind, "input": op.label, "seconds": seconds,
            "failed": failed, "fingerprint": fingerprint}


def timed_loop(wl, seconds: float, max_ops: int | None) -> list:
    """Run ops until ``seconds`` of wall time have passed, then finish the
    workload's round in progress, so every run holds whole rounds and the
    same mix of op kinds."""
    records = []
    start = time.perf_counter()
    while True:
        done = len(records)
        if max_ops is not None and done >= max_ops:
            break
        if (done >= MIN_OPS and done % wl.ROUND_LEN == 0
                and time.perf_counter() - start >= seconds):
            break
        records.append(run_op(wl, done))
    return records


def tail_latency(latencies: list) -> tuple[float, int, int]:
    """Highest whole percentile with at least 10 samples beyond it (the
    minimum when there are 10 samples or fewer); returns value, percentile
    and the number of samples beyond it."""
    import numpy as np

    n = len(latencies)
    p = max(0, math.floor(100 * (n - 10) / n))
    value = float(np.percentile(latencies, p))
    return value, p, sum(1 for x in latencies if x > value)


def end_to_end(records: list, setup_s: float) -> dict:
    lat = [r["seconds"] for r in records]
    tail, pct, beyond = tail_latency(lat)
    failed = sum(1 for r in records if r["failed"])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "latency_tail_s": {"value": tail, "unit": "s", "percentile": pct,
                           "samples": len(lat), "samples_beyond": beyond},
        "throughput_ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
        "fail_frac": {"value": failed / len(lat), "unit": "1"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def fingerprint(records: list) -> dict:
    """Numbers the program computed, which repeat exactly for the same code
    and seed: a digest of the first ops, totals over the run, and every op."""
    ops = [{"op": r["op"], "kind": r["kind"], "input": r["input"], **r["fingerprint"]}
           for r in records]
    prefix = json.dumps(ops[:FINGERPRINT_OPS], sort_keys=True)
    summary = {"eta_max_per_d": {}, "eta_storage_predicted_simulated": [], "defect_max": 0.0,
               "rk4_steps": 0, "power_iterations": 0, "time_reversal_iterations": 0,
               "cli_bytes": 0}
    for f in ops:
        if "eta_max" in f:
            summary["eta_max_per_d"][repr(f["input"]["d"])] = f["eta_max"]
        summary["eta_max_per_d"].update(f.get("eta_max_per_d", {}))
        if "eta_storage" in f:
            summary["eta_storage_predicted_simulated"].append([f.get("eta_max"), f["eta_storage"]])
        summary["defect_max"] = max(summary["defect_max"], f.get("defect_max", 0.0))
        summary["rk4_steps"] += f.get("steps", 0)
        summary["power_iterations"] += f.get("power_iterations", 0)
        summary["time_reversal_iterations"] += f.get("time_reversal_iterations", 0)
        summary["cli_bytes"] += f.get("bytes", 0)
    return {"prefix_ops": min(len(ops), FINGERPRINT_OPS),
            "prefix_sha256": hashlib.sha256(prefix.encode()).hexdigest(),
            "summary": summary, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, one round")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    pm = import_package()
    import_s = time.perf_counter() - t0

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    kwargs = {"workdir": workdir} if args.workload == "session" else {}
    wl = WORKLOADS[args.workload](pm, args.seed, tiny=args.tiny, **kwargs)
    max_ops = wl.ROUND_LEN if args.tiny else None

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup_times = []
            for _ in range(1 if args.tiny else SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            setup_s = import_s + statistics.median(setup_times)

            if args.trace == 0:
                records = timed_loop(wl, args.seconds, max_ops)
                traced = []
            else:
                records = timed_loop(wl, args.seconds / 2, max_ops)
                tracer = Tracer()
                tracer.install(pm)
                try:
                    traced = [run_op(wl, r["op"], tracer) for r in records]
                finally:
                    tracer.uninstall()
                tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(records, setup_s)
    everything = records + traced
    failures = [{"op": r["op"], "pass": "traced" if k >= len(records) else "untraced",
                 "kind": r["kind"], "input": r["input"], "failed": r["failed"]}
                for k, r in enumerate(everything) if r["failed"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "end_to_end": e2e,
        "failures": failures,
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        "fingerprint": fingerprint(records),
    }
    if args.trace == 0:
        # fail_frac is 0 on a correct program, so it travels as ``failed``
        # and ``attempted`` on the last line instead of as a metric.
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in e2e.items() if k != "fail_frac"}
    else:
        per_op = {r["op"]: r["seconds"] for r in traced}
        plain = sum(r["seconds"] for r in records)
        layers = layer_metrics(
            tracer.spans, per_op,
            {r["op"]: r["fingerprint"].get("bytes", 0) for r in traced})
        layers["trace.overhead_frac"] = ((sum(per_op.values()) - plain) / plain, "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["per_layer"] = metrics
        traced_fp = fingerprint(traced)
        report["traced_fingerprint_matches"] = traced_fp["ops"] == report["fingerprint"]["ops"]
    report["op_seconds"] = [[r["op"], r["kind"], r["seconds"]] for r in everything]
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n",
                                                encoding="utf-8")
    del report["fingerprint"]["ops"], report["op_seconds"]  # kept in the result file
    print(json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": len(everything),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
