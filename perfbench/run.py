"""Time-to-certified-design benchmark for ilc-sos.

    python3 perfbench/run.py --workload paper_robust --seed 0 --seconds 40 --trace 0

runs one workload from the package source in ``src/`` of this checkout and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` runs the workload once untraced and once with
spans around every layer boundary and reports the per-layer metrics.
``--workload all`` runs every workload in its own process and prints a
table.  Outputs (environment, per-design records, attempt chains) go to
``perfbench/out/``.  See README.md next to this file.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before anything can load numpy: the thread count
# moves the IPM trajectory, so runs are only comparable at a fixed count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("paper_robust", "lifted_fallback", "nominal_sweep")
SETUP_REPEATS = 9       # set-up is timed in fresh processes; the median is reported
CHILD_TIMEOUT_S = 170


def _load_package() -> None:
    """Import ilc_sos from this checkout's src/, or exit non-zero."""
    pkg = SRC / "ilc_sos"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found at {pkg}")
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy was loaded before the BLAS threads were pinned")
    sys.path.insert(0, str(SRC))
    import ilc_sos
    if Path(ilc_sos.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported ilc_sos from {ilc_sos.__file__}, not {pkg}")


def _environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "numpy": np.__version__, "blas": blas,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def _time_setup(args) -> float:
    """Time from spawning a fresh process until it has imported the package
    and built the workload's inputs, i.e. everything before the first design
    starts.  The child prints when it finished on the system-wide monotonic
    clock; waiting for its exit instead would add teardown and the 50 ms
    polling steps of a wait with a timeout."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, check=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - t0


def _run_pass(designs, tracer=None) -> tuple:
    """Run every design once, in order; returns (wall, per-design records)."""
    records = []
    t_pass = time.perf_counter()
    for d in designs:
        rec = {"design": d.label}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rec["gamma"] = d.run()
            else:
                with tracer.span("design", label=d.label):
                    rec["gamma"] = d.run()
            rec["ok"] = True
        except Exception as exc:  # a failed design is counted, the run goes on
            rec.update(ok=False, refuted=getattr(exc, "refuted", False),
                       error=f"{type(exc).__name__}: {exc}",
                       traceback=traceback.format_exc())
        rec["seconds"] = time.perf_counter() - t0
        records.append(rec)
    return time.perf_counter() - t_pass, records


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    _load_package()
    import workloads
    import tracing

    # set-up time is an end-to-end metric, so a traced run skips it
    setups = [] if args.trace else [_time_setup(args) for _ in range(SETUP_REPEATS)]
    env = _environment(args)

    # every pass gets fresh inputs: the plant objects cache their stability
    # screen, which would otherwise run in the first pass only
    def inputs():
        return workloads.build(args.workload, args.seed, args.smoke)

    # warm-up, untimed and unchecked: the minimal designs of the workload
    # take the first-call costs (lazy imports, allocator growth) out of
    # the first timed pass
    if not args.smoke:
        _run_pass(workloads.build(args.workload, args.seed, smoke=True))

    # untraced passes fill the run: another pass starts only while it is
    # expected to end within --seconds; a traced run adds one traced pass
    walls, records = [], []
    t_start = time.perf_counter()
    while not walls or (time.perf_counter() - t_start + statistics.median(walls)
                        <= args.seconds and not args.trace):
        wall, recs = _run_pass(inputs())
        walls.append(wall)
        records += recs
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced_wall, traced_recs = _run_pass(inputs(), tracer)
        finally:
            tracer.unpatch()
        records += traced_recs

    failed = [r for r in records if not r["ok"]]
    gammas = [r["gamma"] for r in records if r["ok"]]
    times = [r["seconds"] for r in records]
    wall_s = statistics.median(walls)
    # per-design percentiles are reported, not declared: on a workload of
    # three or four designs they are single samples, too noisy for a bound
    summary = {
        "fail_frac": len(failed) / len(records),
        "design_p50_s": statistics.median(times),
        "design_p90_s": _p90(times),
        "designs": len(records),
        "passes": len(walls),
        "setup_runs_s": setups,
    }
    if args.trace:
        metrics = {k: _metric(v, u) for k, (v, u) in tracing.layer_metrics(tracer).items()}
        metrics["trace_overhead_frac"] = _metric(traced_wall / wall_s - 1.0, "1")
        design_s = sum(s.dur for s in tracer.spans if s.name == "design")
        summary.update(traced_wall_s=traced_wall, untraced_wall_s=wall_s,
                       top_level_coverage=design_s / traced_wall,
                       missing_names=tracer.missing)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(wall_s, "s"),
            "gamma_mean": _metric(statistics.fmean(gammas) if gammas else float("nan"), "1"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run.json", "w") as fh:
        json.dump({"environment": env, "summary": summary, "metrics": metrics,
                   "designs": records}, fh, indent=1)
    if tracer is not None:
        with open(out_dir / "attempts.json", "w") as fh:
            json.dump({"environment": env, "solves": tracing.attempt_chains(tracer)}, fh)

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in failed:
        print(f"FAILED {r['design']}: {r['error']}")
    print(f"designs {len(records)}  failed {len(failed)}  "
          f"fail_frac {summary['fail_frac']:.4f}  output {out_dir.relative_to(ROOT)}")
    print(f"per design (n = {len(records)}): p50 {summary['design_p50_s']:.6g} s  "
          f"p90 {summary['design_p90_s']:.6g} s")
    if args.trace:
        print(f"top-level spans cover {summary['top_level_coverage']:.4f} of traced wall; "
              f"missing names: {tracer.missing or 'none'}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    # an uncertified design is a failed operation; only a refuted one is wrong
    return {"correct": not any(r["refuted"] for r in failed),
            "attempted": len(records), "failed": len(failed), "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {w} exited with {proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        print(f"== {w}", *lines, sep="\n")
        res = json.loads(last)
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="run untraced passes for about this long (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal size: one design or plant per workload (four nominal)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _load_package()
        import workloads
        workloads.build(args.workload, args.seed, args.smoke)
        print(time.monotonic())
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
