"""HYDRA regeneration benchmark: one command, every metric, checked outputs.

Usage (from the repository root):

    python3 hydrabench/run.py                       # every workload, a table
    python3 hydrabench/run.py --workload wlc-lp --seed 3 --seconds 20 --trace 0
    python3 hydrabench/run.py --workload wlc-lp --trace 1      # per-layer run
    python3 hydrabench/run.py --workload wlc-lp --workload-seed 103  # held out

With ``--workload`` the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones. Each workload runs in a
process of its own, so ``peak_rss_mb`` is per workload. ``--seconds`` is
how long the timed rounds repeat (at least ``spec.MIN_ROUNDS`` of them).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import (  # noqa: E402
    END_TO_END, PER_LAYER, SPARK_CONF, SPARK_DRIVER_MEMORY, SPARK_JAVA_OPTIONS, WORKLOADS,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCH["run_seconds"]
#: The end-to-end metrics in the result object: those BENCHMARK.json gates.
#: The report prints every metric of ``spec.END_TO_END``.
GATED = [m["name"] for m in BENCH["end_to_end"]]


def measure(spec, seed: int, seconds: float, trace: bool, workload_seed: int | None = None):
    """Run one workload; return (result object, report lines)."""
    sys.path.insert(0, str(ROOT / "src"))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=tmp_root))
    saved_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    import pipeline
    from spans import NoTracer, Tracer

    run_id = f"{spec.name}-seed{seed}-{os.getpid()}"
    tracer = Tracer(run_id) if trace else NoTracer()
    run = pipeline.Run(spec, seed, workload_seed, tracer, tmp, traced=trace)
    pipeline.spark_env(tmp)
    try:
        run.setup()
        if trace:
            from layers import per_layer

            with tracer.patched(), tracer.span("run"):
                deterministic = run.stages(seconds)
            layer_values, detail = per_layer(run, tracer)
        else:
            deterministic = run.stages(seconds)
    finally:
        t0 = time.perf_counter()
        if run.spark is not None:
            pipeline.stop_spark(run.spark)
        run.info["spark_stop_s"] = round(time.perf_counter() - t0, 3)
        tempfile.tempdir = None
        if saved_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only if no other run is using it

    conf = dict(SPARK_CONF, **{"spark.driver.memory": SPARK_DRIVER_MEMORY})
    counts = {k: run.info[k] for k in (
        "ccs", "raw_ccs", "lp_vars", "summary_rows", "extra_tuples", "cc_neg_errs",
        "supplied_tuples", "rounds", "datasynth_ccs", "datasynth_dropped_views")}
    phases = {k: run.info[k] for k in ("prepare_s", "oracle_check_s", "warmup_s", "rounds_s",
                                       "spark_stop_s") if k in run.info}
    report = [
        f"workload {spec.name}: seed {seed}, query seed {run.workload_seed}, trace {int(trace)}",
        "spark: " + ", ".join(f"{k}={v}" for k, v in conf.items())
        + "; JVM: " + " ".join(SPARK_JAVA_OPTIONS),
        "setup: " + ", ".join(f"{k} {v:.4f}" for k, v in run.setup_parts.items())
        + f"; other phases: {phases}",
        "deterministic counts: " + json.dumps(counts),
        "stage samples: " + ", ".join(
            f"{k} n={len(v)} median={statistics.median(v):.4f} max={max(v):.4f}"
            for k, v in run.samples.items()),
    ]
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{run_id}.json")
        report += detail
        names, values, out = PER_LAYER, layer_values, list(PER_LAYER)
    else:
        names, out = END_TO_END, GATED
        values = {k: statistics.median(run.samples[k]) for k in (
            "aqp_s", "regen_s", "datasynth_s",
            "gen_rows_per_s", "materialize_rows_per_s", "scan_rows_per_s")}
        values["setup_s"] = run.setup_s
        values["peak_rss_mb"] = pipeline.peak_rss_mb()
        values.update(deterministic)
    report.append(f"{'metric':32s} {'value':>16s} unit       better gated")
    report += [f"{n:32s} {values[n]:16.6g} {meta[0]:10s} {meta[1]:6s} {'yes' if n in out else 'no'}"
               for n, meta in names.items()]
    failed = len(run.checks.failed)
    result = {
        "correct": failed == 0,
        "attempted": run.checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": names[k][0]} for k in out},
    }
    return result, report


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    result, report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), args.workload_seed)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process; one table of every metric."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.workload_seed is not None:
            cmd += ["--workload-seed", str(args.workload_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    names = PER_LAYER if args.trace else END_TO_END
    print(f"\n{'metric':32s} {'unit':9s} {'better':6s} " + " ".join(f"{w:>15s}" for w in WORKLOADS))
    for metric in (PER_LAYER if args.trace else GATED):
        meta = names[metric]
        cells = [
            f"{results[w]['metrics'][metric]['value']:15.6g}" if w in results else f"{'-':>15s}"
            for w in WORKLOADS
        ]
        print(f"{metric:32s} {meta[0]:9s} {meta[1]:6s} " + " ".join(cells))
    for w, r in results.items():
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the permutation of the client database")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="how long the timed rounds repeat")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload-seed", type=int, default=None,
                   help="query-generator seed (default: the generator's own)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
