"""rpens benchmark: one workload per run, closed loop, one client, threads=1.

    python3 perfbench/run.py --workload wide-qda-cli --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from a run that alternates untraced and traced iterations.  Every run also
writes a run record (and, when traced, its spans) under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads, metrics and checks.

The benchmark sets no ``*_NUM_THREADS`` variable and no program option: BLAS
threading is whatever the environment gives, and the run record notes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3


def load_spec():
    """Workload and metric names and units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": tuple(w["name"] for w in spec["workloads"]),
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(workload_names, argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec["workloads"], argv)
    if not (SRC / "rpens" / "__init__.py").is_file():
        print(f"benchmark: no rpens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    t0 = time.perf_counter()
    import workloads  # numpy, scipy and rpens: the import cost a user pays
    import_s = time.perf_counter() - t0
    import tracing

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    workdir = OUT / "work" / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, workloads, tracing, import_s, run_id, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workloads, tracing, import_s, run_id, workdir) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    # Set-up is repeated and its median reported, so one slow repeat does
    # not decide the figure; imports happen once per process.
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setup_samples.append(import_s + time.perf_counter() - t)

    tracer = tracing.Tracer() if args.trace else None
    samples = {"fit_s": [], "rep_s": [], "cpu_s": []}
    traced = {"rep_s": [], "layers": []}
    attempted = failed = 0
    i = 0
    start = time.perf_counter()
    # Closed loop: the next iteration starts when the previous one ends.
    # A round is one iteration, or one untraced plus one traced iteration.
    while i == 0 or time.perf_counter() - start < args.seconds:
        for traced_iteration in ((False, True) if tracer else (False,)):
            attempted += wl.ops_per_iteration
            c0 = time.process_time()
            try:
                if traced_iteration:
                    mark = tracer.mark()
                    tracer.install()
                    try:
                        with tracer.root("iteration"):
                            s = wl.iteration(i)
                    finally:
                        tracer.remove()
                    traced["rep_s"].append(s["rep_s"])
                    traced["layers"].append(tracing.layer_metrics(tracer.since(mark), mark))
                else:
                    s = wl.iteration(i)
                    for key in ("fit_s", "rep_s"):
                        samples[key].append(s[key])
                    samples["cpu_s"].append(time.process_time() - c0)
            except Exception:
                traceback.print_exc()
                failed += wl.ops_per_iteration
            i += 1
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, check_details = wl.check() if wl.runs else (["no iteration completed"], {})
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    correct = not failures

    e2e_samples = {
        "setup_s": setup_samples,
        "fit_s": samples["fit_s"],
        "simulate_rep_s": samples["rep_s"],
        "peak_rss_mb": [peak_rss_mb],
    }

    record = {
        "run_id": run_id,
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "import_s": import_s,
        "measured_s": measured_s,
        "iterations": i,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "check_failures": failures,
        "check_details": check_details,
        "digests": wl.digests() if wl.runs else {},
        "samples": {**e2e_samples, "cpu_s": samples["cpu_s"]},
    }

    if tracer:
        untraced_rep = median(samples["rep_s"])
        overhead = median(traced["rep_s"]) - untraced_rep
        # Median over the traced iterations of each per-layer value.
        layers = {k: median([it[k] for it in traced["layers"]]) for k in traced["layers"][0]}
        layers["process.cpu_s"] = median(samples["cpu_s"])
        layers["process.cpu_per_wall"] = median(
            [c / w for c, w in zip(samples["cpu_s"], samples["rep_s"])]
        )
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / untraced_rep
        metrics = {k: {"value": layers[k], "unit": u} for k, u in spec["per_layer"].items()}
        record["layers_per_iteration"] = traced["layers"]
        record["traced_rep_s"] = traced["rep_s"]
        spans_path = OUT / "runs" / f"{run_id}-spans.jsonl.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {k: {"value": median(e2e_samples[k]), "unit": u} for k, u in spec["end_to_end"].items()}
    record["metrics"] = metrics

    rec_path = OUT / "runs" / f"{run_id}.json"
    rec_path.parent.mkdir(parents=True, exist_ok=True)
    rec_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {i}  measured {measured_s:.1f} s  "
          f"BLAS threads env {record['environment']['thread_env'] or 'unset'}")
    if not args.trace:
        for key, values in e2e_samples.items():
            print(f"  {key:<22} median {median(values):.6g} {spec['end_to_end'][key]}  (n={len(values)})")
    else:
        for key, entry in metrics.items():
            print(f"  {key:<32} {entry['value']:.6g} {entry['unit']}  (median of {len(traced['layers'])} traced)")
    print(f"  operations attempted {attempted}  failed {failed}  checks {'passed' if correct else 'FAILED'}")
    for key, value in record["digests"].items():
        print(f"  digest {key} {value}")
    print(f"  record {rec_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
