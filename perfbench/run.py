#!/usr/bin/env python3
"""rectree benchmark: one seeded workload per process, untraced or traced.

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload's job for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json (medians over the repeats).
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics.  Either way the outputs are checked afterwards, and
the last line of stdout is the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process, at most nproc at once.

Run it from a checkout of the repository: it imports rectree from
``src/`` next to this directory and refuses to run without it.
"""

import os

# Single-threaded numerics and the numpy kernel backend, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["RECTREE_BACKEND"] = "python"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, rectree; print(time.perf_counter() - t)"
)


def git_sha():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
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


def import_rectree():
    """Import the checkout's rectree; seconds taken, or None if it is missing."""
    src = ROOT / "src"
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import rectree
    except ImportError as exc:
        print(f"cannot import rectree from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(rectree.__file__).resolve().is_relative_to(src.resolve()):
        print(f"rectree imported from {rectree.__file__}, not {src}", file=sys.stderr)
        return None
    import spans  # noqa: F401  (imports every rectree module the jobs use)
    import workloads  # noqa: F401

    return time.perf_counter() - start


def import_seconds():
    """The import of numpy and rectree, timed in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


def metadata(args):
    import numpy
    import rectree.kernels

    return {
        "git_sha": git_sha(),
        "backend": rectree.kernels.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, workdir: Path):
    """Set up, time the job until ``--seconds`` have passed, then check outputs."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    gen_s, sample_s = [], []
    for _ in range(SETUP_REPEATS):
        cases = None  # free the previous inputs before drawing new ones
        t = time.perf_counter()
        if tracer:
            with tracer.installed():
                cases = workload.setup(args.seed)
            sample_s.append(sum(s.end - s.start for s in tracer.take() if s.name == "datagen.sample"))
        else:
            cases = workload.setup(args.seed)
        gen_s.append(time.perf_counter() - t)

    jobs, timed, walls, traced_walls, traced = [], [], [], [], []
    failed = attempted = 0
    try:
        # One untimed job first: the first job in a process runs cold.  Every
        # job starts from a collected heap, as in a fresh CLI process.
        attempted += 1
        gc.collect()
        jobs.append(workload.job(cases, workdir))
        start = time.perf_counter()
        while True:
            attempted += 1
            gc.collect()
            t = time.perf_counter()
            timed.append(workload.job(cases, workdir))
            walls.append(time.perf_counter() - t)
            if tracer:
                attempted += 1
                gc.collect()
                with tracer.installed():
                    t = time.perf_counter()
                    with tracer.span("job"):
                        jobs.append(workload.job(cases, workdir))
                    traced_walls.append(time.perf_counter() - t)
                traced.append(tracer.take())
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(walls)) > args.seconds:
                break
    except Exception:
        traceback.print_exc()
        failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not walls or (tracer and not traced):
        return None

    try:
        checks, counters, histogram = workloads.check(
            workload, cases, workdir, [j.digest for j in jobs + timed]
        )
    except Exception:
        traceback.print_exc()
        checks, counters, histogram = [("check pass ran", False)], {}, {}
    per_job = [spans.job_metrics(s) for s in traced]
    if per_job:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_job]
        checks.append(("traced work counts identical across repeats", all(c == counts[0] for c in counts)))
    for name, ok in checks:
        if not ok:
            print(f"CHECK FAILED: {name}", file=sys.stderr)
    attempted += len(checks)
    failed += sum(not ok for _, ok in checks)

    first = jobs[0]
    if tracer:
        # Work counts are identical across traced jobs (checked above).
        values = {
            k: v if isinstance(v, int) else statistics.median(m[k] for m in per_job)
            for k, v in per_job[0].items()
        }
        values.update(counters)
        values["datagen.sample_s"] = statistics.median(sample_s)
        values["baselines.kmeans_holdout_distortion"] = first.kmeans_holdout_distortion
        values["trace.job_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.job_s"] - statistics.median(walls)
        report = {"leaf_depth_histogram": histogram, "spans": spans.summary(traced[0])}
    else:
        import_s = [args.import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
        values = {
            "setup_s": statistics.median(import_s) + statistics.median(gen_s),
            "job_s": statistics.median(walls),
            "fit_s": statistics.median(j.fit_s for j in timed),
            "encode_mpts_per_s": statistics.median(j.holdout_points / j.encode_s / 1e6 for j in timed),
            "peak_rss_mb": peak_rss_mb,
            "holdout_distortion": first.holdout_distortion,
        }
        report = {"leaf_depth_histogram": histogram, "counters": counters}
    report["job_walls_s"] = walls
    report["error_rate"] = failed / attempted
    return values, report, attempted, failed


def run_one(args, spec):
    import_s = import_rectree()
    if import_s is None:
        return 2
    args.import_s = import_s
    root_tmp = ROOT / ".bench_tmp"
    root_tmp.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root_tmp))
    try:
        measured = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            root_tmp.rmdir()
        except OSError:
            pass  # another run still uses it
    if measured is None:
        print("no job completed", file=sys.stderr)
        return 1
    values, report, attempted, failed = measured

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"meta": metadata(args)}))
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']!r} {m['unit']}")
    print(f"{args.workload:16s} {'error_rate':40s} {report['error_rate']!r} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, names):
    """Every workload in its own process, at most nproc at once."""

    def child(name):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=900)

    with ThreadPoolExecutor(max_workers=min(len(names), os.cpu_count() or 1)) as pool:
        done = list(pool.map(child, names))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name, proc in zip(names, done):
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = m
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
