"""Benchmark of the simplicial CLI and library: time to verdict on generator-built workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client runs the workload's job list in a closed loop, one job at a
time, in this process.  CLI jobs call ``simplicial.cli.main(argv)`` with
stdout captured; library jobs read a facet file and compute Betti numbers.
Every job parses its facet file afresh.  Between jobs, outside the timed
region, the heap is cleaned up and the reference task (reference.py) is
timed once.  Whole passes over the job list repeat until the
next one would end after ``--seconds`` (at least one pass); pass ``p`` runs
the jobs on relabelled copy ``p % workloads.COPIES`` of the instances.
Each job's output is checked against answers known from theory, and a
report that differs from the same job's report in an earlier pass over the
same copy counts as a failure.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then one traced pass over copy 0, checks that both print
identical reports, and prints per-layer metrics derived from spans around
the package's public functions (see spans.py).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import reference
import workloads
from spans import Tracer, per_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7

# The metrics BENCHMARK.json gates on, then those printed only.  On a
# shared machine the speed of a core swings by up to a factor of two for
# minutes at a time, so times in seconds follow the neighbours' load more
# than the program.  The gated pass and job times are therefore divided by
# the median time of the reference task (reference.py) run before every
# job; README.md has the figures.  The same times in seconds are printed
# beside them.  failed_frac is 0 at a sound commit; the result line carries
# attempted and failed instead.
END_TO_END = (
    ("setup_s", "s"),
    ("mix_ref", "ref"),
    ("job_max_ref", "ref"),
    ("peak_rss_mb", "MiB"),
)
PRINTED_ONLY = (
    ("mix_s", "s"),
    ("job_s_max", "s"),
    ("job_s_p50", "s"),
    ("ref_s", "s"),
    ("failed_frac", "ratio"),
)


def _import_package():
    """Import simplicial from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "simplicial" or n.startswith("simplicial.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import simplicial
    import simplicial.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(simplicial.__file__))) != SRC:
        raise ImportError(f"simplicial was imported from {simplicial.__file__}, not from {SRC}")
    return simplicial


def _git_sha() -> str:
    """Commit of the checkout, read without running git; "unknown" outside a work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _run_job(simplicial, job):
    """Run one job; return (seconds, exit code, output text or exception)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            if job.argv is not None:
                rc = simplicial.cli.main(job.argv)
                text = out.getvalue()
            else:
                cx = simplicial.read_complex_file(job.inst.path)
                betti = simplicial.reduced_betti_numbers(cx, simplicial.FieldSpec.parse(job.field))
                rc, text = 0, json.dumps(list(betti.values))
        except Exception as exc:  # a job that raises is a failed job, not a crash
            t1 = perf_counter()
            return t1 - t0, None, "".join(traceback.format_exception(exc))
        t1 = perf_counter()
    return t1 - t0, rc, text


def _check(job, rc, text) -> str | None:
    if rc is None:
        return f"raised: {text.strip().splitlines()[-1]}"
    try:
        return job.check(rc, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report ({type(exc).__name__}: {exc})"


class Pass:
    """Job times, reference times and report texts of one pass over a job list."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.texts: list[str] = []
        self.errors: list[str | None] = []

    @property
    def mix_s(self) -> float:
        return sum(self.times)


def run_pass(simplicial, jobs, tracer=None) -> Pass:
    p = Pass()
    for i, job in enumerate(jobs):
        gc.collect()
        p.refs.append(reference.timed())
        if tracer is not None:
            tracer.job_id = i
        secs, rc, text = _run_job(simplicial, job)
        p.times.append(secs)
        p.texts.append(text)
        p.errors.append(_check(job, rc, text))
    gc.collect()
    return p


def _compare(reference: Pass, other: Pass, what: str) -> None:
    """Mark jobs whose report differs from the reference pass."""
    for i, (a, b) in enumerate(zip(reference.texts, other.texts)):
        if a != b and other.errors[i] is None:
            other.errors[i] = f"report differs from {what}"


def _report_failures(rounds, passes) -> int:
    failed = 0
    for n, p in enumerate(passes):
        for job, err in zip(rounds[n % len(rounds)], p.errors):
            if err is not None:
                failed += 1
                print(f"FAILED pass {n} {job.label}: {err}")
    return failed


def _setup(workload, seed, workdir):
    """Import the package and build the workload; return its parts and the time taken."""
    t0 = perf_counter()
    simplicial = _import_package()
    rounds, sizes = workloads.setup(simplicial, workload, seed, workdir)
    return simplicial, rounds, sizes, perf_counter() - t0


def _line(name, value, unit, samples):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} (n={samples})")


def run_workload(args) -> int:
    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        simplicial, rounds, sizes, setup_secs = _setup(args.workload, args.seed, workdir)
        info = {
            "workload": args.workload, "seed": args.seed, "git_sha": _git_sha(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "jobs_per_pass": len(rounds[0]), "copies": len(rounds), "instances": sizes,
        }
        print("info " + json.dumps(info, sort_keys=True))
        if args.trace:
            return _traced(args, simplicial, rounds[0])
        return _untraced(args, simplicial, rounds, setup_secs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(args, simplicial, rounds, setup_secs, workdir) -> int:
    """Time passes for --seconds, repeating the set-up at even intervals in between.

    Each repeat imports the package afresh and rewrites the same files; the
    passes after it use the new import.  Spreading the set-ups over the run
    keeps their median from resting on one short stretch of machine speed.
    """
    passes = []
    setup_samples = [setup_secs]
    t0 = perf_counter()
    while True:
        passes.append(run_pass(simplicial, rounds[len(passes) % len(rounds)]))
        elapsed = perf_counter() - t0
        if elapsed + passes[-1].mix_s > args.seconds:
            break
        if len(setup_samples) < SETUP_REPEATS and elapsed >= len(setup_samples) * args.seconds / SETUP_REPEATS:
            simplicial, _, _, secs = _setup(args.workload, args.seed, workdir)
            setup_samples.append(secs)
    for n, p in enumerate(passes[len(rounds):], len(rounds)):
        _compare(passes[n % len(rounds)], p, f"pass {n % len(rounds)}")
    failed = _report_failures(rounds, passes)
    attempted = len(rounds[0]) * len(passes)
    all_times = [t for p in passes for t in p.times]
    refs = [r for p in passes for r in p.refs]
    ref_s = statistics.median(refs)
    mix_s = statistics.median(p.mix_s for p in passes)
    # the jobs at one index run the same command on the same instance in every copy
    job_s_max = max(statistics.median(p.times[i] for p in passes) for i in range(len(rounds[0])))
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "mix_ref": (mix_s / ref_s, len(passes)),
        "job_max_ref": (job_s_max / ref_s, len(passes)),
        "mix_s": (mix_s, len(passes)),
        "job_s_max": (job_s_max, len(passes)),
        "job_s_p50": (statistics.median(all_times), len(all_times)),
        "ref_s": (ref_s, len(refs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "failed_frac": (failed / attempted, attempted),
    }
    print(f"workload {args.workload}: {len(passes)} pass(es) of {len(rounds[0])} jobs "
          f"over {len(rounds)} relabelled copies")
    for name, unit in END_TO_END + PRINTED_ONLY:
        _line(name, values[name][0], unit, values[name][1])
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END},
    }
    print(json.dumps(result))
    return 0


def _traced(args, simplicial, jobs) -> int:
    plain = run_pass(simplicial, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(simplicial, jobs, tracer)
    finally:
        tracer.uninstall()
    _compare(plain, traced, "the untraced pass")
    failed = _report_failures([jobs], [plain, traced])
    metrics, problems = tracer.summarize()
    for msg in problems:
        print(f"FAILED trace: {msg}")
    metrics["trace.untraced_mix_s"] = plain.mix_s
    metrics["trace.traced_mix_s"] = traced.mix_s
    metrics["trace.overhead_s"] = traced.mix_s - plain.mix_s
    trace_path = os.path.join(HERE, "out", f"trace-{args.workload}.jsonl.gz")
    header = {"workload": args.workload, "seed": args.seed, "jobs": [job.label for job in jobs]}
    tracer.write_jsonl(trace_path, header)
    print(f"workload {args.workload}: traced pass of {len(jobs)} jobs, "
          f"{metrics['trace.spans']} spans written to {os.path.relpath(trace_path, ROOT)}")
    units = dict(per_layer_names())
    for name, unit in units.items():
        _line(name, metrics[name], unit, 1)
    top = sorted((n for n in units if n.endswith(".self_s")), key=lambda n: -metrics[n])[:5]
    print("dominant layers by self time: " + ", ".join(f"{n[:-7]} {metrics[n]:.3f}s" for n in top))
    inner = [n for n in units if n.endswith(".total_s") and not n.startswith(("cli.", "formats."))]
    top = sorted(inner, key=lambda n: -metrics[n])[:5]
    print("dominant layers by time of outermost spans: "
          + ", ".join(f"{n[:-8]} {metrics[n]:.3f}s" for n in top))
    attempted = 2 * len(jobs)
    result = {
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own fresh process, and print all metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            child = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            child = None
        if child is None:
            print(f"workload {name} failed (exit {proc.returncode}):\n{proc.stderr}")
            total["correct"] = False
            status = 1
            continue
        total["correct"] = total["correct"] and child["correct"]
        total["attempted"] += child["attempted"]
        total["failed"] += child["failed"]
        for metric, entry in child["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    if total["failed"] or not total["correct"]:
        status = 1
    print(f"all workloads: attempted {total['attempted']}, failed {total['failed']}, "
          f"failed_frac {total['failed'] / max(total['attempted'], 1):.6g}")
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = ["all", *workloads.WORKLOADS, *workloads.EXTRA_WORKLOADS]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
