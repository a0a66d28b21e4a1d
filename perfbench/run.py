"""Benchmark of the innerorbit command-line entry point on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One caller in one process runs the
workload's op in a closed loop (the next op starts when the last one has
finished) for S seconds, calling ``innerorbit.cli.run_cli`` in-process with
``src`` on the path, checks the outputs outside the timed ops, and prints
one JSON line: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
the per-layer metrics, taken from every second op, which runs traced, and
the tracing overhead against the untraced ops in between. Files go to
``.perfbench_out/<workload>/``, including the run record and, when traced,
the spans. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# one BLAS/OpenMP thread: the benchmark is one caller in one process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: set-up repetitions per run, spread evenly over it; setup_s is their upper
#: quartile, which like op_s_tail sits in the machine's usual slow state
#: (the median flips with the share of fast spells in a run)
SETUP_REPEATS = 7


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'. Git
    does not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class SetUp:
    """Repetitions of the workload's set-up. One repetition is a fresh
    interpreter importing numpy and the entry point (the start-up cost every
    user of the command pays), then input generation and the set-up
    constructions in this process."""

    def __init__(self, workload, inputs, out, cli):
        self.workload, self.inputs, self.out, self.cli = workload, inputs, out, cli
        self.times: list = []

    def __call__(self):
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
                "import numpy, innerorbit.cli")
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        t1 = perf_counter()
        prepared = wl.prepare(self.workload, self.inputs,
                              self.out / f"setup{len(self.times)}", self.cli)
        self.times.append((t1 - t0, perf_counter() - t1))
        return prepared

    def seconds(self) -> float:
        imports, constructions = zip(*self.times)
        return (statistics.quantiles(imports, n=4)[2]
                + statistics.quantiles(constructions, n=4)[2])


def tail_stat(samples):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_loop(cli, prepared, seconds, tracer=None, chore=None, chores=0):
    """Closed loop of ops for ``seconds`` of op time. With a tracer, every
    second op runs with the spans installed, so traced and untraced ops
    share the machine's conditions. ``chore`` is called ``chores`` times
    between ops, evenly spread over the run, and its time is added to the
    run. Returns (untraced op durations, traced op durations, exit codes per
    op, failed ops, report bytes of the first op)."""
    durations = {False: [], True: []}
    codes, failed, expected = [], 0, None
    start = perf_counter()
    deadline = start + seconds
    done = 0
    op = 0
    while True:
        traced = tracer is not None and op % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op(op)
        try:
            t0 = perf_counter()
            if traced:
                results = [tracer.call("cli.run", cli.run_cli, (r.argv(),), {})
                           for r in prepared.runs]
            else:
                results = [cli.run_cli(r.argv()) for r in prepared.runs]
            durations[traced].append(perf_counter() - t0)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results = None
        finally:
            if traced:
                tracer.end_op()
                tracer.uninstall()
        op += 1
        reports = [r.report.read_bytes() for r in prepared.runs] if results else None
        if results is None or any(c not in (0, 2) for c in results):
            failed += 1
        elif expected is None:
            expected = reports
        elif reports != expected:
            raise wl.CheckFailed("reports of repeated ops on the same input differ")
        codes.append(results)
        finished = perf_counter() >= deadline and (tracer is None or durations[True])
        while done < chores and (
                finished or perf_counter() - start >= seconds * (done + 1) / (chores + 1)):
            t0 = perf_counter()
            chore()
            deadline += perf_counter() - t0
            done += 1
        if finished:
            return durations[False], durations[True], codes, failed, expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "innerorbit").is_dir():
        print(f"no innerorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from innerorbit import automorphisms, cli, engine, holo

    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    set_up = SetUp(args.workload, wl.Inputs.from_seed(args.seed), out, cli)
    prepared = set_up()

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer(cli, engine, automorphisms, holo)
    durations, traced, codes, failed, expected = run_loop(
        cli, prepared, args.seconds, tracer, set_up, SETUP_REPEATS - 1)

    if expected is None:
        raise wl.CheckFailed("no op completed")
    reports = [json.loads(b) for b in expected]
    work_per_op = prepared.check(cli, prepared.runs, reports)

    runs = [c for op in codes if op for c in op]
    ok_runs = sum(1 for c in runs if c == 0)
    op_p50 = statistics.median(durations)
    tail, tail_pct, count = tail_stat(durations)
    work_per_s = work_per_op * len(durations) / sum(durations)
    end_to_end = {
        "setup_s": (set_up.seconds(), "s"),
        "op_s_tail": (tail, "s"),
        "work_per_op": (work_per_op, "count"),
        "success_ratio": (ok_runs / len(runs) if runs else 0.0, "ratio"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "setup_repeats_s": set_up.times,
        "op_s_p50": op_p50,
        prepared.throughput: work_per_s,
        "op_s_tail_percentile": tail_pct,
        "op_count": count,
        "runs_per_op": len(prepared.runs),
        "runs_attempted": len(runs),
        "runs_exit_nonzero": len(runs) - ok_runs,
        "fail_ratio": (len(runs) - ok_runs) / len(runs) if runs else 0.0,
        "ops_failed": failed,
        "op_durations_s": durations,
        "report_sha256": [hashlib.sha256(b).hexdigest() for b in expected],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if tracer is not None:
        metrics = layer_metrics(tracer.per_op())
        metrics["bench.trace_overhead_s"] = (statistics.median(traced) - op_p50, "s")
        record["traced_op_s_p50"] = statistics.median(traced)
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        tracer.write(out / "spans.jsonl")
    else:
        metrics = end_to_end
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"{args.workload} seed={args.seed} sha={record['git_sha'][:12]} "
        f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']}: "
        f"{len(codes)} ops, {record['runs_exit_nonzero']} of "
        f"{len(runs)} runs exited non-zero, op p50 {op_p50:.4f} s, "
        f"p{tail_pct:.0f} {tail:.4f} s, {prepared.throughput} {work_per_s:.6g}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(codes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except wl.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        sys.exit(1)
