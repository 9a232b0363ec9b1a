#!/usr/bin/env python3
"""qesolve benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 35 --trace 0

--trace 0 times the closed loop with nothing interposed and reports the
end-to-end metrics; --trace 1 runs the seed's input list once untraced and
once with timing wrappers on qesolve's cross-module names, and reports the
per-layer metrics.  Either way the outputs go through the oracle after the
timing is over.  A table of every metric (name, value, unit, sample count)
and the run's environment are printed first; the last line of stdout is
one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread for the oracle's numpy; set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROCESS_PROBES = 5
PROBE_TIMEOUT_S = 120.0
UNACCOUNTED_LIMIT = 0.02
TAIL = 75  # highest percentile with at least ten samples beyond it on every workload

E2E_UNITS = {
    "latency_ms.p50": "ms",
    f"latency_ms.p{TAIL}": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "fraction",
    "right_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("solve_sweep", "verify_small", "cli_mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
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
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# processes


def process_wall(bench, cmd, env=None) -> float:
    """Wall seconds of one child process, which must exit 0."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise bench.BenchAbort(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall


def setup_seconds(bench, workload: str, seed: int) -> list[float]:
    """Fresh processes that import qesolve, generate the inputs and finish the warm-up op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return [process_wall(bench, cmd) for _ in range(SETUP_PROBES)]


def process_probes(bench) -> tuple[float, float]:
    """Median ms of a bare interpreter start, and what `import qesolve` adds to it."""
    bare = [process_wall(bench, [sys.executable, "-c", "pass"], bench.CLI_ENV) for _ in range(PROCESS_PROBES)]
    loaded = [process_wall(bench, [sys.executable, "-c", "import qesolve"], bench.CLI_ENV) for _ in range(PROCESS_PROBES)]
    startup = statistics.median(bare)
    return 1e3 * startup, 1e3 * (statistics.median(loaded) - startup)


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the process doing the work: this one, or the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def untraced_run(bench, args, inputs, rows, problems):
    loop = bench.timed_loop(bench.RUNNERS[args.workload], inputs, args.seconds, bench.PASSES[args.workload])
    rss = peak_rss_mb(args.workload)
    setups = setup_seconds(bench, args.workload, args.seed)
    for i in loop.nondeterministic:
        problems.append(f"input {i} gave a different outcome when repeated")

    import oracle

    verdict = oracle.check_run(args.workload, inputs, loop.outcomes)
    problems.extend(verdict.problems)
    n_ops = len(loop.latencies)
    n_in = len(inputs)
    ok = sum(o.label == bench.OK for o in loop.outcomes)
    tail = bench.percentile(loop.latencies, TAIL)
    beyond = sum(t > tail for t in loop.latencies)
    metrics = {
        "latency_ms.p50": 1e3 * bench.percentile(loop.latencies, 50),
        f"latency_ms.p{TAIL}": 1e3 * tail,
        "ops_per_s": n_ops / loop.wall,
        "ok_frac": ok / n_in,
        "right_frac": 1.0 - verdict.wrong_frac,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    samples = {
        "latency_ms.p50": f"{n_ops} ops",
        f"latency_ms.p{TAIL}": f"{n_ops} ops, {beyond} beyond",
        "ops_per_s": f"{n_ops} ops in {loop.wall:.2f} s",
        "ok_frac": f"{ok}/{n_in} inputs",
        "right_frac": f"{verdict.levels - verdict.wrong}/{verdict.levels} levels",
        "setup_s": f"{SETUP_PROBES} processes",
        "peak_rss_mb": "1 process",
    }
    for name, value in metrics.items():
        rows.append((name, value, E2E_UNITS[name], samples[name]))
    labels = {}
    for o in loop.outcomes:
        labels[o.label] = labels.get(o.label, 0) + 1
    rows.append(("fail_frac", 1.0 - ok / n_in, "fraction", f"{n_in - ok}/{n_in} inputs, labels {labels}"))
    rows.append(("wrong_frac", verdict.wrong_frac, "fraction", f"{verdict.wrong}/{verdict.levels} levels"))
    # Attempted and failed count the seed's inputs, not the timed repeats, so
    # they depend on the seed alone and not on how many passes fit the run.
    return metrics, n_in, n_in - ok


def _timed(fn, op):
    t0 = perf_counter()
    outcome = fn(op)
    return outcome, perf_counter() - t0


def traced_run(bench, args, inputs, rows, problems):
    """Each input untraced and traced back to back, alternating which goes first."""
    import spans

    workload = args.workload
    n = len(inputs)
    in_process = bench.run_cli_in_process if workload == "cli_mix" else bench.RUNNERS[workload]
    tracer = spans.Tracer()
    traced_op = tracer.wrap(spans.ROOT_SPAN, in_process)
    outputs = {"subprocess": [], "untraced": [], "traced": []}
    seconds = dict.fromkeys(outputs, 0.0)
    for i, op in enumerate(inputs):
        steps = ["untraced", "traced"] if i % 2 == 0 else ["traced", "untraced"]
        if workload == "cli_mix":
            steps.insert(0, "subprocess")
        for step in steps:
            if step == "traced":
                with tracer.installed():
                    outcome, t = _timed(traced_op, op)
            else:
                outcome, t = _timed(bench.run_cli if step == "subprocess" else in_process, op)
            outputs[step].append(outcome)
            seconds[step] += t
    if workload == "cli_mix" and outputs["subprocess"] != outputs["untraced"]:
        problems.append("cli.main(argv) in-process differs from the subprocess output or exit code")
    if outputs["traced"] != outputs["untraced"]:
        problems.append("traced and untraced runs rendered different outputs")
    missing = [f"{m}.{a}" for m, a in sorted(spans.EXPECTED[workload]) if tracer.calls[(m, a)] == 0]
    if missing:
        problems.append(f"wrapped names never called on {workload}: {', '.join(missing)}")
    own = tracer.own_times()
    if min(own) < -1e-6:
        problems.append("a span's children outlast it: spans do not nest")
    unaccounted = (seconds["traced"] - sum(own)) / seconds["traced"]
    if abs(unaccounted) > UNACCOUNTED_LIMIT:
        problems.append(f"layer self times miss {unaccounted:.1%} of the traced wall time")

    import oracle

    verdict = oracle.check_run(workload, inputs, outputs["subprocess"] or outputs["untraced"])
    problems.extend(verdict.problems)

    startup_ms, import_ms = process_probes(bench)
    metrics = spans.layer_metrics(tracer, n)
    metrics.update(
        {
            "process.startup_ms": startup_ms,
            "process.import_ms": import_ms,
            "process.self_ms": 1e3 * (seconds["subprocess"] - seconds["untraced"]) / n if outputs["subprocess"] else 0.0,
            "trace.ops": n,
            "trace.wall_ms": 1e3 * seconds["traced"] / n,
            "trace.overhead_ms": 1e3 * (seconds["traced"] - seconds["untraced"]) / n,
            "trace.unaccounted_frac": unaccounted,
        }
    )
    for name, value in metrics.items():
        rows.append((name, value, PER_LAYER_UNITS[name], f"{n} ops"))
    rows.append(("untraced.wall_ms", 1e3 * seconds["untraced"] / n, "ms", f"{n} ops"))
    for name, total in sorted(tracer.self_times().items()):
        rows.append((f"run.{name}_self_s", total, "s", "whole traced loop"))
    failed = sum(o.label != bench.OK for o in outputs["traced"])
    return metrics, n, failed


PER_LAYER_UNITS = {
    "bench.harness_self_ms": "ms",
    "families.make_ms": "ms",
    "sl2.build_block_ms": "ms",
    "spectrum.eigen_solve_ms": "ms",
    "spectrum.shift_ms": "ms",
    "spectrum.solve_model_self_ms": "ms",
    "analysis.residual_sup_ms": "ms",
    "analysis.norm_squared_ms": "ms",
    "analysis.fd_verify_ms": "ms",
    "analysis.pt_ms": "ms",
    "cli.build_report_self_ms": "ms",
    "cli.render_ms": "ms",
    "cli.main_self_ms": "ms",
    "cli.main_ms": "ms",
    "spectrum.dim_sum": "count",
    "spectrum.root_iter_fails": "count",
    "spectrum.residual_gate_fails": "count",
    "spectrum.levels_returned": "count",
    "spectrum.gate_pass_ratio": "fraction",
    "analysis.norm_squared_calls": "count",
    "analysis.fd_nonconverged": "count",
    "analysis.fd_over_bound": "count",
    "analysis.verify_pass_ratio": "fraction",
    "cli.render_bytes": "bytes",
    "process.startup_ms": "ms",
    "process.import_ms": "ms",
    "process.self_ms": "ms",
    "trace.ops": "count",
    "trace.wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unaccounted_frac": "fraction",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import bench
    except ImportError as exc:
        print(f"error: cannot import qesolve from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        bench.make_inputs(args.workload, args.seed)
        bench.RUNNERS[args.workload](bench.WARMUP[args.workload])
        return 0

    env = environment()
    inputs = bench.make_inputs(args.workload, args.seed)
    bench.RUNNERS[args.workload](bench.WARMUP[args.workload])
    rows: list[tuple] = []
    problems: list[str] = []
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed = run(bench, args, inputs, rows, problems)
    except bench.BenchAbort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {len(inputs)}")
    print("env " + json.dumps(env))
    for name, value, unit, n in rows:
        print(f"  {name:34s} {value:>14.6g} {unit:9s} n={n}")
    for p in problems:
        print(f"PROBLEM {p}")
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
