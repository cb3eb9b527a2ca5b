"""schurkit benchmark: workloads of real CLI jobs, each output verified.

    python3 bench/run.py --workload verify-tower --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from `src/`.

Load model: closed loop, one client.  Each job runs in a fresh interpreter
that this process spawns and reaps before it spawns the next, because the
CLI runs one job per process and a warm process would hide cold costs such
as the Freudenthal character cache.  A pass runs every job of the workload
once, in an order drawn from `--seed`; the seed changes nothing else.  Passes
repeat until the next one would end after `--seconds`; at least one runs.

A job fails when it exits nonzero or when the sha256 of its stdout differs
from the digest in `digests.json`, recorded when the benchmark was added: the CLI
promises byte-identical documents, and every job also checks its own paper
claim and exits 1 when that check fails.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs, in each
round, an untraced pass and then a pass under `trace_child.py`, and reports
the per-layer metrics from the spans.  Human-readable lines come first; the
last line of stdout is the JSON result.  A full record (machine facts,
samples, per-job times, spans) goes to `bench/out/`.  The exit code is 1
when any job failed and 2 when the checkout holds no program to run.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from trace_child import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

CLI = ("-m", "schurkit.cli")
WORKLOADS = {
    # Sparse ExactMatrix operator identities on carriers up to dim 2801: no
    # closure, no oracle, no crystals.
    "verify-tower": [
        CLI + ("verify", "B", "3", "4", "--presentation", "serre"),
        CLI + ("verify", "B", "3", "4", "--presentation", "idempotent"),
        CLI + ("idempotents", "B", "3", "4"),
        CLI + ("verify", "C", "3", "4", "--presentation", "idempotent"),
        CLI + ("verify", "D", "3", "4", "--presentation", "serre"),
    ],
    # Dense numpy echelon closure, driven by sparse lifts (CLI) and by 0/1
    # diagonal projector generators (library job).
    "closure-algebra": [
        CLI + ("closure", "C", "2", "3"),
        CLI + ("closure", "B", "2", "2"),
        ("bench/same_algebra.py",),
    ],
    # Weight/Fraction arithmetic: path model, cold oracle, zero-locus scan,
    # and a 56 KB crystal document; no matrices.
    "combinatorics": [
        CLI + ("census", "C", "3", "5"),
        CLI + ("census", "D", "4", "4"),
        CLI + ("compare", "C", "4", "5"),
        CLI + ("classify-b", "3", "6"),
        CLI + ("zero-locus", "C", "4", "4", "--drop-p1hi"),
        CLI + ("crystal", "C", "3", "--lambda", "2,2,1"),
    ],
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
COUNT_METRICS = [
    "replinalg.carrier_dim",
    "replinalg.generator_nnz",
    "replinalg.algebra_closure.dim",
    "replinalg.algebra_closure.columns",
    "idempotents.projectors",
    "idempotents.ladder_check.checked",
    "presentation.relations_checked",
    "presentation.relations_failed",
    "presentation.zero_locus.grid_points",
    "presentation.zero_locus.locus_size",
    "decomposition.pi0_size",
    "pathmodel.crystal_elements",
]
PER_LAYER = {
    **{f"{name}.s": "s" for name in TRACED},
    **{name: "count" for name in COUNT_METRICS},
    "cli.residual_s": "s",
    "trace.span_cover_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

SETUP_ARGS = ("-c", "import schurkit.cli")
# Interpreter starts timed at the start of a run and before each round, so
# that setup_s samples the machine across the whole run, as wall_s does.
SETUP_FIRST, SETUP_PER_ROUND = 3, 2
# Jobs still running this long after the start are killed, so that a run
# always ends well inside the 180 s a run may take.
HARD_LIMIT_S = 165.0


@dataclass
class Job:
    """One finished child process."""

    name: str
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(args, env, deadline, name=None):
    """Run `python3 <args>` from the root; wall time and peak RSS are its own."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 reports this child's own rusage; RUSAGE_CHILDREN would keep
        # the largest child ever reaped.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Job(name or " ".join(args), wall, proc.returncode, usage.ru_maxrss / 1024, out, err[0])


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCHURKIT_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(order, env, digests, deadline, traced):
    """Run each job once; returns (wall from first spawn to last exit, jobs, failed names)."""
    jobs, failed = [], []
    start = time.perf_counter()
    for args in order:
        job = spawn(("bench/trace_child.py",) * traced + args, env, deadline, " ".join(args))
        jobs.append(job)
        if job.code != 0 or hashlib.sha256(job.stdout).hexdigest() != digests.get(job.name):
            failed.append(job.name)
    return time.perf_counter() - start, jobs, failed


def spans_of(job):
    line = job.stderr.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
    return json.loads(line[len("SPANS ") :]) if line.startswith("SPANS ") else []


def trace_round(traced_wall, job_spans, setup_s):
    """Per-layer figures of one traced pass, from each job's spans.

    Inclusive time counts a call only when no call of the same function
    encloses it; self time is a span minus its direct children, which run
    one after another.  The residual and the cover are taken against the
    traced pass's own wall, not the untraced pass's: the two passes see the
    machine's speed drift apart by as much as the residual itself.
    """
    inclusive = dict.fromkeys(TRACED, 0.0)
    own = dict.fromkeys(TRACED, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    top = 0.0
    for spans in job_spans.values():
        for name, start, end, parent, found in spans:
            for key, value in found.items():
                counts[key] += value
            dur = end - start
            own[name] += dur
            if parent is None:
                top += dur
            else:
                own[spans[parent][0]] -= dur
            up = parent
            while up is not None and spans[up][0] != name:
                up = spans[up][3]
            if up is None:
                inclusive[name] += dur
    covered = top + len(job_spans) * setup_s
    return inclusive, own, counts, {
        "cli.residual_s": traced_wall - covered,
        "trace.span_cover_frac": covered / traced_wall,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(env, deadline):
    """Facts recorded with every result.  The probe also compiles bytecode untimed."""
    probe = spawn(
        ("-c", "import json, numpy, schurkit.cli; print(json.dumps([numpy.__version__, schurkit.__version__]))"),
        env,
        deadline,
    )
    versions = json.loads(probe.stdout) if probe.code == 0 else [None, None]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "schurkit": versions[1],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None, digests=None):
    parser = argparse.ArgumentParser(description="Time and verify schurkit CLI jobs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schurkit" / "cli.py").is_file():
        print(f"error: no schurkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if digests is None:
        digests = json.loads((BENCH / "digests.json").read_text())

    env = child_env()
    start = time.perf_counter()
    end, deadline = start + args.seconds, start + HARD_LIMIT_S
    facts = machine_facts(env, deadline)
    setups = [spawn(SETUP_ARGS, env, deadline) for _ in range(SETUP_FIRST)]

    rng = random.Random(args.seed)
    rounds, attempted, failed = [], 0, []
    while True:
        order = list(WORKLOADS[args.workload])
        rng.shuffle(order)
        began = time.perf_counter()
        setups += [spawn(SETUP_ARGS, env, deadline) for _ in range(SETUP_PER_ROUND)]
        passes = [run_pass(order, env, digests, deadline, traced) for traced in range(args.trace + 1)]
        rounds.append(passes)
        for _, jobs, bad in passes:
            attempted += len(jobs)
            failed += bad
        now = time.perf_counter()
        if failed or now + (now - began) > end:
            break
    setup_s = statistics.median(s.wall for s in setups)
    setup_ok = all(s.code == 0 for s in setups)
    if not setup_ok:
        print(f"error: python3 {' '.join(SETUP_ARGS)} failed", file=sys.stderr)

    walls = [passes[0][0] for passes in rounds]
    untraced = [job for passes in rounds for job in passes[0][1]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "setup_s": [s.wall for s in setups],
        "rounds": [
            [{"wall_s": wall, "jobs": [[j.name, j.wall, j.code, j.rss_mb] for j in jobs]} for wall, jobs, _ in passes]
            for passes in rounds
        ],
        "failed": failed,
    }
    if args.trace:
        record["spans"] = [{job.name: spans_of(job) for job in passes[1][1]} for passes in rounds]
        figures = [trace_round(p[1][0], spans, setup_s) for p, spans in zip(rounds, record["spans"])]
        metrics = {f"{name}.s": statistics.median(f[0][name] for f in figures) for name in TRACED}
        metrics.update({name: statistics.median_low(f[2][name] for f in figures) for name in COUNT_METRICS})
        for key in ("cli.residual_s", "trace.span_cover_frac"):
            metrics[key] = statistics.median(f[3][key] for f in figures)
        metrics["trace.overhead_frac"] = statistics.median(p[1][0] / p[0][0] - 1 for p in rounds)
        record["self_s"] = {name: statistics.median(f[1][name] for f in figures) for name in TRACED}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(job.rss_mb for job in untraced),
            "setup_s": setup_s,
        }
        units = END_TO_END
    record["metrics"] = metrics
    record["samples"] = {"wall_s": len(walls), "setup_s": len(setups), "jobs": len(untraced)}

    q1, q3 = quartiles(walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"wall_s       {statistics.median(walls):10.4f} s    median of {len(walls)} untraced passes, q1 {q1:.4f} q3 {q3:.4f}")
    print(f"peak_rss_mb  {max(job.rss_mb for job in untraced):10.2f} MiB  max over {len(untraced)} untraced jobs")
    print(f"setup_s      {setup_s:10.4f} s    median of {len(setups)} interpreter starts")
    print(f"failed_frac  {len(failed) / max(attempted, 1):10.4f} ratio {len(failed)} of {attempted} jobs failed")
    if args.trace:
        for name in TRACED:
            if metrics[f"{name}.s"]:
                share = metrics[f"{name}.s"] / statistics.median(walls)
                print(f"  {name:50s} {metrics[f'{name}.s']:9.4f} s  self {record['self_s'][name]:9.4f} s  {share:6.1%} of wall_s")
        for name in COUNT_METRICS + ["cli.residual_s", "trace.span_cover_frac", "trace.overhead_frac"]:
            print(f"  {name:50s} {metrics[name]}")
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": setup_ok and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
