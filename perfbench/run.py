"""opetree benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cocycles, boundary-sweep, bulk-trees, cli-oneshot, or all.
Run from the root of a source checkout; opetree is imported from ``src``.

Every workload is a closed loop with one caller.  A repetition runs the
workload's seeded operations once, in a fresh interpreter (for cli-oneshot,
one fresh interpreter per call), so caches help only through reuse inside a
repetition.  Repetitions go on until S seconds have passed and at least
MIN_REPS have run.  Times are scaled to a reference speed measured during
each repetition (reference.py) and combined as medians (end_to_end).  With
--trace 1, untraced and traced repetitions alternate and the per-layer
metrics come from the traced ones.

Prints a readable report, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
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

import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = Path(".perfbench")  # relative to ROOT: trace files
MIN_REPS = 3
MIN_TRACED_REPS = 2
MAX_SECONDS = 150  # stop starting repetitions after this, whatever --seconds says
CHILD_TIMEOUT = 120
SETUP_PROBE = "import opetree.cli"
TAIL_LADDER = (99, 95, 90, 75, 50)

# Child processes get this fixed environment on top of the caller's,
# whose PYTHON* variables are dropped.
PINNED_ENV = {
    "PYTHONPATH": "src",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("cocycles", "boundary-sweep", "bulk-trees", "cli-oneshot")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    return env


class Child:
    """A finished child process with its own resource usage."""

    def __init__(self, argv):
        self.start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            self.stdout = proc.stdout.read()
            reader.join()
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # give the running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.end = time.monotonic()
        self.stderr = err[0] if err else b""
        self.wall = self.end - self.start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB

    def require_ok(self, what: str) -> None:
        if self.code != 0:
            sys.stderr.write(self.stderr.decode(errors="replace"))
            raise SystemExit(f"{what} exited with code {self.code}")


# ---------------------------------------------------------------------------
# Repetitions


@dataclass
class Rep:
    """One repetition: its timings, op verdicts and (if traced) layer totals."""

    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    latencies: list
    ok: list
    err: list
    layers: dict | None
    speed: float  # median reference-kernel time / REF_NOMINAL_S; > 1 is slow


def speed_of(reference_walls) -> float:
    return statistics.median(reference_walls) / reference.REF_NOMINAL_S


def inprocess_rep(name, seed, traced, index) -> Rep:
    argv = [sys.executable, str(BENCH / "worker.py"), name, str(seed)]
    if traced:
        argv.append(str(WORKDIR / f"spans-{name}-s{seed}-r{index}.jsonl.gz"))
    child = Child(argv)
    child.require_ok(f"{name} worker")
    out = json.loads(child.stdout.decode().splitlines()[-1])
    if out["first_failure"]:
        sys.stderr.write(out["first_failure"])
    return Rep(
        traced,
        out["ready"] - child.start,
        out["wall_s"],
        out["cpu_s"],
        child.peak_rss_mb,
        out["latencies"],
        out["ok"],
        out["err"],
        out.get("layers"),
        speed_of(out["reference"]),
    )


def cli_rep(seed, traced, index) -> Rep:
    import cliops

    calls = cliops.make_round(random.Random(seed))
    golden = cliops.load_golden() if seed == cliops.DEFAULT_SEED else None
    if golden is not None and len(golden) != len(calls):
        raise SystemExit("golden_cli.json does not match the default-seed round")
    probe = Child([sys.executable, "-c", SETUP_PROBE])
    probe.require_ok("set-up probe")
    latencies, ok, err, layers = [], [], [], {}
    cpu = peak = output_bytes = 0.0
    ref = reference.Sampler()
    ref.sample(force=True)
    wall0, ref_wall0 = time.perf_counter(), ref.spent_wall
    for idx, (kind, args) in enumerate(calls):
        if traced:
            totals_path = WORKDIR / f"cli-s{seed}-r{index}-c{idx}.json"
            child = Child([sys.executable, str(BENCH / "cli_child.py"), str(totals_path), *args])
        else:
            child = Child([sys.executable, "-m", "opetree.cli", *args])
        latencies.append(child.wall)
        cpu += child.cpu
        peak = max(peak, child.peak_rss_mb)
        output_bytes += len(child.stdout)
        verdict, rel = cliops.check_call(
            kind, args, child.code, child.stdout, child.stderr, golden[idx] if golden else None
        )
        if not verdict:
            sys.stderr.write(f"cli-oneshot call failed: {args} (exit {child.code})\n")
            sys.stderr.write(child.stderr.decode(errors="replace"))
        ok.append(verdict)
        err.append(rel)
        if traced and child.code == 0:
            for key, value in json.loads(totals_path.read_text()).items():
                layers[key] = layers.get(key, 0) + value
        ref.sample()
    wall = time.perf_counter() - wall0 - (ref.spent_wall - ref_wall0)
    ref.sample(force=True)
    if traced:
        layers["cli.startup_s"] = layers.get("cli.startup_s", 0.0) / len(calls)
        layers["cli.output_bytes"] = output_bytes
    return Rep(
        traced, probe.wall, wall, cpu, peak, latencies, ok, err,
        layers if traced else None, speed_of(ref.walls),
    )


def run_reps(name, seed, seconds, trace) -> list:
    """Repetitions until the time is up; with trace, alternate untraced and
    traced ones starting untraced."""
    reps = []
    start = time.monotonic()
    while True:
        untraced = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        enough = len(untraced) >= (MIN_TRACED_REPS if trace else MIN_REPS) and (
            not trace or len(traced) >= MIN_TRACED_REPS
        )
        elapsed = time.monotonic() - start
        if enough and (elapsed >= seconds or elapsed >= MAX_SECONDS):
            return reps
        as_traced = bool(trace) and len(traced) < len(untraced)
        if name == "cli-oneshot":
            reps.append(cli_rep(seed, as_traced, len(reps)))
        else:
            reps.append(inprocess_rep(name, seed, as_traced, len(reps)))


# ---------------------------------------------------------------------------
# Metrics


def tail_level(n_ops: int) -> int:
    """Highest ladder percentile with at least 10 ops beyond it."""
    for level in TAIL_LADDER:
        if n_ops * (100 - level) / 100 >= 10:
            return level
    return TAIL_LADDER[-1]


def percentile(sorted_values, level) -> float:
    rank = max(1, -(-len(sorted_values) * level // 100))  # nearest rank
    return sorted_values[int(rank) - 1]


def end_to_end(reps) -> dict:
    """Times are scaled by each repetition's speed (see reference.py), then
    combined as medians: over repetitions for set-up, wall and CPU time,
    over every op of every repetition for the latency percentiles.  Peak
    memory is the median over repetitions."""
    latencies = sorted(x / r.speed for r in reps for x in r.latencies)
    level = tail_level(len(reps[0].latencies) * MIN_REPS)
    wall = statistics.median(r.wall_s / r.speed for r in reps)
    return {
        "setup_s": statistics.median(r.setup_s / r.speed for r in reps),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s / r.speed for r in reps),
        "ops_per_s": len(reps[0].latencies) / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * percentile(latencies, level),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        # reported beside the metrics
        "op_tail_pct": level,
        "op_tail_n": len(latencies),
        "speed": statistics.median(r.speed for r in reps),
        "raw_wall_s": statistics.median(r.wall_s for r in reps),
    }


def per_layer(reps) -> dict:
    import tracer as tracing

    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    layers = [(tracing.layer_metrics(r.layers), r.speed) for r in traced]
    out = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if unit == "s":
            out[name] = statistics.median(m[name] / speed for m, speed in layers)
            continue
        values = [m[name] for m, _ in layers]
        if len(set(values)) != 1:
            raise SystemExit(f"per-layer count {name} differs between traced repetitions: {values}")
        out[name] = values[0]
    out["trace.overhead_s"] = statistics.median(r.wall_s / r.speed for r in traced) - statistics.median(
        r.wall_s / r.speed for r in untraced
    )
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "env": PINNED_ENV,
    }


def git_commit():
    """HEAD of the checkout if it is a git repository, else None; read from
    the files so that no process looks outside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace) -> dict:
    reps = run_reps(name, seed, seconds, trace)
    measured = [r for r in reps if not r.traced]
    attempted = sum(len(r.ok) for r in reps)
    failed = sum(not ok for r in reps for ok in r.ok)
    errs = [e for r in reps for ok, e in zip(r.ok, r.err) if ok and e is not None]
    e2e = end_to_end(measured)
    result = {
        "workload": name,
        "seed": seed,
        "reps": len(measured),
        "traced_reps": len(reps) - len(measured),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "max_rel_err": max(errs) if errs else None,
        "e2e": e2e,
        "layers": per_layer(reps) if trace else None,
        "environment": environment(),
    }
    report(result)
    return result


def report(result) -> None:
    e2e = result["e2e"]
    print(f"== {result['workload']} seed={result['seed']} reps={result['reps']} "
          f"traced_reps={result['traced_reps']} env={json.dumps(result['environment'])}")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{e2e['op_tail_pct']} of {e2e['op_tail_n']} ops)"
        print(f"  {name:<14} {e2e[name]:.6g} {unit}{extra}")
    print(f"  {'speed':<14} {e2e['speed']:.4g}  (reference kernel, median over repetitions;"
          f" raw wall_s {e2e['raw_wall_s']:.6g} s)")
    print(f"  {'fail_frac':<14} {result['fail_frac']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops)")
    if result["workload"] != "cli-oneshot":
        print(f"  {'max_rel_err':<14} {result['max_rel_err']!r} ratio")
    if result["layers"]:
        import tracer as tracing

        for name, unit in tracing.LAYER_METRICS.items():
            print(f"  {name:<46} {result['layers'][name]:.6g} {unit}")


def json_line(results, trace) -> dict:
    import tracer as tracing

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        source, units = (res["layers"], tracing.LAYER_METRICS) if trace else (res["e2e"], END_TO_END)
        for name, unit in units.items():
            metrics[prefix + name] = {"value": source[name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run unwinds, so the child it is waiting on is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "opetree" / "__init__.py").is_file():
        print(f"error: no opetree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # The checks import opetree here too; keep src free of bytecode files.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace:
        (ROOT / WORKDIR).mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    print(json.dumps(json_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
