"""One repetition of an in-process workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED [TRACE_PATH]

Imports opetree, sets the workload up from SEED, runs its operations one
after another (a closed loop with one caller) and prints one JSON line:
the monotonic time at which set-up ended, per-op latencies and verdicts,
the wall and CPU time of the op loop, and the reference-kernel times taken
between ops (not counted in the loop's times).  With TRACE_PATH, the layers are
traced from set-up on; spans go to TRACE_PATH and raw per-layer totals into
the JSON line.
"""

import json
import random
import sys
import time
import traceback

import reference
import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    trace_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if trace_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = workloads.SETUPS[name](random.Random(seed))
    ready = time.monotonic()

    latencies, verdicts, errors, first_failure = [], [], [], None
    ref = reference.Sampler()
    ref.sample(force=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    ref_wall0, ref_cpu0 = ref.spent_wall, ref.spent_cpu
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        start = time.perf_counter()
        try:
            ok, err = op()
        except Exception:  # an op that raises counts as failed; the loop goes on
            ok, err = False, None
            first_failure = first_failure or traceback.format_exc()
        latencies.append(time.perf_counter() - start)
        verdicts.append(bool(ok))
        errors.append(err)
        ref.sample()
    wall = time.perf_counter() - wall0 - (ref.spent_wall - ref_wall0)
    cpu = time.process_time() - cpu0 - (ref.spent_cpu - ref_cpu0)
    ref.sample(force=True)

    out = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "reference": ref.walls,
        "latencies": latencies,
        "ok": verdicts,
        "err": errors,
        "first_failure": first_failure,
    }
    if tracer is not None:
        tracer.write(trace_path)
        out["layers"] = tracer.totals()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
