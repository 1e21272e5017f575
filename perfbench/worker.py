"""One measured process of the benchmark; ``run.py`` starts it.

Modes:
  setup  set up (import sidecomp, build the inputs, one untimed warm-up
         operation) and report the set-up time, which for cli ends once
         the input files are written, before the warm-up;
  run    set up, then run the timed closed loop with tracing off, timing a
         fixed reference computation between operations;
  trace  set up, run the loop untraced, then the same passes traced, and
         report per-layer metrics.

The loop runs whole passes over the workload's operations, so every run
weighs every input the same: after each pass it estimates from the mean
pass time how many passes make the loop last about ``--seconds``. Prints
one JSON object.

The speed of a shared host drifts by a fifth or more within minutes, for
this process and the next alike. So that runs made minutes apart compare,
the run mode also times, between operations, a reference computation that
does not touch sidecomp: the SVD of a fixed matrix for the in-process
workloads, and a fresh interpreter importing numpy and scipy.linalg for
cli. The ``*_ref`` metrics express the loop's rate and median latency in
units of the run's median reference time.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

IMPORT_PROBES = 3
REFERENCE_EVERY_S = 1.0     # time the reference at least this often
REFERENCE_SHAPE = (1024, 512)


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_op(op, degenerate_error) -> str:
    try:
        return op()
    except degenerate_error:
        return "degenerate"
    except Exception:       # a crash is a failed operation, never a success
        traceback.print_exc(file=sys.stderr)
        return "wrong"


def svd_reference():
    """Times the SVD of one fixed complex matrix. The matrix is made anew
    for each call, so that it is not resident while sidecomp runs."""
    import numpy as np

    def run() -> float:
        rng = np.random.default_rng(0)
        A = rng.standard_normal(REFERENCE_SHAPE) + 1j * rng.standard_normal(REFERENCE_SHAPE)
        t = time.perf_counter()
        np.linalg.svd(A, full_matrices=False)
        return time.perf_counter() - t
    return run


def import_reference(env):
    """Times a fresh interpreter that imports numpy and scipy.linalg."""
    argv = [sys.executable, "-c", "import numpy, scipy.linalg"]

    def run() -> float:
        t = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t
    return run


def timed_loop(ops, seconds, degenerate_error, passes=None, tracer=None, reference=None):
    """Closed loop over whole passes.

    Returns per-op (latency, status), the loop's wall time, the number of
    passes and the reference times. A ``reference`` is timed before the
    first op, after the last, and between ops at least every
    REFERENCE_EVERY_S.
    """
    results = []
    refs = []
    start = time.perf_counter()
    if reference is not None:
        refs.append(reference())
        last_ref = time.perf_counter()
    since_ref = 0           # ops run since the reference was last timed
    done = 0
    target = passes
    while target is None or done < target:
        for op in ops:
            if tracer is not None:
                span = tracer.begin_op(len(results))
            t = time.perf_counter()
            status = _run_op(op, degenerate_error)
            results.append((time.perf_counter() - t, status))
            if tracer is not None:
                tracer.end_op(span)
            since_ref += 1
            if reference is not None and time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference())
                last_ref = time.perf_counter()
                since_ref = 0
        done += 1
        if passes is None:      # re-estimated from the mean pass so far
            target = max(1, round(seconds * done / (time.perf_counter() - start)))
    if reference is not None and since_ref:
        refs.append(reference())
    return results, time.perf_counter() - start, done, refs


def _loop_summary(results, wall, refs=()) -> dict:
    counts = Counter(status for _, status in results)
    ok = [lat for lat, status in results if status == "ok"]
    out = {
        "ops": len(results),
        "ok": counts["ok"],
        "wrong": counts["wrong"],
        "degenerate": counts["degenerate"],
        "wall_s": wall,
        "ops_per_s": counts["ok"] / sum(lat for lat, _ in results),
        "op_p50_s": statistics.median(ok) if ok else None,
        "op_p90_s": _percentile(ok, 90) if ok else None,
        "latency_samples": len(ok),
    }
    if refs:
        ref = statistics.median(refs)
        out.update(reference_s=ref, reference_samples=len(refs),
                   ops_per_ref=out["ops_per_s"] * ref,
                   op_p50_ref=out["op_p50_s"] / ref if ok else None)
    return out


def _versions() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _import_seconds(env) -> float:
    """Median over fresh interpreters of the time to ``import sidecomp.cli``."""
    code = ("import time; t = time.perf_counter(); import sidecomp.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, timeout=60).stdout
        times.append(float(out))
    return statistics.median(times)


def _layer_metrics(tracer, traced_wall, untraced, traced, env) -> tuple[dict, dict]:
    from layertrace import ERROR_COUNTED, LAYERS, OP_SPAN, metric_name

    self_s, calls = tracer.self_times()
    metrics = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            q = f"{module}.{fn}"
            metrics[metric_name(q) + ".calls"] = calls.get(q, 0)
            metrics[metric_name(q) + ".self_s"] = self_s.get(q, 0.0)
    for q in ERROR_COUNTED:
        metrics[metric_name(q) + ".errors"] = tracer.errors.get(q, 0)
    c = tracer.counters
    for q in ("_linalg.svd_robust.flops_computed",
              "commutant.joint_commutant.stack_bytes_computed",
              "commutant.contains_invertible.trials"):
        metrics[metric_name(q)] = c.get(q, 0)
    trials = c.get("commutant.contains_invertible.trials", 0)
    metrics["commutant.contains_invertible.found_per_trial"] = (
        c.get("commutant.contains_invertible.found", 0) / trials if trials else 0.0)
    metrics["cli.import_s"] = _import_seconds(env)
    metrics["trace.overhead_frac"] = untraced["ops_per_s"] / traced["ops_per_s"] - 1.0
    layer_self = sum(v for name, v in self_s.items() if name != OP_SPAN)
    metrics["trace.unattributed_frac"] = (traced_wall - layer_self) / traced_wall
    metrics["trace.absent"] = len(tracer.absent)

    top = sorted(((v, k) for k, v in self_s.items() if k != OP_SPAN), reverse=True)[:6]
    summary = {
        "top_self_s": [[k, round(v, 4), round(v / traced_wall, 4)] for v, k in top],
        "traced_wall_s": traced_wall,
        "layer_self_sum_s": layer_self,
        "adds_up": metrics["trace.unattributed_frac"] <= max(metrics["trace.overhead_frac"], 0.0) + 0.02,
        "absent": tracer.absent,
        "broken_counters": sorted(tracer.broken_counters),
        "spans": len(tracer.spans),
    }
    return metrics, summary


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    import sidecomp
    import workloads

    env = dict(os.environ)
    degenerate_error = sidecomp.NumericalDegeneracyError
    job = None
    if args.workload == "cli":
        # set-up ends once the input files are written; the warm-up CLI
        # process is left out of it
        job = workloads.CliJob(args.seed, os.path.join(args.workdir, f"cli-{args.seed}"))
        setup_s = time.perf_counter() - _T0
        ops = job.inprocess_ops() if args.mode == "trace" else job.subprocess_ops(env)
        warmup = _run_op(ops[0], degenerate_error)
    else:
        ops = workloads.BUILDERS[args.workload](args.seed)
        warmup = _run_op(ops[0], degenerate_error)
        setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        reference = import_reference(env) if job else svd_reference()
        reference()         # warm-up, untimed
        results, wall, passes, refs = timed_loop(ops, args.seconds, degenerate_error,
                                                 reference=reference)
    else:
        # the traced run repeats the untraced passes, so each takes half
        results, wall, passes, refs = timed_loop(ops, args.seconds / 2, degenerate_error)
    untraced = _loop_summary(results, wall, refs)
    loops = [untraced]
    if args.mode == "run":
        peak_kb = job.peak_rss_kb if job else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = peak_kb / 1024.0
        out["loop"] = untraced
    else:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        results, traced_wall, _, _ = timed_loop(ops, args.seconds, degenerate_error,
                                                passes=passes, tracer=tracer)
        traced = _loop_summary(results, traced_wall)
        loops.append(traced)
        out["layers"], out["trace"] = _layer_metrics(tracer, traced_wall, untraced,
                                                     traced, env)
        out["loop"] = traced
        tracer.write(os.path.join(args.workdir,
                                  f"trace-{args.workload}-{args.seed}.json"))
    out["passes"] = passes
    out["attempted"] = 1 + sum(loop["ops"] for loop in loops)
    out["wrong"] = int(warmup == "wrong") + sum(loop["wrong"] for loop in loops)
    out["degenerate"] = int(warmup == "degenerate") + sum(loop["degenerate"] for loop in loops)
    out["versions"] = _versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
