"""sidecomp benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload large_d --seed 1 --seconds 40 --trace 0

Workloads: large_d and cli (BENCHMARK.json says why each exists), and
planted and similar, which BENCHMARK.json leaves out because the current
code fails some of their operations (see README.md). Inputs are generated
from --seed; every output is checked.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s      median over 5 fresh processes of the set-up time
  ops_per_ref  verified-correct operations per unit of reference time
  op_p50_ref   median latency of a correct operation, in reference times
  peak_rss_mb  peak resident memory of the workload process (cli: the
               largest peak among its CLI child processes)
The reference time is the run's median time of a fixed computation that
does not touch sidecomp, timed between operations (worker.py says which);
dividing by it takes out the drift of a shared host's speed. The
wall-clock figures (ops_per_s, op_p50_s, op_p90_s) and the median
reference time are printed on the "# wall-clock" line.
--trace 1 prints the per-layer metrics of a traced run (call counts and
self times of each package module's functions, error and work counters,
CLI import time and the tracing overhead) and writes the spans under
.perfbench/.

Every process runs with one BLAS/OpenMP thread. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it describe the environment, the failure counts and the trace.
Exits with code 2, printing no result, when the checkout has no sidecomp
sources or no BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("planted", "large_d", "similar", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170        # all workers of one run end within this many seconds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(root: str, workdir: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # compiled modules are cached, as for an installed package, but inside
    # the checkout: the first run fills the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    env.pop("SIDECOMP_SEED", None)       # the CLI must use its built-in seed
    return env


def _worker(mode: str, args, seed: int, env: dict, workdir: str, deadline: float) -> dict:
    """Runs one worker in its own process group, so that a timeout ends it
    together with any CLI process it started."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--mode", mode,
            "--workdir", workdir]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_trace(workload: str, trace: dict) -> None:
    wall = trace["traced_wall_s"]
    print(f"# trace {workload}: {trace['spans']} spans, traced wall {wall:.3f} s, "
          f"layer self times sum to {trace['layer_self_sum_s']:.3f} s; "
          f"{'adds up' if trace['adds_up'] else 'does NOT add up'} within the tracing overhead")
    for name, self_s, share in trace["top_self_s"]:
        print(f"# trace   {name:<42} self {self_s:9.4f} s  {100 * share:5.1f}% of wall")
    if trace["absent"]:
        print(f"# trace absent: {', '.join(trace['absent'])}")
    if trace["broken_counters"]:
        print(f"# trace counters unreadable: {', '.join(trace['broken_counters'])}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sidecomp", "__init__.py")):
        return _fail("no src/sidecomp in the current directory; run from a checkout root")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    seed = args.seed % 2**64
    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    env = _child_env(root, workdir)

    if args.trace:
        out = _worker("trace", args, seed, env, workdir, deadline)
        values = dict(out["layers"])
    else:
        setups = [_worker("setup", args, seed, env, workdir, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        out = _worker("run", args, seed, env, workdir, deadline)
        setups.append(out["setup_s"])
        loop = out["loop"]
        values = {"setup_s": statistics.median(setups), "ops_per_ref": loop["ops_per_ref"],
                  "op_p50_ref": loop["op_p50_ref"], "peak_rss_mb": out["peak_rss_mb"]}

    attempted, wrong, degenerate = out["attempted"], out["wrong"], out["degenerate"]
    info = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(root),
        "nproc": os.cpu_count(), "threads": {v: env[v] for v in THREAD_VARS[:2]},
        **out["versions"],
    }
    print("# env " + json.dumps(info, sort_keys=True))
    print("# ops " + json.dumps({
        "attempted": attempted, "degenerate": degenerate, "wrong": wrong,
        "fail_frac": {"value": (degenerate + wrong) / attempted, "unit": "ratio"},
        "wrong_frac": {"value": wrong / attempted, "unit": "ratio"},
        "passes": out["passes"], "latency_samples": out["loop"]["latency_samples"],
        "loop_wall_s": round(out["loop"]["wall_s"], 3)}))
    raw = {k: out["loop"].get(k) for k in ("ops_per_s", "op_p50_s", "op_p90_s", "reference_s",
                                            "reference_samples")}
    print("# wall-clock " + json.dumps(raw))
    if args.trace:
        _print_trace(args.workload, out["trace"])

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": degenerate + wrong,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
