"""Benchmark entry point.

    python3 perfbench/run.py --workload fe_matrix --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each measurement runs in its own fresh
worker process (``worker.py``), one at a time, with no threads.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics, with ``--trace 1`` the per-layer ones;
the lines above it print every metric by name and unit.  See README.md.

    python3 perfbench/run.py --record-digests

re-records ``digests.json`` from the default seed (only after a change that
is meant to change outputs).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fe_matrix", "gamma_deep", "group_suites")

SETUP_SAMPLES = 7          # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0         # every run must end well within 180 s

# Tasks of the traced run: one block of fe_matrix, one cold gamma factor, and
# 300 blocks of group_suites.  A fixed count, so calls counts depend only on
# the seed.
TRACE_TASKS = {"fe_matrix": 8, "gamma_deep": 1, "group_suites": 2400}


def worker(args, deadline, *extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def untraced(args, deadline):
    runs = [worker(args, deadline, "--mode", "setup") for _ in range(SETUP_SAMPLES - 1)]
    main = worker(args, deadline, "--mode", "timed", "--seconds", str(args.seconds))
    runs.append(main)
    setups = [r["setup_s"] for r in runs]
    raw_setups = [r["raw_setup_s"] for r in runs]
    metrics = {
        "ops_per_s": {"value": main["ops_per_s"], "unit": "ops/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": main["rss_prefix_mib"], "unit": "MiB"},
    }
    attempted, failed = main["attempted"], main["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"(closed loop, one caller, single-threaded)")
    print(f"  setup_s       {fmt(metrics['setup_s']['value'])} s  "
          f"(median of {len(setups)} fresh processes; "
          f"{fmt(statistics.median(raw_setups))} s by the wall clock)")
    print(f"  ops_per_s     {fmt(metrics['ops_per_s']['value'])} ops/s  "
          f"({main['ops']} ops in {fmt(main['op_time_s'])} s of op time, {main['tasks']} tasks; "
          f"{fmt(main['raw_ops_per_s'])} ops/s by the wall clock, reference loop "
          f"{fmt(main['reference_ms'])} ms)")
    n = main["latency_samples"]
    if n >= 20:
        print(f"  op_p50_ms     {fmt(main['op_p50_ms'])} ms  (n = {n})")
    else:
        print(f"  op_p50_ms     not reported: {n} single-op samples, needs >= 20")
    if n >= 100:
        print(f"  op_p90_ms     {fmt(main['op_p90_ms'])} ms  (n = {n})")
    else:
        print(f"  op_p90_ms     not reported: {n} single-op samples, needs >= 100")
    print(f"  peak_rss_mib  {fmt(metrics['peak_rss_mib']['value'])} MiB  "
          f"(after set-up and the first tasks; {fmt(main['peak_rss_mib'])} MiB at the end)")
    print(f"  fail_ratio    {fmt(failed / attempted if attempted else 1.0)} ratio  "
          f"({failed} failed / {attempted} attempted)")
    print(f"  digests       {main['digests_checked']} outputs compared with a recorded digest "
          f"(a mismatch is a failed op), {main['digests_unrecorded']} with none recorded")
    control = main.get("negative_control")
    if control is not None:
        print(f"  negative control (corrupted gamma): {control}")
    for message in main["failures"]:
        print(f"  FAILED: {message}")
    correct = failed == 0 and attempted > 0 and control in (None, "caught")
    return correct, attempted, failed, metrics


def traced(args, deadline):
    tasks = TRACE_TASKS[args.workload]
    fixed = ("--mode", "fixed", "--tasks", str(tasks))
    plain = worker(args, deadline, *fixed)
    run = worker(args, deadline, *fixed, "--trace", "1")
    trace = run["trace"]
    metrics = {}
    for name, value in trace["metrics"].items():
        unit = ("count" if name.endswith((".calls", "entries", "evals", "refinements", "shells"))
                else "ratio")
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace_overhead"] = {"value": run["cost"] / plain["cost"], "unit": "ratio"}
    print(f"workload {args.workload}  seed {args.seed}  traced run of {tasks} tasks "
          f"({run['ops']} ops); spans in {trace['spans_file']}")
    print(f"  {'layer':30} {'calls':>10} {'self_s':>10} {'self share':>10} {'incl_s':>10}")
    wall = trace["wall_s"]
    for name, (calls, self_s, incl_s) in trace["layers"].items():
        print(f"  {name:30} {calls:>10} {self_s:>10.4f} {self_s / wall:>10.4f} {incl_s:>10.4f}")
    for name, entry in metrics.items():
        if not name.endswith((".calls", ".self_share")):
            print(f"  {name:34} {fmt(entry['value'])} {entry['unit']}")
    m = trace["metrics"]
    claims = {
        "fe_matrix": ("repn.act covers over half of the wall time", m["repn.act.incl_share"] > 0.5),
        "gamma_deep": ("zeta.bessel_* covers over half of the wall time",
                       m["zeta.bessel.incl_share"] > 0.5),
        "group_suites": ("cover self time exceeds exactnum self time",
                         m["cover.self_share"] > m["exactnum.self_share"]),
    }
    text, holds = claims[args.workload]
    print(f"  dominant layer: {text}: {'confirmed' if holds else 'NOT confirmed'}")
    if trace["missing"]:
        raise RuntimeError("layers this workload must exercise recorded zero calls: "
                           + ", ".join(trace["missing"]))
    for message in plain["failures"] + run["failures"]:
        print(f"  FAILED: {message}")
    failed = run["failed"] + plain["failed"]
    correct = failed == 0 and plain.get("negative_control") in (None, "caught")
    return correct, run["attempted"], run["failed"], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "metaplectic", "__init__.py")):
        print(f"error: no metaplectic sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.record_digests:
        for name in WORKLOADS:
            args.workload = name
            print(worker(args, time.monotonic() + 3600, "--mode", "record"))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
