"""One benchmark process: set up one workload and run its ops.

``run.py`` starts this script in a fresh interpreter for every measurement,
so module-level caches and the per-Representation Bessel and gamma caches
start cold, as they do for a CLI user.  The last line of standard output is
one JSON object with the results.

Modes:
  setup   import and set up only (a setup_s sample)
  timed   run tasks back to back until --seconds of op time (at the
          reference speed, see SpeedProbe) have passed, at least the
          workload's RSS prefix is done and a block of tasks is complete;
          then the exact probes and the negative control
  fixed   run exactly --tasks tasks (optionally traced); untraced, then the
          probes and the negative control
  record  write digests.json from the default seed's inputs
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")


def import_library():
    if not os.path.isfile(os.path.join(SRC, "metaplectic", "__init__.py")):
        raise SystemExit(f"no metaplectic sources under {SRC}")
    sys.path.insert(0, SRC)
    import metaplectic
    import metaplectic.cli
    if not os.path.abspath(metaplectic.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported metaplectic from {metaplectic.__file__}, not {SRC}")
    lib = {"metaplectic": metaplectic}
    for name in ("exactnum", "localchar", "cover", "repn", "zeta", "cli"):
        lib[name] = sys.modules[f"metaplectic.{name}"]
    return lib


# The CPU this runs on is shared, and its speed drifts by up to 2x over tens
# of seconds.  Times are therefore measured in units of a fixed stdlib
# reference loop that a SIGALRM handler runs every REF_PERIOD_S (a signal,
# not a thread: it runs between bytecodes of the one thread), and reported at
# the speed where that loop takes REF_NOMINAL_S.
REF_PERIOD_S = 0.05
REF_NOMINAL_S = 0.003
REF_WINDOW = 9          # samples in the running median of the loop time


def reference_loop() -> Fraction:
    """Fraction arithmetic and dict traffic, like the library's inner loops."""
    total, seen = Fraction(0), {}
    for i in range(1, 400):
        f = Fraction(i % 97 + 1, i % 13 + 2)
        total += f
        seen[f] = seen.get(f, 0) + 1
    return total


class SpeedProbe:
    """Integrates time at the reference speed.

    Between `begin()` and `end()` every slice of wall time up to the next
    tick is divided by the running median of the reference-loop time, so a
    speed change in the middle of a long op is followed.  The handler's own
    time counts neither in the wall clock of the op nor in its cost."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0      # wall time spent inside the handler
        self.cost = 0.0       # open-interval time in reference-loop units
        self.on_tick = None   # told each handler duration (the tracer)
        self._mark = None     # start of the uncounted part of an open interval

    def _loop_time(self) -> float:
        return statistics.median(self.samples[-REF_WINDOW:])

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        if self._mark is not None:
            self.cost += (t0 - self._mark) / self._loop_time()
        spent = time.perf_counter() - t0
        self.spent += spent
        if self._mark is not None:
            self._mark = time.perf_counter()
        if self.on_tick is not None:
            self.on_tick(spent)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        # one sample up front, so that an interval never lacks a speed
        self._tick(signal.SIGALRM, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self, since: float | None = None) -> float:
        """Open an interval (from `since`, default now); returns the cost so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._mark = time.perf_counter() if since is None else since
            return self.cost
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def end(self, opened: float) -> float:
        """Close the interval; returns its cost (`opened` is begin()'s value)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.cost += (time.perf_counter() - self._mark) / self._loop_time()
            self._mark = None
            return self.cost - opened
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Runner:
    """Runs tasks, checks each one exactly and against the digest table."""

    def __init__(self, workloads, digests: dict, probe: SpeedProbe):
        self.w = workloads
        self.digests = digests
        self.probe = probe
        self.attempted = self.failed = 0
        self.checked = self.unrecorded = 0
        self.failures = []
        self.latencies = []   # seconds per task
        self.sizes = []

    def verdict(self, task, record, error) -> list:
        if error is not None:
            return [f"{task.key}: raised {type(error).__name__}: {error}"]
        errors = task.check(record)
        want = self.digests.get(self.w.key_digest(task.key))
        if want is None:
            self.unrecorded += 1
        else:
            self.checked += 1
            if want != self.w.digest(record):
                errors.append(f"{task.key}: output digest differs from the recorded one")
        return errors

    def execute(self, task, run=None):
        """Run one task, timing only its `run`; returns its wall time (less
        any reference-loop ticks inside it), its cost at the reference speed
        and the failure list."""
        record = error = None
        spent = self.probe.spent
        opened = self.probe.begin()
        t0 = time.perf_counter()
        try:
            record = (run or task.run)()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        dt = time.perf_counter() - t0
        cost = self.probe.end(opened)
        return dt - (self.probe.spent - spent), cost, self.verdict(task, record, error)

    def count(self, task, errors) -> None:
        self.attempted += task.size
        if errors:
            self.failed += task.size
            self.failures.extend(errors[: max(0, 5 - len(self.failures))])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed", "record"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tasks", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    probe = SpeedProbe()
    if args.mode != "record":
        probe.start()
        opened = probe.begin(since=_T0 + probe.spent)  # less the first tick
    sys.path.insert(0, HERE)
    import workloads
    lib = import_library()
    cls = workloads.WORKLOADS[args.workload]

    if args.mode == "record":
        return record(cls, lib, workloads)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(lib)
        probe.on_tick = tracer.exclude
        trace_start, trace_spent = time.perf_counter(), probe.spent
        workload = tracer.run_span("bench.setup", 0, cls, lib, args.seed)
    else:
        workload = cls(lib, args.seed)
    setup_wall = time.perf_counter() - _T0 - probe.spent
    result = {"setup_s": probe.end(opened) * REF_NOMINAL_S, "raw_setup_s": setup_wall}
    if args.mode == "setup":
        probe.stop()
        print(json.dumps(result))
        return 0

    with open(DIGESTS) as fh:
        runner = Runner(workloads, json.load(fh).get(args.workload, {}), probe)
    gen = workload.tasks()
    ops = 0
    op_time = 0.0
    cost = 0.0            # op time in reference-loop units
    rss_prefix = None
    phase_start = time.perf_counter()
    while True:
        done = len(runner.latencies)
        if done == workload.rss_after_tasks:
            rss_prefix = peak_rss_mib()
        if args.mode == "timed":
            # Stop only between whole blocks, so every run holds the same mix,
            # and count op time at the reference speed, so the machine's
            # speed drift does not change how much work a run does.
            measured = cost * REF_NOMINAL_S
            if (done >= workload.rss_after_tasks and done % workload.block == 0
                    and measured >= args.seconds):
                break
        elif done >= args.tasks:
            break
        task = next(gen)
        if tracer is not None:
            dt, op_cost, errors = runner.execute(
                task, lambda: tracer.run_span("bench.op", done + 1, task.run))
        else:
            dt, op_cost, errors = runner.execute(task)
        runner.count(task, errors)
        runner.latencies.append(dt)
        runner.sizes.append(task.size)
        if not errors:
            ops += task.size
            op_time += dt
            cost += op_cost
    phase_s = time.perf_counter() - phase_start
    probe.stop()
    result.update(rss_prefix_mib=rss_prefix if rss_prefix is not None else peak_rss_mib(),
                  ops=ops, op_time_s=op_time, phase_s=phase_s, tasks=len(runner.latencies),
                  cost=cost,
                  ops_per_s=ops / (cost * REF_NOMINAL_S) if cost else 0.0,
                  raw_ops_per_s=ops / op_time if op_time else 0.0,
                  reference_ms=statistics.median(probe.samples) * 1e3)
    if tracer is not None:
        traced_wall = time.perf_counter() - trace_start - (probe.spent - trace_spent)
        result["trace"] = {
            "wall_s": traced_wall,
            "metrics": tracer.metrics(traced_wall),
            "layers": tracer.self_seconds(),
            "missing": tracer.missing_calls(args.workload),
        }
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.jsonl.gz")
        tracer.write_spans(spans)
        result["trace"]["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        # exact probes and the negative control run after timing
        for task in workload.probes():
            *_, errors = runner.execute(task)
            runner.count(task, errors)
        control = workload.negative_control()
        if control is not None:
            *_, errors = runner.execute(control)
            result["negative_control"] = "caught" if errors else "MISSED"
    single = sorted(dt for dt, size in zip(runner.latencies, runner.sizes) if size == 1)
    result.update(
        op_p50_ms=single[len(single) // 2] * 1e3 if single else None,
        op_p90_ms=single[min(len(single) - 1, (9 * len(single)) // 10)] * 1e3 if single else None,
        latency_samples=len(single),
        attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
        digests_checked=runner.checked, digests_unrecorded=runner.unrecorded,
        peak_rss_mib=peak_rss_mib())
    print(json.dumps(result))
    return 0


def record(cls, lib, workloads) -> int:
    """Record the digests of every task the default seed's table pins."""
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    workload = cls(lib, workloads.DEFAULT_SEED)
    entries = {}
    for task in workload.record_tasks():
        record_ = task.run()
        errors = task.check(record_)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        entries[workloads.key_digest(task.key)] = workloads.digest(record_)
    table[cls.name] = dict(sorted(entries.items()))
    with open(DIGESTS, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"workload": cls.name, "recorded": len(entries)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
