"""daefix benchmark: cold time to a verdict for one CLI call per operation.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is taken from the
checkout's src/ and nowhere else.  One operation is one call
main([command, file, "--json", out]) with stdout captured, in a child
forked from a parent that has done nothing but `import daefix.cli`.
Children run one at a time (a closed loop with one client).  Every run
is checked against a reference answer written by hand; failed operations
are reported, not fatal.

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
both plain and traced and prints the per-layer metrics and the tracing
overhead instead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

import reference
import runner
import tracing
import workloads

HASH_SEED = "0"         # PYTHONHASHSEED of the parent and every child
BUDGET_S = 10.0         # wall-clock budget of one operation
SETUP_SAMPLES = 9       # fresh-interpreter imports behind setup_s

# Reported times are scaled to a reference machine speed.  On a shared
# two-core VM (Xeon, Firecracker kernel) the speed of pure-Python code
# shifts by up to 1.8x for minutes at a time, which moves a whole run's
# medians together.  So the parent times a fixed calibration loop after
# every child, and each sample is scaled by (CAL_REF_S / t) ** e, where t
# is the mean of the loop's time just before and just after it and e is
# the workload's CAL_EXPONENT.  The loop uses no daefix code, so only the
# machine's speed moves it.  CAL_REF_S is about its time in the machine's
# fast phase.  daefix runs slow down less than the loop does, and short
# ones least: fitted over 5 to 11 runs each, the times of the operations
# of `decoupled` and `coupled` (15 ms to 2.5 s) grew as the loop's time
# to the power 0.8 to 1.0, those of `corpus` (5 to 30 ms) as its power
# 0.5 to 0.6.  The per-operation table also prints the raw medians.
CAL_REF_S = 0.0225
CAL_EXPONENT = {"corpus": 0.6, "decoupled": 0.9, "coupled": 0.9,
                "expansion": 0.9}
WORKLOADS = ("corpus", "decoupled", "coupled", "expansion")

# Rounds over all operations in a run of --seconds 25.  They fill about
# 25 s on the machine above in its slow phase (the two time-outs of
# `expansion` take 20 s of its run); `coupled` gets more, about 35 s,
# because its largest operation needs five samples of each ordering for a
# steady median.  A run does a fixed number of rounds, not as many as
# fit before a deadline, so that `attempted` and `failed` are the same in
# every run of the same code; in the fast phase a run ends sooner.
ROUNDS_25_S = {"corpus": 24, "decoupled": 8, "coupled": 10, "expansion": 4}

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = (("verdict_ms_geomean", "ms"), ("pass_s", "s"),
              ("correct_share", "share"), ("certain_share", "share"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibration_s():
    """Seconds of a fixed loop of Fraction arithmetic and tuple-keyed dict
    updates, 20 to 45 ms; the collector is off so that the size of this
    process's heap does not enter.  One long loop tracked the speed of
    daefix runs better than the best or the median of several short
    ones."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(4000):
            f = (Fraction(i % 17 + 1, i % 13 + 1) * Fraction(i % 5 + 2, 7)
                 + Fraction(1, i + 1))
            key = (i % 31, (i % 7, f.denominator % 5))
            table[key] = table.get(key, 0) + f.numerator
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Scales wall-clock spans by the calibration loop timed around them."""

    def __init__(self, exponent):
        self.exponent = exponent
        self.last = calibration_s()

    def scale(self, seconds):
        before, self.last = self.last, calibration_s()
        return seconds * (CAL_REF_S / ((before + self.last) / 2)) \
            ** self.exponent


def measure_setup(clock, samples=SETUP_SAMPLES):
    """Median scaled seconds of `import daefix.cli` in a fresh interpreter,
    the cost every CLI call pays; one untimed import first writes
    bytecode."""
    code = ("import sys, time; sys.path.insert(0, %r); "
            "t = time.perf_counter(); import daefix.cli; "
            "sys.stdout.write(repr(time.perf_counter() - t))" % SRC)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    times = []
    for k in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        t = clock.scale(float(done.stdout))
        if k:
            times.append(t)
    return statistics.median(times), len(times)


class OpRecord:
    """Every run of one operation within a benchmark run."""

    def __init__(self, op, paths):
        self.op = op
        self.paths = paths         # one .dae file per variant
        self.seconds = []          # untraced main() spans, scaled
        self.raw_seconds = []      # the same, as the wall clock read them
        self.traced_seconds = []   # scaled
        self.layers = []           # traced summaries
        self.statuses = Counter()
        self.details = []
        self.rss_mb = 0.0
        self.timed_out = False

    @property
    def runs(self):
        return sum(self.statuses.values())

    @property
    def failed_runs(self):
        return sum(v for k, v in self.statuses.items()
                   if k not in (reference.OK, reference.UNVERIFIED))

    def cycled(self, samples):
        """Samples of whole cycles over the variants, so that every
        variant weighs the same; all of them when no cycle completed."""
        k = len(self.paths)
        return samples[:len(samples) // k * k] or samples

    def typical(self, samples):
        """Mean over the variants of each variant's median.  The variants
        of one operation differ in cost (by a fifth for the chain at
        n = 128), and the median of their pooled samples falls in the gap
        between them, where it moves with every sample; the budget when
        there are no samples, and the pooled median when not every
        variant has run."""
        k = len(self.paths)
        groups = [samples[v::k] for v in range(k)]
        if not samples:
            return BUDGET_S
        if not all(groups):
            return statistics.median(samples)
        return statistics.fmean(statistics.median(g) for g in groups)

    def median_s(self):
        return self.typical(self.seconds)

    def raw_median_s(self):
        return self.typical(self.raw_seconds)

    def verdict(self):
        for worst in (reference.WRONG, runner.CRASH, runner.TIMEOUT,
                      reference.UNVERIFIED):
            if self.statuses[worst]:
                return worst
        return reference.OK


def run_once(rec, schemas, clock, traced):
    """One child for one operation, checked outside its timed span.

    A time-out counts as the budget, unscaled."""
    done = len(rec.traced_seconds if traced else rec.seconds)
    path = rec.paths[done % len(rec.paths)]
    out = path + ".json"
    if os.path.exists(out):
        os.remove(out)
    tracer = tracing.Tracer() if traced else None
    got = runner.run([rec.op.command, path, "--json", out], BUDGET_S, tracer)
    rec.rss_mb = max(rec.rss_mb, got.rss_mb)
    if got.failure is not None:
        status, detail = got.failure, got.detail
    else:
        doc = None
        if os.path.exists(out):
            with open(out) as fh:
                doc = json.load(fh)
        status, detail = reference.check(rec.op, got.exit, doc, schemas)
    rec.statuses[status] += 1
    if detail and detail not in rec.details:
        rec.details.append(detail)
    if status == runner.TIMEOUT:
        rec.timed_out = True
    scaled = clock.scale(got.seconds)
    if status == runner.TIMEOUT:
        scaled = BUDGET_S
    if traced:
        rec.traced_seconds.append(scaled)
    else:
        rec.seconds.append(scaled)
        rec.raw_seconds.append(got.seconds)
    if traced and got.layers is not None:
        rec.layers.append(got.layers)


def rounds_for(workload, seconds, traced):
    """Rounds in one benchmark run: ROUNDS_25_S scaled to `seconds`, half
    that with tracing (each round runs every operation twice), in whole
    cycles over the variants."""
    r = ROUNDS_25_S[workload] * seconds / 25.0 / (2 if traced else 1)
    k = workloads.VARIANTS
    return max(k, k * round(r / k))


def measure(records, schemas, clock, rounds, traced):
    """`rounds` rounds over all operations.

    An operation that ran over the budget is not run again in this
    benchmark run: each further attempt would cost the whole budget and
    give the same sample.  With tracing, each round runs an operation
    traced and then plain, on the same variant.
    """
    for _ in range(rounds):
        for rec in records:
            if rec.timed_out:
                continue
            if traced:
                run_once(rec, schemas, clock, True)
                if rec.timed_out:
                    continue
            run_once(rec, schemas, clock, False)


def tail(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100.0 >= 10:
            xs = sorted(samples)
            return "p%d=%.1f" % (p, 1000 * xs[math.ceil(n * p / 100.0) - 1])
    return "-"


def end_to_end(records, setup):
    medians = [r.median_s() for r in records]
    n = len(records)
    return {
        "verdict_ms_geomean": math.exp(
            sum(math.log(1000 * m) for m in medians) / n),
        "pass_s": sum(medians),
        "correct_share": sum(r.failed_runs == 0 for r in records) / n,
        "certain_share": sum(r.statuses[reference.UNVERIFIED] == 0
                             for r in records) / n,
        "peak_rss_mb": max(r.rss_mb for r in records),
        "setup_s": setup,
    }


def print_ops(records):
    print("%-20s %-8s %4s %5s %10s %11s %10s  %s"
          % ("operation", "command", "n", "runs", "median_ms", "tail_ms",
             "raw_ms", "verdict"))
    for r in records:
        verdict = r.verdict()
        if r.details:
            verdict += " (%s)" % "; ".join(r.details)
        print("%-20s %-8s %4d %5d %10.1f %11s %10.1f  %s"
              % (r.op.name, r.op.command, r.op.n, r.runs,
                 1000 * r.median_s(), tail(r.seconds),
                 1000 * r.raw_median_s(), verdict))


def print_layers(metrics):
    print("%-48s %14s  %s" % ("per-layer metric", "value", "unit"))
    for name, unit in tracing.METRICS:
        print("%-48s %14.6g  %s" % (name, metrics[name], unit))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)
    if not os.path.isfile(os.path.join(SRC, "daefix", "cli.py")):
        print("error: no daefix sources under %s" % SRC, file=sys.stderr)
        return 2
    clock = Clock(CAL_EXPONENT[args.workload])
    setup, setup_n = measure_setup(clock)
    sys.path.insert(0, SRC)
    import daefix.cli  # noqa: F401  -- the state every child starts from
    if not os.path.abspath(daefix.cli.__file__).startswith(SRC + os.sep):
        print("error: daefix imported from outside %s" % SRC,
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, ROOT, args.seed)
    schemas = reference.load_schemas(ROOT)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-",
                            dir=os.path.join(ROOT, ".bench_work"))
    try:
        records = []
        for k, op in enumerate(workload.ops):
            paths = []
            for v, text in enumerate(op.texts):
                paths.append(os.path.join(work, "op%02d-%02d.dae" % (k, v)))
                with open(paths[-1], "w") as fh:
                    fh.write(text)
            records.append(OpRecord(op, paths))
        rounds = rounds_for(args.workload, args.seconds, bool(args.trace))
        measure(records, schemas, clock, rounds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    print("workload %s (%s)" % (workload.name, workload.why))
    print("seed %d  PYTHONHASHSEED %s  budget %g s  closed loop, 1 client, "
          "%d rounds" % (args.seed, HASH_SEED, BUDGET_S, rounds))
    print_ops(records)
    if args.trace:
        plain = [r for r in records if r.seconds and r.traced_seconds]
        metrics = tracing.reduce_layers(
            {r.op.name: r.cycled(r.layers) for r in records if r.layers},
            sum(r.typical(r.seconds) for r in plain),
            sum(r.typical(r.traced_seconds) for r in plain))
        print_layers(metrics)
        units = dict(tracing.METRICS)
    else:
        metrics = end_to_end(records, setup)
        units = dict(END_TO_END)
        samples = {"setup_s": "%d imports" % setup_n,
                   "peak_rss_mb": "%d runs" % sum(r.runs for r in records)}
        print("%-20s %14s  %-6s %s" % ("metric", "value", "unit", "samples"))
        for name, unit in END_TO_END:
            print("%-20s %14.6g  %-6s %s"
                  % (name, metrics[name], unit,
                     samples.get(name, "%d operations" % len(records))))
    result = {
        "correct": not any(r.statuses[reference.WRONG] for r in records),
        "attempted": sum(r.runs for r in records),
        "failed": sum(r.failed_runs for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
