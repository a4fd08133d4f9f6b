"""Runs one CLI call in a child forked from a parent that has done nothing
but `import daefix.cli`.

Each child starts from the same clean state, so no operation sees a cache
that an earlier one warmed (expr._SIMPLIFY_CACHE lives for the whole
process), and timings do not depend on the order of operations.  The
timed span is the main() call inside the child; the parent enforces the
wall-clock budget and reads the peak resident set size from wait4.
"""

import io
import json
import os
import resource
import select
import signal
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

# Address-space cap for one child, so a runaway expansion fails with
# MemoryError instead of taking the machine's memory.
CHILD_AS_BYTES = 2 << 30

CRASH = "crash"
TIMEOUT = "timeout"

# A traced child stops itself at the budget so that the spans of a
# time-out still come back; the parent kills it if it has not reported
# this long after the budget.
TRACED_GRACE_S = 5.0


class BudgetExceeded(BaseException):
    """Raised in a traced child by its own timer at the budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class Outcome:
    """What one child reported, or why it reported nothing."""

    exit: Optional[int]      # daefix exit code, None when it never returned
    seconds: float           # timed main() span, or the budget on time-out
    rss_mb: float            # child ru_maxrss
    failure: Optional[str] = None   # CRASH or TIMEOUT
    detail: str = ""
    layers: Optional[dict] = None   # per-layer totals from a traced child


def _child(argv, budget, tracer, wfd):
    try:
        resource.setrlimit(resource.RLIMIT_AS,
                           (CHILD_AS_BYTES, CHILD_AS_BYTES))
        if tracer is not None:
            tracer.install()
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, budget)
        import daefix.cli
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = time.perf_counter()
                rc = daefix.cli.main(argv)
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            payload = {"exit": rc, "seconds": dt}
        except BudgetExceeded:
            payload = {"timeout": True}
        if tracer is not None:
            payload["layers"] = tracer.summary()
    except BaseException:  # the parent records the crash; nothing re-raises
        payload = {"crash": traceback.format_exc(limit=4)}
    data = json.dumps(payload).encode()
    while data:
        data = data[os.write(wfd, data):]


def run(argv, budget, tracer=None) -> Outcome:
    """Runs daefix.cli.main(argv) in a forked child within `budget` seconds.

    tracer, when given, is installed in the child only, and its summary()
    comes back in Outcome.layers.
    """
    rfd, wfd = os.pipe()
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(rfd)
            _child(argv, budget, tracer, wfd)
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(wfd)
    hard = budget + (TRACED_GRACE_S if tracer is not None else 0.0)
    chunks, timed_out, finished = [], False, False
    try:
        while True:
            left = start + hard - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                finished = True
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if not finished:  # over the budget, or the parent was interrupted
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        return Outcome(None, float(budget), rss_mb, TIMEOUT,
                       "over the %g s budget" % budget)
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        return Outcome(None, time.monotonic() - start, rss_mb, CRASH,
                       "child died with status %d" % status)
    if "crash" in payload:
        return Outcome(None, time.monotonic() - start, rss_mb, CRASH,
                       payload["crash"].strip().splitlines()[-1])
    if "timeout" in payload:
        return Outcome(None, float(budget), rss_mb, TIMEOUT,
                       "over the %g s budget" % budget,
                       layers=payload.get("layers"))
    return Outcome(payload["exit"], payload["seconds"], rss_mb,
                   layers=payload.get("layers"))
