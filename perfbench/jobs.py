"""
Jobs and the closed-loop runner shared by every workload.

A job is three callables: `prepare()` builds the job's inputs, `run(inputs)`
is the timed call into the package, and `check(inputs, result)` verifies the
result by an independent route.  Only `run` is inside the timed interval.
One client sends the jobs back to back, in one thread.

The CPU speed of a shared host can swing by a factor of two within seconds
(a fixed Python loop took 2.1 to 4.0 ms from one second to the next on the
2-core x86_64 VM this benchmark was written on).  `SpeedMeter` therefore
runs a fixed reference computation from a SIGALRM handler every
`PROBE_EVERY_S`, during jobs as well, and each job's time is rescaled to
the reference speed by the probes taken during and around it, after the
probes' own time is taken out.  The reference code is part of the
benchmark, not of the package, so a change to the package moves the job
times and not the probe.  Raw times are kept next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
import traceback

PROBE_EVERY_S = 0.1
PROBE_ITERATIONS = 200
REFERENCE_PROBE_S = 0.003  # the probe's time at the reference speed


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


_MATS = [tuple(tuple((i * 7 + r * 3 + c) % 3 - 1 for c in range(4))
               for r in range(4)) for i in range(64)]


def reference_work(n=PROBE_ITERATIONS):
    """Tuple-matrix products looked up in a dict, and a list convolution
    mod p: the shapes of the package's kernel and series loops, in code
    that never changes with the package."""
    index = {}
    acc = 0
    for i in range(n):
        m = _mat_mul(_MATS[i % 64], _MATS[(i * 5) % 64])
        acc += index.setdefault(m, len(index))
    a = [i % 3 for i in range(n)]
    out = [0] * (2 * n)
    for i, x in enumerate(a):
        if x:
            for j in range(16):
                out[i + j] = (out[i + j] + x * a[j]) % 3
    return acc + sum(out)


def probe():
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples the reference speed every PROBE_EVERY_S while active."""

    def __init__(self):
        self.samples = []  # (perf_counter at its start, seconds) per probe

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), probe()))

    @property
    def probes(self):
        return [s for _, s in self.samples]

    def rescale(self, t0, t1):
        """The job time of [t0, t1] without the probes inside it, and the
        same at the reference speed (by the mean of the probes within
        PROBE_EVERY_S of the job)."""
        def at(t, side=bisect.bisect_left):
            return side(self.samples, t, key=lambda s: s[0])
        own = t1 - t0 - sum(s for _, s in self.samples[at(t0):at(t1)])
        near = [s for _, s in self.samples[
            max(0, at(t0 - PROBE_EVERY_S) - 1):
            at(t1 + PROBE_EVERY_S, bisect.bisect_right) + 1]]
        return own, own * REFERENCE_PROBE_S * len(near) / sum(near)


def central_shift(family, size, c):
    """c times a coweight orthogonal to every root (zero for semisimple
    groups): z_{mu + shift} is T_{t_shift} z_mu, at the same cost."""
    if family == "GL":
        return (c,) * size
    if family == "GSp":
        return (c,) * (size // 2) + (2 * c,)
    return (0,) * (size - 1 if family == "SL" else size // 2)


def shifted(mu, svec):
    return tuple(a + b for a, b in zip(mu, svec))


class CheckFailed(Exception):
    """A job's result disagrees with its independent route."""


class KnownDefect(Exception):
    """A malformed request hit a documented defect of the package.

    Such outcomes are tallied on their own line of the report, not as
    failed jobs, so that a fix shows as the tally dropping to zero.
    """


class Unchecked(Exception):
    """The result is acceptable but nothing could be verified (for example
    an INDETERMINATE row): the job neither fails nor counts as checked."""


class Job:
    __slots__ = ("id", "size_class", "kind", "prepare", "run", "check")

    def __init__(self, size_class, kind, run, check, prepare=None):
        self.id = None
        self.size_class = size_class
        self.kind = kind
        self.prepare = prepare
        self.run = run
        self.check = check


class Outcome:
    """Everything a workload run measured, before it becomes metrics."""

    def __init__(self):
        self.times = []          # seconds per attempted job, rescaled
        self.raw_times = []      # the same, without rescaling
        self.probes = []         # reference-computation seconds over the run
        self.completed = 0       # jobs whose run() returned
        self.failed = 0
        self.checked = 0
        self.unchecked = 0
        self.known_defects = 0
        self.failures = []       # (job id, kind, message), first few only
        self.defects = {}        # kind -> count

    @property
    def attempted(self):
        return len(self.times)

    @property
    def timed_s(self):
        return sum(self.times)


MAX_FAILURE_NOTES = 20


def run_jobs(jobs, tracer=None) -> Outcome:
    out = Outcome()
    spans = []
    with SpeedMeter() as meter:
        for job in jobs:
            t0, t1, result, error = _timed(job, tracer)
            spans.append((t0, t1))
            _settle(out, job, result, error)
    for t0, t1 in spans:
        raw, rescaled = meter.rescale(t0, t1)
        out.raw_times.append(raw)
        out.times.append(rescaled)
    out.probes = meter.probes
    return out


def _timed(job, tracer):
    inputs = job.prepare() if job.prepare is not None else None
    result = error = None
    if tracer is not None:
        tracer.start(job.id)
    t0 = time.perf_counter()
    try:
        result = job.run(inputs)
    except Exception:  # a job that raises is a failed job
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
    return t0, t1, (inputs, result), error


def _settle(out, job, result, error):
    """Check a finished job and count its outcome."""
    if error is None:
        out.completed += 1
        try:
            job.check(*result)
            out.checked += 1
            return
        except Unchecked:
            out.unchecked += 1
            return
        except KnownDefect as exc:
            out.known_defects += 1
            out.defects[job.kind] = out.defects.get(job.kind, 0) + 1
            _note(out, job, f"known defect: {exc}")
            return
        except Exception:  # CheckFailed, or the check itself crashed
            error = traceback.format_exc(limit=3)
    out.failed += 1
    _note(out, job, error)


def _note(out, job, error):
    if len(out.failures) < MAX_FAILURE_NOTES:
        out.failures.append({"job": job.id, "kind": job.kind,
                             "error": error.strip().splitlines()[-1]})


def number(jobs):
    for i, job in enumerate(jobs):
        job.id = i
    return jobs


def quantile(values, p):
    """Inclusive-method quantile (linear interpolation between order
    statistics), p in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(p * 100) - 1]


def beyond(values, p):
    """How many samples lie strictly above the p-quantile."""
    q = quantile(values, p)
    return sum(1 for v in values if v > q)
