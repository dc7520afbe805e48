"""How fast the machine ran, sampled inside each timed child.

The shared host this benchmark was tuned on runs its vCPUs at anywhere
between their best speed and about two thirds of it, in phases of seconds
to minutes; CPU time tracks wall time throughout, so no timer inside the
process can tell the phases apart.  A time taken in a slow phase is
therefore up to 1.5x a time taken in a fast one, and one run of a long
pass lands in whatever mix of phases it gets.

Every timed child therefore runs a small fixed probe (products of two dense
polynomials stored as dicts from exponent tuples, the same kind of work as
the program's own arithmetic) from a ``SIGALRM`` handler every
``PERIOD_S`` seconds.  An interval is then rescaled to the reference speed:
its length, less the time spent in the handler, times the mean of
``P_REF_S / probe time`` over the samples taken in it.  That is the time
the interval would have taken on the machine at the speed where the probe
takes ``P_REF_S``.  The program cannot change the probe, so any change in
the program's own work still shows one for one.
"""

import gc
import signal
import time

PERIOD_S = 0.02
# Probe time in a fast phase of the 2-vCPU host the benchmark was tuned on
# (about its first quartile while a semigroup-canonical pass runs).
P_REF_S = 0.00015

VARS = 4


def _form(degree, seed):
    """Dense form in four variables with fixed nonzero coefficients."""
    def exps(d, n):
        if n == 1:
            return [(d,)]
        return [(e,) + rest for e in range(d, -1, -1) for rest in exps(d - e, n - 1)]
    out, c = {}, seed
    for e in exps(degree, VARS):
        c = (c * 1103515245 + 12345) % 32003 or 1
        out[e] = c
    return out


_F = _form(2, 7)
_G = _form(2, 11)


def _mul(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            k = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            out[k] = (out.get(k, 0) + ca * cb) % 32003
    return out


def probe():
    """Seconds taken by three products of two 10-term quadrics.

    One untimed product comes first, so that the probe runs from warm
    caches and measures the machine's speed rather than how much of the
    cache the program has used.  The cyclic GC is held off, so that a
    collection of the program's heap does not land in the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _mul(_F, _G)
        start = time.monotonic()
        for _ in range(3):
            _mul(_F, _G)
        return time.monotonic() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the probe every PERIOD_S seconds while started.

    ``samples`` holds ``(time, probe seconds, handler seconds)``, all on the
    ``time.monotonic`` clock, which the parent shares.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum=None, frame=None):
        start = time.monotonic()
        took = probe()
        self.samples.append((start, took, time.monotonic() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling and take one last sample, so that every interval
        has a sample after it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def scaled(self, t0, t1):
        """Seconds [t0, t1] would have taken at the reference speed."""
        return scaled(self.samples, t0, t1)

    def handler_s(self, t0, t1):
        """Seconds spent in the handler by samples taken in [t0, t1]."""
        return sum(s[2] for s in self.samples if t0 <= s[0] < t1)

    def summary(self, until=None):
        """For an interval that the parent times from outside, from the
        child's spawn to ``until`` (its exit if None): the factor over the
        samples taken in it and the one after, and the handler time."""
        if until is None:
            until = float("inf")
        taken = [s for s in self.samples if s[0] < until]
        after = self.samples[len(taken):len(taken) + 1]
        return {"factor": factor(taken + after),
                "handler_s": sum(s[2] for s in taken),
                "samples": len(taken + after)}


def from_outside(summary, seconds):
    """Parent side of ``Sampler.summary``: seconds measured from outside,
    less the handler time, at the reference speed."""
    return (seconds - summary["handler_s"]) * summary["factor"]


def factor(samples):
    return sum(P_REF_S / s[1] for s in samples) / len(samples)


def scaled(samples, t0, t1):
    """(t1 - t0 - handler time inside) x factor of the samples inside
    [t0, t1] and of the nearest one on each side."""
    lo = hi = None
    inside, handler = [], 0.0
    for s in samples:
        if s[0] < t0:
            lo = s
        elif s[0] < t1:
            inside.append(s)
            handler += s[2]
        elif hi is None:
            hi = s
    around = [s for s in (lo, hi) if s is not None] + inside
    return (t1 - t0 - handler) * factor(around)
