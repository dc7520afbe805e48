"""The README's concurrency promise: modules shared between threads give the
same answers as a sequential run, with every cache cold at the start."""

import sys
import threading

from liaison.homalg import (
    change_of_rings,
    ext,
    ext_vanishes,
    free_resolution,
    tor_vanishes,
)
from liaison.linkage import canonical_module
from liaison.modules import cyclic_module, free_module, grade
from liaison.ring import make_ring, parse_poly

THREADS = 8
ROUNDS = 3
WINDOW = range(-4, 9)


def fresh_modules():
    """New rings and modules, so that no cache entry exists yet."""
    S = make_ring(101, ["x", "y", "z", "w"])
    cubic = [parse_poly(S, f) for f in ("x*z - y^2", "y*w - z^2", "x*w - y*z")]
    R = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                  weights=[3, 4, 5])
    return [
        (cyclic_module(S, cubic), free_module(S, 1)),
        (cyclic_module(R, [R.var(0)]), free_module(R, 1)),
    ]


def summary(pairs):
    """Hilbert functions, Betti numbers, grades and vanishing of the shared
    work.  Over the semigroup ring, Ext into the canonical module is decided
    over the polynomial ring, inside the quotient ring's memo."""
    out = []
    for M, R1 in pairs:
        K = canonical_module(M.ctx)
        res = free_resolution(M, 3)
        out.append((
            [[ext(i, M, R1).hf(d) for d in WINDOW] for i in range(3)],
            res.betti_numbers(),
            sorted(res.betti().items()),
            grade(M),
            [(tor_vanishes(i, M, M), ext_vanishes(i, M, R1), ext_vanishes(i, M, K))
             for i in range(3)],
        ))
    return out


def resolutions(pairs, order):
    """Betti numbers, completeness and generator degrees of each module's
    resolution at every length, asked for in ``order``."""
    out = {}
    for index, (M, _) in enumerate(pairs):
        for n in order:
            res = free_resolution(M, n)
            out[(index, n)] = (res.betti_numbers(), res.complete, res.level_shifts)
    return out


def test_shared_modules_across_threads():
    expected = summary(fresh_modules())
    for _ in range(ROUNDS):
        shared = fresh_modules()
        # half the threads start at the other module, so more first
        # computations race
        results = run_threads(
            lambda k: summary(shared[::-1])[::-1] if k % 2 else summary(shared)
        )
        assert all(r == expected for r in results)


def test_resolution_lengths_across_threads():
    # no lock guards the resolutions: each length is its own memo entry,
    # built from the one below it, so every order of asking agrees
    lengths = list(range(5))
    expected = resolutions(fresh_modules(), lengths)
    for _ in range(ROUNDS):
        shared = fresh_modules()
        results = run_threads(
            lambda k: resolutions(shared, lengths[k % 5:] + lengths[:k % 5])
        )
        assert all(r == expected for r in results)


def test_change_of_rings_across_threads():
    # every thread passing to R/(c) with the same c gets the one stored ring
    for _ in range(ROUNDS):
        S = make_ring(101, ["x", "y", "z", "w"])
        c = [parse_poly(S, f) for f in ("x*z - y^2", "y*w - z^2")]
        R1 = free_module(S, 1)
        rings = run_threads(lambda k: change_of_rings(S, c, R1)[0])
        assert all(ctx2 is rings[0] for ctx2 in rings)


def run_threads(task):
    """[task(k) for k < THREADS], each call in a thread of its own, with
    thread switches as frequent as the interpreter allows."""
    results, errors = [None] * THREADS, []

    def work(k):
        try:
            results[k] = task(k)
        except Exception as exc:  # reported below with the thread's index
            errors.append((k, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return results
