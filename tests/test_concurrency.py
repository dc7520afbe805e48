"""The README's concurrency promise: modules shared between threads give the
same answers as a sequential run, with every cache cold at the start (each
round empties the ring registry through the ``cold_rings`` fixture)."""

import sys
import threading

from liaison import cli
from liaison.homalg import (
    change_of_rings,
    ext,
    ext_vanishes,
    free_resolution,
    level_module,
    lift_chain_map,
    tor_vanishes,
)
from liaison.linkage import (
    canonical_module,
    homothety_map,
    link_operator,
    natural_cyclic_epi,
    reflexive_epi,
)
from liaison.modules import (
    annihilator,
    colon,
    cyclic_module,
    free_module,
    grade,
    hom_induced_post,
    hom_module,
    identity_map,
    is_iso,
    kernel,
    subquotient,
    tensor_map,
)
from liaison.ring import make_ring, parse_poly

from tests.polyref import (
    column_relations,
    express,
    ideal,
    ideal_strings,
    one,
    poly_map,
    tracked_engine,
    vec_combine,
)

THREADS = 8
SEMIGROUP_GALLERIES = ("semigroup-345", "foxby-roundtrip", "adjoint-transfer")
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
    """Hilbert functions, Betti numbers, grades, vanishing, annihilators and
    a colon of the shared work.  Over the semigroup ring, Ext into the
    canonical module is decided over the polynomial ring, inside the
    quotient ring's memo."""
    out = []
    for M, R1 in pairs:
        ctx = M.ctx
        K = canonical_module(ctx)
        res = free_resolution(M, 3)
        ann = annihilator(M)
        socle = colon(ann[:1], ideal(ctx, ctx.gens()), ctx)
        out.append((
            [[ext(i, M, R1).hf(d) for d in WINDOW] for i in range(3)],
            res.betti_numbers(),
            sorted(res.betti().items()),
            grade(M),
            [(tor_vanishes(i, M, M), ext_vanishes(i, M, R1), ext_vanishes(i, M, K))
             for i in range(3)],
            [ideal_strings(ctx, gens) for gens in (ann, annihilator(K), socle)],
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


def test_shared_modules_across_threads(cold_rings):
    expected = summary(fresh_modules())
    for _ in range(ROUNDS):
        cold_rings()
        shared = fresh_modules()
        # half the threads start at the other module, so more first
        # computations race
        results = run_threads(
            lambda k: summary(shared[::-1])[::-1] if k % 2 else summary(shared)
        )
        assert all(r == expected for r in results)


def test_resolution_lengths_across_threads(cold_rings):
    # no lock guards the resolutions: each length is its own memo entry,
    # built from the one below it, so every order of asking agrees
    lengths = list(range(5))
    expected = resolutions(fresh_modules(), lengths)
    for _ in range(ROUNDS):
        cold_rings()
        shared = fresh_modules()
        results = run_threads(
            lambda k: resolutions(shared, lengths[k % 5:] + lengths[:k % 5])
        )
        assert all(r == expected for r in results)


def test_change_of_rings_across_threads(cold_rings):
    # every thread passing to R/(c) with the same c gets the one stored ring
    for _ in range(ROUNDS):
        cold_rings()
        S = make_ring(101, ["x", "y", "z", "w"])
        c = ideal(S, [parse_poly(S, f) for f in ("x*z - y^2", "y*w - z^2")])
        R1 = free_module(S, 1)
        rings = run_threads(lambda k: change_of_rings(S, c, R1)[0])
        assert all(ctx2 is rings[0] for ctx2 in rings)


def module_with_vectors():
    """A cold rank-2 module over the (3, 4, 5) semigroup ring, and one
    element of it per thread, each a different combination of its
    generators and relations."""
    R = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                  weights=[3, 4, 5])
    x, y, z = (R.var(k) for k in range(3))
    M = subquotient(R, [(y, x), (z, y), (x * x, z), (x * z, x * y)],
                    [(y * z, x * z)], (0, 1))
    cols = list(M.gens) + list(M.rels)  # of degrees 4, 5, 6, 8 and 9
    coeffs = [(z, y, x, R.zero(), one(R)), (x * x, z, y, R.zero(), R.zero()),
              (y * y, x * y, x * x, y, x), (y * z, x * z, x * y, z, y)]
    vectors = [vec_combine(cols, c, R, 2) for c in coeffs]
    vectors += [tuple(x * f for f in v) for v in vectors]
    return M, vectors


def engine_state(eng):
    # a basis vector's certificate is held under its negative keys
    return ([sorted(v.items()) for v in eng.basis],
            [sorted((k, c) for k, c in v.items() if k < 0) for v in eng.basis],
            list(eng.leads),
            [sorted(c.items()) for c in eng.syzygies])


def test_module_engine_across_threads(cold_rings):
    # one engine per module presentation, stored once and only ever read
    M0, vectors = module_with_vectors()
    coords = [express(M0, v) for v in vectors]
    relations = column_relations(M0)
    for _ in range(ROUNDS):
        cold_rings()
        M, vectors = module_with_vectors()
        fresh = tracked_engine(M.ctx, list(M.gens), M.rank, M.shifts, M.rels)
        results = run_threads(lambda k: (express(M, vectors[k]),
                                         column_relations(M), M.gens_engine()))
        eng = results[0][2]
        assert all(r[2] is eng for r in results)
        assert [r[0] for r in results] == coords
        assert all(r[1] == relations for r in results)
        assert engine_state(eng) == engine_state(fresh)


def resolve_and_lift(M, order):
    """The chain lifts of the identity of M at each length, asked for in
    ``order``, and the engine of each nonzero level of M's resolution."""
    maps = {}
    for n in order:
        free_resolution(M, n)
        maps[n] = lift_chain_map(identity_map(M), n)
    res = free_resolution(M, max(order))
    engines = [level_module(M, res, k).gens_engine()
               for k in range(len(res.level_shifts)) if res.rank(k)]
    return maps, engines


def test_level_engines_across_threads(cold_rings):
    # each resolution level of a cold module has one stored engine, which
    # every thread lifts through
    lengths = list(range(4))
    expected, _ = resolve_and_lift(module_with_vectors()[0], lengths)
    for _ in range(ROUNDS):
        cold_rings()
        M, _ = module_with_vectors()
        results = run_threads(
            lambda k: resolve_and_lift(M, lengths[k % 4:] + lengths[:k % 4])
        )
        assert all(maps == expected for maps, _ in results)
        engines = results[0][1]
        assert len(engines) == 4
        assert all(len(e) == 4 and all(a is b for a, b in zip(e, engines))
                   for _, e in results)


def map_work(M, K, g):
    """Hom(K, M), each of its generators as a map phi: K -> M through the
    converter, and g o phi with the maps it induces on K (x) - and Hom(K, -),
    the latter composed with the homothety R -> Hom(K, K): their columns,
    a kernel's Hilbert numerator and isomorphism tests."""
    H, conv = hom_module(K, M)
    theta = homothety_map(K)
    out = []
    for vec, d in zip(H._gens, H.gen_degrees()):
        phi = conv(H.express_in_gens(vec), degree=d)
        gphi = g.compose(phi)
        post = hom_induced_post(gphi, K)
        tens = tensor_map(gphi, K)
        out.append((phi.cols, gphi.cols, post.compose(theta).cols, tens.cols,
                    kernel(tens)[0].hilbert().numerator, is_iso(phi), is_iso(post)))
    return out


def module_and_map():
    """The cold rank-2 module, the canonical module of its ring, and
    multiplication by x on the module."""
    M = module_with_vectors()[0]
    R, n = M.ctx, len(M._gens)
    x = R.var(0)
    g = poly_map(M, M, [[x if i == j else R.zero() for i in range(n)] for j in range(n)],
                 degree=3, check=False)
    return M, canonical_module(R), g


def test_maps_across_threads(cold_rings):
    # a map's columns are shared Vecs that nothing writes
    expected = map_work(*module_and_map())
    assert len(expected) > 1 and any(row[0] for row in expected)
    for _ in range(ROUNDS):
        cold_rings()
        M, K, g = module_and_map()
        before = [dict(col) for col in g.cols]
        results = run_threads(lambda k: map_work(M, K, g))
        assert all(r == expected for r in results)
        assert [dict(col) for col in g.cols] == before


def certify_and_link(R, K):
    """The link of R/(x) by R/(x^2), from an epimorphism certified here."""
    x = R.var(0)
    return link_operator(reflexive_epi(
        natural_cyclic_epi(R, ideal(R, [x]), ideal(R, [x * x])), K, "Pn", bound=3))


def test_equal_links_across_threads(cold_rings):
    # each thread certifies its own epimorphism from an equal map; the link
    # is filed under the map's value, so every thread gets the first stored
    for _ in range(ROUNDS):
        cold_rings()
        R = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                      weights=[3, 4, 5])
        K = canonical_module(R)
        links = run_threads(lambda k: certify_and_link(R, K))
        assert all(link is links[0] for link in links)


def gallery_report(name):
    """A gallery's report, less its timestamp, from a spec parsed here."""
    report, _ = cli.run(cli.gallery(name))
    report.pop("timestamp")
    return report


def test_gallery_specs_across_threads(cold_rings):
    # the three galleries over the (3, 4, 5) semigroup ring parse to one
    # ring, so threads that each parse a spec and run its ops race on one
    # cache (two threads that miss the registry together may each build the
    # ring, which loses only the sharing); every report equals the one a
    # sequential run gives
    expected = {name: gallery_report(name) for name in SEMIGROUP_GALLERIES}
    cold_rings()
    reports = run_threads(lambda k: gallery_report(SEMIGROUP_GALLERIES[k % 3]))
    assert all(r == expected[SEMIGROUP_GALLERIES[k % 3]] for k, r in enumerate(reports))


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
