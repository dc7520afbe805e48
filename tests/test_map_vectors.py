"""Maps hold engine vectors: the map layer against the Poly-tuple map code
it replaced (``tests.polyref``), the galleries converting between ``Vec``
and ``Poly`` only where specs are parsed and reports printed, and
injectivity and isomorphism read from Hilbert series against the kernel
and cokernel modules."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from liaison import cli, groebner, linkage, modules, ring
from liaison.errors import IllDefinedMap, RingMismatch
from liaison.groebner import Vec, _polys
from liaison.homalg import free_resolution
from liaison.modules import (
    GradedModule,
    ModuleMap,
    _dual_map,
    cokernel,
    direct_sum,
    free_module,
    hom_induced_post,
    hom_module,
    is_injective,
    is_iso,
    kernel,
    minimize,
    subquotient,
    tensor_map,
)
from liaison.ring import make_ring, render_poly

from tests import polyref
from tests.polyref import PolyMap, coords, express, matrix, module, poly_map, unit
from tests.test_engine_vectors import (
    SEMIGROUP_345,
    SEMIGROUP_4567,
    _draw_form,
    _draw_nonzero_vector,
    _draw_vector,
)


def _draw_matrix(data, ctx, src_degs, tgt_degs, degree):
    """Poly coordinates of a homogeneous map of this degree: entry (i, j) of
    degree src_degs[j] + degree - tgt_degs[i], or 0."""
    return [tuple(_draw_form(data, ctx, s + degree - t) for t in tgt_degs)
            for s in src_degs]


def _ref_is_iso(f):
    src, tgt = f.source, f.target
    ker = [polyref.vec_combine(src.gens, u, src.ctx, src.rank)
           for u in polyref.kernel_matrix(f)]
    return (module(src.ctx, src.rank, src.shifts, ker, src.rels).is_zero()
            and module(tgt.ctx, tgt.rank, tgt.shifts, tgt.gens,
                       list(tgt.rels) + f.image_columns_ambient()).is_zero())


def _render(cols):
    return [[render_poly(f) for f in col] for col in cols]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_map_layer_matches_the_poly_reference(data):
    ctx = data.draw(st.sampled_from([SEMIGROUP_345, SEMIGROUP_4567]))
    rank = data.draw(st.integers(1, 3))
    shifts = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
    low = min(ctx.weights) + max(shifts)

    def vector(draw=_draw_vector):
        return draw(data, ctx, shifts, data.draw(st.integers(low, low + 4)))

    # the first generator is nonzero, so N has one; the smallest degree of
    # the position of the largest shift is a weight, which has a monomial
    gens = [vector(_draw_nonzero_vector)] + [vector() for _ in range(data.draw(st.integers(0, 2)))]
    N = subquotient(ctx, gens, [vector() for _ in range(data.draw(st.integers(0, 2)))], shifts)
    dn = N.gen_degrees()
    # f: F -> N from a free module, any matrix of the right degrees
    src_degs = [data.draw(st.sampled_from(dn)) + data.draw(st.integers(0, 5))
                for _ in range(data.draw(st.integers(1, 3)))]
    F = free_module(ctx, len(src_degs), src_degs)
    mat_f = _draw_matrix(data, ctx, src_degs, dn, 0)
    f, ref_f = poly_map(F, N, mat_f), PolyMap(F, N, mat_f)
    # g: N -> N, multiplication by a form r of degree e
    e = data.draw(st.sampled_from([0, 0, min(ctx.weights), max(ctx.weights)]))
    r = _draw_form(data, ctx, e)
    mat_g = [tuple(r if i == j else ctx.zero() for i in range(len(dn))) for j in range(len(dn))]
    g, ref_g = poly_map(N, N, mat_g, e), PolyMap(N, N, mat_g, e)
    assert matrix(f) == list(ref_f.mat) and matrix(g) == list(ref_g.mat)

    # apply_coords, compose and the ambient image columns
    top = max(src_degs) + data.draw(st.integers(0, 4))
    u = tuple(_draw_form(data, ctx, top - d) for d in src_degs)
    assert _polys(ctx, f.apply_coords(coords(ctx, u, len(src_degs))), len(dn)) == (
        ref_f.apply_coords(u))
    h, ref_h = g.compose(f), ref_g.compose(ref_f)
    assert matrix(h) == list(ref_h.mat) and h.degree == ref_h.degree == e
    assert [_polys(ctx, v, N.rank) for v in h.image_columns_ambient()] == (
        ref_h.image_columns_ambient())

    # kernels, cokernels and isomorphisms
    for m, ref in ((h, ref_h), (g, ref_g)):
        assert matrix(kernel(m)[1]) == polyref.kernel_matrix(ref)
    C, proj = cokernel(h)
    rels = polyref.buchberger(list(N.rels) + ref_h.image_columns_ambient(), ctx,
                              N.rank, N.shifts)
    assert C.to_json()["rels"] == _render(polyref.vectors(rels))
    assert C.to_json()["gens"] == _render(N.gens)
    assert matrix(proj) == [unit(ctx, len(dn), j) for j in range(len(dn))]
    assert is_iso(g) == _ref_is_iso(ref_g)

    # Hom: the dual of a matrix, the converter, and the map Hom(N, h) induces
    src, tgt = src_degs[:2], [d + data.draw(st.integers(0, 5)) for d in src_degs]
    rows = [tuple(_draw_form(data, ctx, t - s) for t in tgt) for s in src]
    dual = _dual_map(N, src, tgt, [coords(ctx, row, len(tgt)) for row in rows])
    ref_dual = polyref.dual_map(N, src, tgt, rows)
    assert (dual.source, dual.target) == (ref_dual.source, ref_dual.target)
    assert matrix(dual) == list(ref_dual.mat)
    H, conv = hom_module(N, N)
    ref_H, ref_conv = polyref.hom_module(N, N)
    assert H == ref_H
    for j, d in enumerate(H.gen_degrees()):
        e_j = unit(ctx, len(H._gens), j)
        want = ref_conv(e_j, degree=d)
        assert matrix(conv(coords(ctx, e_j, len(H._gens)), degree=d)) == list(want.mat)
    post = hom_induced_post(h, N)
    ref_post = polyref.hom_induced_post(ref_h, N)
    assert (post.source, post.target) == (ref_post.source, ref_post.target)
    assert matrix(post) == list(ref_post.mat) and post.degree == e

    # tensor, direct sums and minimization
    tm = tensor_map(h, N)
    ref_tm = polyref.tensor_map(ref_h, N)
    assert (tm.source, tm.target) == (ref_tm.source, ref_tm.target)
    assert matrix(tm) == list(ref_tm.mat) and tm.degree == e
    S, injections, projections = direct_sum(F, N)
    total, start = len(S._gens), 0
    for M, inj, pr in zip((F, N), injections, projections):
        n = len(M._gens)
        assert matrix(inj) == [unit(ctx, total, start + j) for j in range(n)]
        assert matrix(pr) == [unit(ctx, n, k - start) for k in range(total)]
        start += n
    Mmin, proj, incl = minimize(N)
    assert matrix(incl) == [unit(ctx, len(dn), i) for i in free_resolution(N, 0).kept]
    assert matrix(proj) == [express(Mmin, col) for col in N.gens]


# ---------------------------------------------------------------------------
# injectivity and isomorphism from Hilbert series

MAP_RINGS = {
    "F_101[x,y]": make_ring(101, ["x", "y"]),
    "<3,4,5>": SEMIGROUP_345,
    "<4,5,6,7>": SEMIGROUP_4567,
}


def _draw_subquotient(data, ctx):
    """A module of rank 1 or 2 with one to three generators, the first
    nonzero, and up to two relations."""
    rank = data.draw(st.integers(1, 2))
    shifts = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
    low = min(ctx.weights) + max(shifts)

    def vector(draw=_draw_vector):
        return draw(data, ctx, shifts, data.draw(st.integers(low, low + 3)))

    gens = [vector(_draw_nonzero_vector)] + [vector() for _ in range(data.draw(st.integers(0, 2)))]
    return subquotient(ctx, gens, [vector() for _ in range(data.draw(st.integers(0, 2)))], shifts)


def test_injectivity_and_isomorphism_match_the_kernel():
    """``is_injective`` and ``is_iso``, which build no kernel, against the
    kernel and cokernel modules tested for zero, on random homogeneous maps
    into subquotients over F_101[x,y] and the monomial curves (t^3, t^4,
    t^5) and (t^4, t^5, t^6, t^7): maps from free modules, of degree 0 or a
    weight, and multiplication by a form on the module, of degree 0 or a
    weight.  Each answer comes out both ways, on maps of both degrees."""
    outcomes = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(MAP_RINGS)))
        ctx = MAP_RINGS[name]
        N = _draw_subquotient(data, ctx)
        dn = N.gen_degrees()
        degree = data.draw(st.sampled_from([0, min(ctx.weights), max(ctx.weights)]))
        if data.draw(st.booleans()):
            src_degs = [data.draw(st.sampled_from(dn)) + data.draw(st.integers(0, 3))
                        for _ in range(data.draw(st.integers(1, 2)))]
            f = poly_map(free_module(ctx, len(src_degs), src_degs), N,
                         _draw_matrix(data, ctx, src_degs, dn, degree), degree)
        else:
            r = _draw_form(data, ctx, degree)
            f = poly_map(N, N, [tuple(r if i == j else ctx.zero() for i in range(len(dn)))
                                for j in range(len(dn))], degree)
        injective = kernel(f)[0].is_zero()
        iso = injective and cokernel(f)[0].is_zero()
        assert is_injective(f) == injective
        assert is_iso(f) == iso
        outcomes["injective", injective, degree > 0] += 1
        outcomes["iso", iso] += 1
        outcomes[name] += 1

    check()
    for key in [("injective", answer, positive) for answer in (True, False)
                for positive in (True, False)] + [("iso", True), ("iso", False), *MAP_RINGS]:
        assert outcomes[key] >= 5, outcomes


# ---------------------------------------------------------------------------
# conversions only at the edges


def test_semigroup_galleries_convert_only_at_the_edges(monkeypatch, cold_rings):
    """The ten galleries in one process, each on its own cold ring, convert
    between ``Poly`` and ``Vec`` only at the edges.  ``_to_internal``, and
    the exported entrances that take ``Poly`` generators (``subquotient``,
    ``cyclic_module``, ``cyclic_link``), run only under ``cli.parse_spec``;
    ``_polys`` runs only while printing: ``to_json``, the ``gens``/``rels``
    views and ``_ideal_strings``; any other ``Poly`` is built only under
    ``parse_spec``, ring construction (``make_ring``, ``_make_ring``) or
    printing; and no package code calls ``Poly``'s ``+``, ``-``, ``*`` or
    ``scale``."""
    calls, printing = Counter(), [0]

    def count(name, fn):
        def counted(*args, **kwargs):
            frame, on = sys._getframe(1), set()
            while frame is not None:
                on.add((frame.f_globals.get("__name__"), frame.f_code.co_name))
                frame = frame.f_back
            calls[name, ("liaison.cli", "parse_spec") in on,
                  bool(on & {("liaison.ring", "make_ring"), ("liaison.ring", "_make_ring")}),
                  bool(printing[0])] += 1
            return fn(*args, **kwargs)
        return counted

    def printing_in(fn):
        def inner(*args):
            printing[0] += 1
            try:
                return fn(*args)
            finally:
                printing[0] -= 1
        return inner

    for name, wrap in [("_to_internal", count), ("_polys", count),
                       ("subquotient", count), ("cyclic_module", count),
                       ("cyclic_link", count), ("_ideal_strings", printing_in)]:
        originals = {getattr(mod, name) for mod in (groebner, ring, modules, linkage)
                     if hasattr(mod, name)}
        for module_name, mod in list(sys.modules.items()):
            if module_name.startswith("liaison") and getattr(mod, name, None) in originals:
                fn = getattr(mod, name)
                monkeypatch.setattr(mod, name, count(name, fn) if wrap is count else wrap(fn))
    for name in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "scale"):
        monkeypatch.setattr(ring.Poly, name, count(name, getattr(ring.Poly, name)))
    monkeypatch.setattr(GradedModule, "to_json", printing_in(GradedModule.to_json))
    for name in ("gens", "rels"):
        monkeypatch.setattr(GradedModule, name,
                            property(printing_in(getattr(GradedModule, name).fget)))
    for name in sorted(cli.GALLERIES):
        cold_rings()
        assert cli.run(cli.gallery(name))[1] == (name == "mixed-ideal-negative")
    names = {key[0] for key in calls}
    assert {"_to_internal", "_polys", "__init__"} <= names
    edges = ("_to_internal", "subquotient", "cyclic_module", "cyclic_link")
    assert [key for key in calls if key[0] in edges and not key[1]] == []
    assert [key for key in calls if key[0] == "_polys" and not key[3]] == []
    assert [key for key in calls if key[0] == "__init__" and not any(key[1:])] == []
    assert names <= {*edges, "_polys", "__init__"}


def test_map_columns_are_checked_key_by_key():
    ctx = SEMIGROUP_345
    x, y = ctx.var(0), ctx.var(1)
    F = free_module(ctx, 2, (0, 1))
    R1 = free_module(ctx, 1)
    # entry (0, 1) must have degree 1 + 3 - 0 = 4: x has 3, x^2 + y mixes 6 and 4
    for entry in (x, x * x + y):
        with pytest.raises(IllDefinedMap, match=r"entry \(0,1\)"):
            poly_map(F, R1, [(x,), (entry,)], degree=3)
    assert matrix(poly_map(F, R1, [(x,), (y,)], degree=3)) == [(x,), (y,)]
    # a key past the target's generators
    with pytest.raises(IllDefinedMap, match="height"):
        ModuleMap(R1, R1, [Vec({1 << ctx._pk.span: 1})])
    # one column for two source generators, and a target over another ring
    with pytest.raises(IllDefinedMap, match="width"):
        ModuleMap(F, R1, [Vec()])
    with pytest.raises(RingMismatch):
        ModuleMap(R1, free_module(make_ring(101, ["x"]), 1), [Vec()])
