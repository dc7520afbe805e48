import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from liaison import groebner
from liaison.cohomology import ring_type
from liaison.errors import IllDefinedMap, InhomogeneousInput, RegularSequenceNotFound
from liaison.groebner import Vec, buchberger
from liaison.homalg import ext, regular_sequence_in_ideal
from liaison.linkage import canonical_module
from liaison.modules import (
    GradedModule,
    _cyclic_module,
    _hom_sum,
    _stacked,
    annihilator,
    cokernel,
    colon,
    cyclic_module,
    direct_sum,
    free_module,
    grade,
    hom_module,
    identity_map,
    image,
    invariants,
    is_iso,
    is_regular_sequence,
    kernel,
    minimize,
    regular_on,
    subquotient,
    tensor,
    twist,
)
from liaison.ring import make_ring, parse_poly

from tests.polyref import (
    ideal,
    ideal_polys,
    ideal_strings,
    matrix,
    module,
    monomial,
    one,
    poly_map,
)
from tests.oracle import (
    hf_of_quotient,
    hf_of_subquotient,
    is_member,
    monomials_of_degree,
)
from tests.test_ext_route import SEMIGROUP_4567, _draw_nonzero_form


def P(ctx, s):
    return parse_poly(ctx, s)


# -- subquotients --------------------------------------------------------------


def test_residue_field_presentation(F101x):
    k = cyclic_module(F101x, [P(F101x, "x")])
    assert [k.hf(d) for d in range(-1, 3)] == [0, 1, 0, 0]
    assert k.dim() == 0


def test_x_mod_x_squared(F101x):
    ctx = F101x
    M = subquotient(ctx, [(P(ctx, "x"),)], [(P(ctx, "x^2"),)], (0,), 1)
    # one-dimensional over k, concentrated in degree 1
    assert [M.hf(d) for d in range(4)] == [0, 1, 0, 0]


def test_gens_equal_rels_is_zero(F101xy):
    ctx = F101xy
    M = subquotient(ctx, [(P(ctx, "x"),)], [(P(ctx, "x"),)], (0,), 1)
    assert M.is_zero()


def test_subquotient_rejects_inhomogeneous(F101xy):
    with pytest.raises(InhomogeneousInput):
        subquotient(F101xy, [(P(F101xy, "x + x^2"),)], [], (0,), 1)


def test_hf_matches_bruteforce_subquotient(F101xy):
    ctx = F101xy
    gens = [(P(ctx, "x"),), (P(ctx, "y^2"),)]
    rels = [(P(ctx, "x^3"),), (P(ctx, "x*y^2"),)]
    M = subquotient(ctx, gens, rels, (0,), 1)
    for d in range(6):
        assert M.hf(d) == hf_of_subquotient(ctx, 1, (0,), gens, rels, d)


# -- kernels, cokernels, images ------------------------------------------------


def test_kernel_of_projection_to_quotient(F101x):
    ctx = F101x
    R = free_module(ctx, 1)
    Q = cyclic_module(ctx, [P(ctx, "x")])
    f = poly_map(R, Q, [[one(ctx)]])
    K, incl = kernel(f)
    assert not K.is_zero()
    assert ideal_strings(ctx, annihilator(cokernel(incl)[0])) == ["x"]
    # the kernel is the principal ideal (x): HF 0,1,1,1,...
    assert [K.hf(d) for d in range(4)] == [0, 1, 1, 1]


def test_kernel_of_identity_is_zero(F101xy):
    M = cyclic_module(F101xy, [P(F101xy, "x")])
    K, _ = kernel(identity_map(M))
    assert K.is_zero()


def test_koszul_kernel(F101xy):
    ctx = F101xy
    F2 = free_module(ctx, 2)
    F1 = free_module(ctx, 1)
    f = poly_map(F2, F1, [[P(ctx, "x")], [P(ctx, "y")]], degree=1)
    K, incl = kernel(f)
    assert len(K.gens) == 1
    u = matrix(incl)[0]
    # generator proportional to (y, -x)
    assert u[0] * P(ctx, "x") + u[1] * P(ctx, "y") == ctx.zero()


def test_cokernel_of_multiplication(F101x):
    ctx = F101x
    R0 = free_module(ctx, 1)
    f = poly_map(twist(R0, -1), R0, [[P(ctx, "x")]])
    C, proj = cokernel(f)
    assert [C.hf(d) for d in range(3)] == [1, 0, 0]
    assert is_iso(proj) is False


def test_cokernel_of_identity_is_zero(F101xy):
    M = cyclic_module(F101xy, [P(F101xy, "x")])
    C, _ = cokernel(identity_map(M))
    assert C.is_zero()


def test_cokernel_of_maximal_ideal_inclusion(F101xy):
    ctx = F101xy
    F2 = free_module(ctx, 2, shifts=(1, 1))
    F1 = free_module(ctx, 1)
    f = poly_map(F2, F1, [[P(ctx, "x")], [P(ctx, "y")]])
    C, _ = cokernel(f)
    assert [C.hf(d) for d in range(3)] == [1, 0, 0]


def test_a_relation_basis_is_found_by_its_value(monkeypatch):
    # buchberger files each reduced basis under its own vectors: the image
    # of a map reads its target's engine, and an Ext module the engine its
    # relations were interreduced in
    ctx = make_ring(101, ["x", "y"])  # a cold cache
    R1 = free_module(ctx, 1)
    # relations given by a basis that is not reduced
    Q = subquotient(ctx, [(one(ctx),)], [(P(ctx, "x*y"),), (P(ctx, "x^2 + x*y"),)], (0,), 1)
    F2 = free_module(ctx, 2)
    C, _ = cokernel(poly_map(F2, R1, [[P(ctx, "x + y")], [P(ctx, "y")]], degree=1))
    for target in (Q, C):
        f = poly_map(R1, target, [[P(ctx, "x")]], degree=1)
        assert image(f).rels_gb() is target.rels_gb()
    E = ext(1, Q, R1)
    built = []
    init = groebner.ModuleGB.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleGB, "__init__", counted_init)
    assert E._rels and E.rels_gb().basis == list(E._rels)
    assert built == []


# -- Hom and tensor --------------------------------------------------------------


def test_hom_from_free_is_identity(F101xy):
    ctx = F101xy
    N = cyclic_module(ctx, [P(ctx, "x^2")])
    H, _ = hom_module(free_module(ctx, 1), N)
    for d in range(4):
        assert H.hf(d) == N.hf(d)


def test_hom_torsion_to_free_vanishes(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    H, _ = hom_module(M, free_module(ctx, 1))
    assert H.is_zero()


def test_hom_endomorphisms_of_quotient(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    H, as_map = hom_module(M, M)
    for d in range(3):
        assert H.hf(d) == M.hf(d)
    # the identity generator reconstitutes as an isomorphism
    coords = H.express_in_gens(H._gens[0])
    f = as_map(coords, degree=0)
    assert is_iso(f) or is_iso(poly_map(M, M, [[-(matrix(f)[0][0])]], check=False))


def test_tensor_with_ring_is_identity(F101xy):
    ctx = F101xy
    M = subquotient(ctx, [(P(ctx, "x"),)], [(P(ctx, "x^2"),), (P(ctx, "x*y"),)], (0,), 1)
    T = tensor(M, free_module(ctx, 1))
    for d in range(5):
        assert T.hf(d) == M.hf(d)


def test_tensor_of_cyclic_quotients(F101xy):
    ctx = F101xy
    A = cyclic_module(ctx, [P(ctx, "x")])
    B = cyclic_module(ctx, [P(ctx, "y")])
    T = tensor(A, B)
    C = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y")])
    for d in range(4):
        assert T.hf(d) == C.hf(d)


def test_tensor_self_torsion(F101x):
    ctx = F101x
    A = cyclic_module(ctx, [P(ctx, "x")])
    T = tensor(A, A)
    for d in range(3):
        assert T.hf(d) == A.hf(d)


# -- annihilator -----------------------------------------------------------------


def test_annihilator_of_cyclic(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert ideal_strings(ctx, annihilator(M)) == ["x^2", "x*y"]


def test_annihilator_of_ring(F101xy):
    assert annihilator(free_module(F101xy, 1)) == ()


def test_annihilator_of_subquotient(F101x):
    ctx = F101x
    M = subquotient(ctx, [(P(ctx, "x"),)], [(P(ctx, "x^2"),)], (0,), 1)
    assert ideal_strings(ctx, annihilator(M)) == ["x"]


def test_annihilator_is_cached_by_value(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    first = annihilator(M)
    assert isinstance(first, tuple)  # the stored value, which nothing can change
    again = annihilator(cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")]))
    assert again is first is ctx._cache[(M, "annihilator")]
    assert ideal_strings(ctx, again) == ["x^2", "x*y"]


# the plane, and the weighted (3, 4, 5) semigroup ring, over which every
# annihilator and colon holds the defining ideal; each with its range of
# generator degrees and the degrees whose Hilbert functions are compared
PLANE = (make_ring(101, ["x", "y"]), (1, 3), 8)
SEMIGROUP = (make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                       weights=[3, 4, 5]), (3, 8), 16)


def _draw_form(data, ctx, degrees):
    """A homogeneous polynomial of a drawn degree, sparse or 0."""
    f = ctx.zero()
    for exps in monomials_of_degree(ctx, data.draw(st.integers(*degrees))):
        f = f + monomial(ctx, exps, data.draw(st.sampled_from([0, 0, 1, 2, 50, 100])))
    return f


def _assert_annihilator_hf(M, ann, top):
    """dim R_d - dim ann_d = HF_d of v = (g_1, ..., g_n) in the block sum of
    the M(deg g_j), on the oracle's degree slices, for d < top."""
    ctx, zero = M.ctx, M.ctx.zero()
    n = len(M.gens)
    shifts = tuple(s - d for d in M.gen_degrees() for s in M.shifts)
    v = tuple(f for col in M.gens for f in col)
    rels = [(zero,) * (j * M.rank) + col + (zero,) * ((n - j - 1) * M.rank)
            for j in range(n) for col in M.rels]
    for d in range(top):
        want = hf_of_subquotient(ctx, n * M.rank, shifts, [v], rels, d)
        assert hf_of_quotient(ctx, 1, (0,), [(q,) for q in ann], d) == want, d


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_colon_matches_bruteforce(data):
    ctx, degrees, top = data.draw(st.sampled_from([PLANE, SEMIGROUP]))
    i_gens = [_draw_form(data, ctx, degrees) for _ in range(data.draw(st.integers(1, 3)))]
    j_gens = [_draw_form(data, ctx, degrees) for _ in range(data.draw(st.integers(1, 3)))]
    i_cols = [(f,) for f in i_gens if f]
    quot = ideal_polys(ctx, colon(ideal(ctx, i_gens), ideal(ctx, j_gens), ctx))
    for q in quot:
        for g in j_gens:
            assert is_member(ctx, 1, (0,), i_cols, (q * g,))  # (I:J)*J <= I
    for f in i_gens:
        assert is_member(ctx, 1, (0,), [(q,) for q in quot], (f,))  # I <= (I:J)
    M = module(ctx, 1, (0,), [(g,) for g in j_gens if g], i_cols)
    _assert_annihilator_hf(M, quot, top)


# F_101[x, y, z], and its quotient by an inhomogeneous form, which is not
# graded: there a selection of syzygies completes its engine in every degree
POLYNOMIAL = make_ring(101, ["x", "y", "z"])
UNGRADED = make_ring(101, ["x", "y", "z"], ["x^2 - y"])
SMALL_EXPONENTS = [e for d in range(3) for e in monomials_of_degree(POLYNOMIAL, d)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_colon_of_inhomogeneous_ideals_matches_the_raw_syzygies(data):
    # colon(I, J) is the reduced basis of the minimal syzygies of its
    # annihilator presentation, selected from ideals that need not be
    # homogeneous, over a ring that need not be graded; any generating set
    # gives that basis, so the raw syzygies of a bare engine give it too
    ctx = data.draw(st.sampled_from([POLYNOMIAL, UNGRADED]))

    def draw_poly():
        # one to three terms of degree at most 2
        exps = data.draw(st.lists(st.sampled_from(SMALL_EXPONENTS), min_size=1,
                                  max_size=3, unique=True))
        f = ctx.zero()
        for e in exps:
            f = f + monomial(ctx, e, data.draw(st.sampled_from([1, 2, 50, 100])))
        return f

    i_gens = [draw_poly() for _ in range(data.draw(st.integers(1, 2)))]
    j_gens = [draw_poly() for _ in range(data.draw(st.integers(1, 2)))]
    if not any(j_gens):
        j_gens = [ctx.var(0) + one(ctx)]
    got = colon(ideal(ctx, i_gens), ideal(ctx, j_gens), ctx)
    # the presentation modules.annihilator builds for (I + J)/I
    M = GradedModule(ctx, 1, (0,), ideal(ctx, j_gens), ideal(ctx, i_gens))
    B = _hom_sum(M, M.gen_degrees())
    v = _stacked(M._gens, M.rank, ctx._pk.span)
    degrees = GradedModule(ctx, B.rank, B.shifts, [v], B._rels).gen_degrees()
    raw = groebner.ModuleGB(ctx, B.rank, B.shifts, track=1, track_shifts=degrees)
    raw.add_generators([v] + list(B._rels) + groebner._ring_columns(ctx, B.rank))
    assert got == tuple(buchberger([Vec(u) for u in raw.syzygies], ctx, 1).basis)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_annihilator_matches_bruteforce(data):
    ctx, degrees, top = data.draw(st.sampled_from([PLANE, SEMIGROUP]))
    shifts = (0, data.draw(st.integers(0, 1)))

    def vector():
        d = data.draw(st.integers(*degrees))
        return tuple(_draw_form(data, ctx, (d - s, d - s)) for s in shifts)

    gens = [vector() for _ in range(data.draw(st.integers(1, 3)))]
    rels = [vector() for _ in range(data.draw(st.integers(1, 4)))]
    M = subquotient(ctx, gens, rels, shifts)
    ann = ideal_polys(ctx, annihilator(M))
    for q in ann:
        for col in M.gens:
            assert is_member(ctx, 2, shifts, M.rels, tuple(q * f for f in col))
    _assert_annihilator_hf(M, ann, top)


def test_canonical_module_of_a_type_three_ring_is_faithful():
    # the monomial curve (t^4, t^5, t^6, t^7): Cohen-Macaulay, not Gorenstein
    ctx = make_ring(
        101,
        ["a", "b", "c", "d"],
        ["a*c - b^2", "a*d - b*c", "a^3 - b*d", "b*d - c^2", "a^2*b - c*d", "a^2*c - d^2"],
        weights=[4, 5, 6, 7],
    )
    om = canonical_module(ctx)
    assert annihilator(om) == tuple(buchberger((), ctx, 1).basis)
    assert len(minimize(om)[0].gens) == ring_type(ctx) == 3


# -- regular sequences -----------------------------------------------------------

# two planes meeting in a point: dimension 2, depth 1, not Cohen-Macaulay
TWO_PLANES = make_ring(101, ["a", "b", "c", "d"], ["a*c", "a*d", "b*c", "b*d"])

REGULARITY_RINGS = {
    # (ring, degrees of the drawn forms, 0 for a unit)
    "plane": (PLANE[0], [0, 1, 2]),
    "345": (SEMIGROUP[0], [0, 3, 4, 5]),
    "4567": (SEMIGROUP_4567, [0, 4, 5, 6]),
    "two planes": (TWO_PLANES, [0, 1, 2]),
}


def _regular_by_grade(ctx, seq):
    """The grade test the Hilbert series test replaced: for every k,
    R/(f_1..f_k) is nonzero of grade k."""
    for k in range(1, len(seq) + 1):
        Q = _cyclic_module(ctx, seq[:k])
        if Q.is_zero() or grade(Q) != k:
            return False
    return True


def test_regular_sequence_matches_the_grade_test():
    """``is_regular_sequence``, which asks ``regular_on`` at each step,
    against the grade test, on one or two nonzero forms over the plane, the
    monomial curves (t^3, t^4, t^5) and (t^4, t^5, t^6, t^7), and two planes
    meeting in a point."""
    answers = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(REGULARITY_RINGS)))
        ctx, degrees = REGULARITY_RINGS[name]
        seq = ideal(ctx, [_draw_nonzero_form(data, ctx, degrees)
                          for _ in range(data.draw(st.integers(1, 2)))])
        got = is_regular_sequence(ctx, seq)
        assert got == _regular_by_grade(ctx, seq)
        answers[name, got] += 1

    check()
    assert set(answers) == {(name, got) for name in REGULARITY_RINGS for got in (True, False)}


def test_regularity_off_cohen_macaulay():
    ctx = TWO_PLANES
    a_c, b_d = ideal(ctx, [P(ctx, "a + c"), P(ctx, "b + d")])
    # a + c lies in neither (a, b) nor (c, d); modulo it the maximal ideal
    # kills a, so b + d is a zero divisor there, though R/(a + c, b + d)
    # has dimension 0
    assert is_regular_sequence(ctx, (a_c,))
    assert not is_regular_sequence(ctx, (a_c, b_d))
    assert _cyclic_module(ctx, (a_c, b_d)).dim() == 0
    # a unit is never regular: R/(1) = 0
    with pytest.raises(RegularSequenceNotFound):
        regular_sequence_in_ideal(ctx, ideal(ctx, [one(ctx)]), 1)
    # nor is zero, which has no degree
    R1 = free_module(ctx, 1)
    assert not regular_on(R1, R1, None)


def test_regular_sequence_search_tests_each_quotient_once(monkeypatch):
    # f and -f, and a combination repeated at a larger scale, span one ideal:
    # the search asks regular_on once per quotient, and chooses as before
    from liaison import modules

    calls = []

    def counted(*args):
        calls.append(args)
        return regular_on(*args)

    monkeypatch.setattr(modules, "regular_on", counted)
    ctx = TWO_PLANES
    with pytest.raises(RegularSequenceNotFound):
        regular_sequence_in_ideal(ctx, ideal(ctx, [one(ctx)]), 1)
    assert len(calls) == 1  # 12 when repeats were tested
    calls.clear()
    maximal = ideal(ctx, [P(ctx, v) for v in "abcd"])
    assert regular_sequence_in_ideal(ctx, maximal, 1) == list(ideal(ctx, [P(ctx, "b + d")]))
    assert len(calls) == 6  # 10 when repeats were tested


# -- invariants ------------------------------------------------------------------


def test_invariants_of_ring(F101xy):
    rep = invariants(free_module(F101xy, 1))
    assert (rep.dim, rep.depth, rep.grade, rep.pd) == (2, 2, 0, 0)


def test_invariants_of_residue_field(F101xy):
    ctx = F101xy
    k = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y")])
    rep = invariants(k)
    assert (rep.dim, rep.depth, rep.grade, rep.pd) == (0, 0, 2, 2)


def test_invariants_of_mixed_ideal(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    rep = invariants(M)
    assert (rep.dim, rep.depth, rep.grade, rep.pd) == (1, 0, 1, 2)


def test_invariants_of_zero_module(F101x):
    Z = subquotient(F101x, [], [], (0,), 1)
    rep = invariants(Z)
    assert rep.grade == math.inf


# -- isomorphism and sums ----------------------------------------------------------


def test_is_iso_identity(F101xy):
    M = cyclic_module(F101xy, [P(F101xy, "x")])
    assert is_iso(identity_map(M))


def test_is_iso_rejects_multiplication(F101x):
    ctx = F101x
    R0 = free_module(ctx, 1)
    f = poly_map(twist(R0, -1), R0, [[P(ctx, "x")]])
    assert not is_iso(f)


def test_minimize_projection_is_iso(F101xy):
    ctx = F101xy
    one = parse_poly(ctx, "1")
    # R/(x) presented with a redundant generator x*1
    M = subquotient(
        ctx, [(one,), (P(ctx, "y"),)], [(P(ctx, "x"),)], (0,), 1
    )
    Mmin, proj, incl = minimize(M)
    assert len(Mmin.gens) == 1
    assert is_iso(proj)
    assert is_iso(incl)


def test_minimize_of_a_module_without_generators(F101xy):
    # the general path: no minimal generators, a copy equal to M, and maps
    # without columns between the two
    ctx = F101xy
    M = subquotient(ctx, [], [(P(ctx, "x"),)], (0,), 1)
    Mmin, proj, incl = minimize(M)
    assert Mmin == M and Mmin.is_zero()
    assert (proj.source, proj.target, proj.cols) == (M, Mmin, ())
    assert (incl.source, incl.target, incl.cols) == (Mmin, M, ())


def test_direct_sum_with_zero(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x")])
    Z = subquotient(ctx, [], [], (0,), 1)
    S, _, _ = direct_sum(M, Z)
    for d in range(4):
        assert S.hf(d) == M.hf(d)


def test_direct_sum_doubles_hf(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x")])
    S, _, _ = direct_sum(M, M)
    for d in range(4):
        assert S.hf(d) == 2 * M.hf(d)


def test_direct_sum_injection_projection_composites(F101xy):
    ctx = F101xy
    A = cyclic_module(ctx, [P(ctx, "x")])
    B = cyclic_module(ctx, [P(ctx, "y")])
    S, (ia, ib), (pa, pb) = direct_sum(A, B)
    assert is_iso(pa.compose(ia))
    assert is_iso(pb.compose(ib))
    K, _ = kernel(pb.compose(ia))
    # pa o ib = 0
    comp = pb.compose(ia)
    assert not any(comp.cols)


def test_ill_defined_map_rejected(F101x):
    ctx = F101x
    A = cyclic_module(ctx, [P(ctx, "x")])
    B = free_module(ctx, 1)
    with pytest.raises(IllDefinedMap):
        poly_map(A, B, [[one(ctx)]])


def test_hf_additive_along_kernel_image(F101xy):
    ctx = F101xy
    F2 = free_module(ctx, 2)
    F1 = free_module(ctx, 1)
    f = poly_map(F2, F1, [[P(ctx, "x^2")], [P(ctx, "x*y")]], degree=2)
    K, _ = kernel(f)
    I = image(f)
    for d in range(6):
        assert F2.hf(d) == K.hf(d) + I.hf(d + 2)


def test_module_json_roundtrip(F101xy):
    ctx = F101xy
    M = subquotient(ctx, [(P(ctx, "x"),)], [(P(ctx, "x^2"),)], (0,), 1)
    blob = M.to_json()

    def columns(key):
        return [tuple(parse_poly(ctx, s) for s in col) for col in blob[key]]

    M2 = subquotient(ctx, columns("gens"), columns("rels"), blob["shifts"],
                     blob["ambient_rank"])
    for d in range(5):
        assert M.hf(d) == M2.hf(d)


def test_zero_module_degenerate_paths(F101xy):
    from liaison.homalg import ext, zero_module

    ctx = F101xy
    Z = zero_module(ctx)
    M = cyclic_module(ctx, [P(ctx, "x")])
    assert tensor(M, Z).is_zero()
    H, _ = hom_module(M, Z)
    assert H.is_zero()
    H2, _ = hom_module(Z, M)
    assert H2.is_zero()
    S, _, _ = direct_sum(M, Z)
    assert all(S.hf(d) == M.hf(d) for d in range(4))
    assert ext(1, M, Z).is_zero()
