import gc
import math
import random
import weakref

import pytest

from liaison import cli, homalg
from liaison.groebner import Vec
from liaison.cohomology import grothendieck_band_check
from liaison.colinkage import class_member
from liaison.errors import (
    DegreeOverflow,
    GradeMismatch,
    InvalidInput,
    NotRegularSequence,
    RegularSequenceNotFound,
)
from liaison.homalg import (
    betti_table_text,
    bidual_obstructions,
    depth,
    ext,
    ext_induced,
    free_resolution,
    lift_chain_map,
    projective_dimension,
    residue_field,
    restrict_scalars,
    syzygy,
    tor,
    transpose,
)
from liaison.modules import (
    GradedModule,
    annihilator,
    cyclic_module,
    free_module,
    hom_module,
    identity_map,
    image,
    invariants,
    is_iso,
    subquotient,
    twist,
)
from liaison.ring import make_ring, parse_poly, render_poly

from tests.polyref import (
    buchberger,
    chain_matrices,
    contains,
    coords,
    diffs,
    ideal,
    matrix,
    monomial,
    one,
    poly_map,
    vec_combine,
    vec_is_zero,
    vectors,
)

from tests.oracle import hf_of_subquotient


def P(ctx, s):
    return parse_poly(ctx, s)


def same_hf(A, B, window=(-6, 8)):
    return all(A.hf(d) == B.hf(d) for d in range(window[0], window[1] + 1))


# -- resolutions ---------------------------------------------------------------


def test_koszul_resolution_of_point(F101xy):
    k = residue_field(F101xy)
    res = free_resolution(k, 4)
    assert res.complete
    assert res.betti_numbers()[:3] == [1, 2, 1]
    assert res.length() == 2
    text = betti_table_text(res)
    assert "1" in text and "2" in text


def test_twisted_cubic_resolution(F101xyzw, cubic_ideal):
    M = cyclic_module(F101xyzw, cubic_ideal)
    res = free_resolution(M, 4)
    assert res.complete
    assert res.betti_numbers()[:3] == [1, 3, 2]
    assert res.length() == 2


def test_completeness_does_not_depend_on_earlier_resolutions():
    # F_3 = 0 for the twisted cubic, so length 2 never sees a zero level;
    # resolving to length 4 first must not change what length 2 reports
    S = make_ring(101, ["x", "y", "z", "w"])
    cubic = [parse_poly(S, f) for f in ("x*z - y^2", "y*w - z^2", "x*w - y*z")]
    M = cyclic_module(S, cubic)
    before = free_resolution(M, 2)
    assert not before.complete and before.betti_numbers() == [1, 3, 2]
    assert free_resolution(M, 4).complete
    after = free_resolution(M, 2)
    assert after.complete == before.complete
    assert after == before

    spec = "[ring]\np = 101\nvars = x, y, z, w\n\n[ideal I]\ngens = {}\n\n[ops]\n{}\n"
    gens = "x*z - y^2, y*w - z^2, x*w - y*z"

    def betti_reports(ops):
        report, code = cli.run(cli.parse_spec(spec.format(gens, "\n".join(ops))))
        assert code == 0
        return [r["data"] for r in report["results"]]

    (alone,) = betti_reports(["betti I 2"])
    assert alone["complete"] is False
    assert betti_reports(["betti I 3", "betti I 2"])[1] == alone


def test_resolution_of_free_module_has_length_zero(F101xy):
    res = free_resolution(free_module(F101xy, 1), 3)
    assert res.complete and res.length() == 0


def test_differentials_compose_to_zero(F101xyzw, cubic_ideal):
    M = cyclic_module(F101xyzw, cubic_ideal)
    res = free_resolution(M, 3)
    d1, d2 = diffs(M.ctx, res, 1), diffs(M.ctx, res, 2)
    for u in d2:
        comp = vec_combine(d1, u, M.ctx, 1)
        gb = M.rels_gb()
        assert contains(gb, comp)


def test_iterated_syzygies_terminate_over_polynomial_ring(F101xyzw, cubic_ideal):
    # Hilbert syzygy theorem at desk scale: pd <= number of variables
    M = cyclic_module(F101xyzw, cubic_ideal)
    res = free_resolution(M, F101xyzw.m + 1)
    assert res.complete
    assert res.length() <= F101xyzw.m


# -- syzygy modules --------------------------------------------------------------


def test_zeroth_syzygy_is_module(F101xy):
    M = cyclic_module(F101xy, [P(F101xy, "x")])
    assert syzygy(M, 0) is M


def test_first_syzygy_of_point_is_maximal_ideal(F101xy):
    k = residue_field(F101xy)
    Om = syzygy(k, 1)
    assert annihilator(Om) == ()
    assert [Om.hf(d) for d in range(4)] == [0, 2, 3, 4]


def test_second_syzygy_of_point_is_free_rank_one(F101xy):
    k = residue_field(F101xy)
    Om2 = syzygy(k, 2)
    assert len(Om2.gens) == 1
    rep = invariants(Om2)
    assert rep.pd == 0
    assert [Om2.hf(d) for d in range(4)] == [0, 0, 1, 2]


def test_syzygy_over_quotient_ring_keeps_its_module_over_the_ambient_ring():
    # over R = S/J a syzygy module's relations carry J*F, which is what
    # restrict_scalars relies on: seen over S it is still the R-module
    R = make_ring(101, ["x", "y", "z"], defining=["x*z - y^2"])
    Om = syzygy(residue_field(R), 1)
    OmS = restrict_scalars(Om)
    assert [OmS.hf(d) for d in range(6)] == [Om.hf(d) for d in range(6)]
    assert [Om.hf(d) for d in range(4)] == [0, 3, 5, 7]
    assert depth(Om) == 1 and invariants(Om).dim == 2
    assert grothendieck_band_check(Om).holds()


# -- ext/tor ---------------------------------------------------------------------


def test_ext0_agrees_with_hom(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    N = cyclic_module(ctx, [P(ctx, "x")])
    E0 = ext(0, M, N)
    H, _ = hom_module(M, N)
    assert same_hf(E0, H)


def test_ext1_of_hypersurface_quotient(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    E1 = ext(1, M, free_module(ctx, 1))
    # coker(R -x-> R(1)) = (R/x)(1): one dimensional in degree -1
    assert [E1.hf(d) for d in (-2, -1, 0, 1)] == [0, 1, 0, 0]
    assert ext(2, M, free_module(ctx, 1)).is_zero()


def test_tor1_of_self(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    T1 = tor(1, M, M)
    assert [T1.hf(d) for d in range(3)] == [0, 1, 0]
    assert tor(0, M, M).hf(0) == 1


def test_ext_independent_of_generating_presentation(F101xy):
    ctx = F101xy
    # same module, shuffled/redundant generating set
    A = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    B = subquotient(
        ctx,
        [(one(ctx),)],
        [(P(ctx, "x*y"),), (P(ctx, "x^2"),), (P(ctx, "x^2 + x*y"),)],
        (0,),
        1,
    )
    R1 = free_module(ctx, 1)
    for i in range(3):
        assert same_hf(ext(i, A, R1), ext(i, B, R1))


def test_ext_vanishes_beyond_dim_for_finite_pd(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    R1 = free_module(ctx, 1)
    for i in range(ctx.m + 1, ctx.m + 3):
        assert ext(i, M, R1).is_zero()


# -- chain maps and induced maps ---------------------------------------------------


def test_identity_lifts_to_identity(F101xy):
    M = cyclic_module(F101xy, [P(F101xy, "x")])
    maps = chain_matrices(F101xy, lift_chain_map(identity_map(M), 1), free_resolution(M, 1))
    assert maps[0][0][0] == one(F101xy)


def test_zero_lifts_to_zero(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x")])
    from liaison.modules import zero_map

    maps = lift_chain_map(zero_map(M, M), 1)
    for level in maps:
        for col in level:
            assert not col


def test_natural_surjection_chain_lift(F101x):
    ctx = F101x
    X = cyclic_module(ctx, [P(ctx, "x^2")])
    M = cyclic_module(ctx, [P(ctx, "x")])
    f = poly_map(X, M, [[one(ctx)]])
    maps = chain_matrices(ctx, lift_chain_map(f, 1), free_resolution(M, 1))
    # f_1 must satisfy x^2 * f_1 = x * f_0, so f_1 = x * unit
    assert maps[1][0][0].degree() == 1


def test_ext_induced_of_identity(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    R1 = free_module(ctx, 1)
    g = ext_induced(1, identity_map(M), R1)
    assert is_iso(g)


def test_ext_induced_functorial_on_composition(F101x):
    ctx = F101x
    A = cyclic_module(ctx, [P(ctx, "x^3")])
    B = cyclic_module(ctx, [P(ctx, "x^2")])
    C = cyclic_module(ctx, [P(ctx, "x")])
    f = poly_map(A, B, [[one(ctx)]])
    g = poly_map(B, C, [[one(ctx)]])
    R1 = free_module(ctx, 1)
    lhs = ext_induced(1, g.compose(f), R1)
    rhs = ext_induced(1, f, R1).compose(ext_induced(1, g, R1))
    n = len(lhs.target._gens)
    for c1, c2 in zip(matrix(lhs), matrix(rhs)):
        for a, b in zip(c1, c2):
            diff = a - b
            assert lhs.target.element_is_zero(
                coords(ctx, tuple(diff if i == 0 else ctx.zero() for i in range(n)), n)
            ) or not diff


def test_ext_induced_over_rank2_modules():
    """Over N of rank 2 with two or three generators and nonzero shifts, a
    generator of Ext has blocks of width N.rank, not len(N.gens): the map
    induced by the identity is an iso, and induced maps compose."""
    rng = random.Random(20261021)
    shapes, nonzero = set(), set()
    for ctx in (make_ring(101, ["x", "y", "z"]),
                make_ring(101, ["x", "y", "z"], ["x*z - y^2"])):
        for _ in range(3):
            N = _random_rank2_module(ctx, rng)
            shapes.add(len(N.gens))
            G = _random_ideal(ctx, rng)
            x, y = P(ctx, "x"), P(ctx, "y")
            A = cyclic_module(ctx, [x * y * g for g in G])
            B = cyclic_module(ctx, [y * g for g in G])
            C = cyclic_module(ctx, G)
            f = poly_map(A, B, [[_random_form(ctx, rng, 1)]], degree=1)
            g = poly_map(B, C, [[one(ctx)]])
            for i in range(3):
                assert is_iso(ext_induced(i, identity_map(B), N))
                lhs = ext_induced(i, g.compose(f), N)
                rhs = ext_induced(i, f, N).compose(ext_induced(i, g, N))
                E = lhs.target
                n = len(E._gens)
                for c1, c2 in zip(matrix(lhs), matrix(rhs)):
                    assert E.element_is_zero(coords(ctx, tuple(a - b for a, b in zip(c1, c2)), n))
                nonzero.add(any(not E.element_is_zero(c) for c in lhs.cols))
    assert shapes == {2, 3}
    assert nonzero == {True, False}


def test_ext_and_tor_carry_no_zero_generator(F101xy):
    """N = image of e1 -> e1, e2 -> 0 keeps an identically zero generator
    column; Ext and Tor drop it and have the Hilbert series they have over
    N without it."""
    ctx = F101xy
    F = free_module(ctx, 2)
    one, zero = parse_poly(ctx, "1"), ctx.zero()
    N = image(poly_map(F, F, [[one, zero], [zero, zero]]))
    assert any(vec_is_zero(col) for col in N.gens)
    N1 = subquotient(ctx, [(one, zero)], [], (0, 0))
    M = cyclic_module(ctx, [P(ctx, "x")])
    assert not ext(1, M, N).is_zero() and not tor(0, M, N).is_zero()
    for functor in (ext, tor):
        for i in (0, 1):
            H = functor(i, M, N)
            assert not any(vec_is_zero(col) for col in H.gens)
            want = functor(i, M, N1).hilbert()
            assert H.hilbert().numerator == want.numerator


def test_ext_induced_univariate_cokernel_dimension(F101x):
    # phi: R/(x^3) ->> R/(x): induced Ext^1 map is injective with cokernel
    # of total dimension 2 (frozen from the brute-force oracle)
    ctx = F101x
    X = cyclic_module(ctx, [P(ctx, "x^3")])
    M = cyclic_module(ctx, [P(ctx, "x")])
    phi = poly_map(X, M, [[one(ctx)]])
    R1 = free_module(ctx, 1)
    g = ext_induced(1, phi, R1)
    from liaison.modules import cokernel, kernel

    K, _ = kernel(g)
    assert K.is_zero()
    C, _ = cokernel(g)
    assert C.hilbert().total_length() == 2


# -- transpose and bidual obstructions ----------------------------------------------


def test_transpose_of_free_vanishes(F101xy):
    Tr, lam = transpose(free_module(F101xy, 1), free_module(F101xy, 1))
    assert Tr.is_zero() and lam.is_zero()


def test_transpose_of_cyclic_univariate(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    Tr, lam = transpose(M, free_module(ctx, 1))
    # coker(R -x-> R(1)) = (R/x)(1)
    assert [Tr.hf(d) for d in (-1, 0, 1)] == [1, 0, 0]
    assert [lam.hf(d) for d in (-1, 0, 1, 2)] == [0, 1, 1, 1]


def test_transpose_of_point_matches_oracle(F101xy):
    ctx = F101xy
    k = residue_field(ctx)
    R1 = free_module(ctx, 1)
    Tr, _ = transpose(k, R1)
    # dual of the Koszul presentation: coker(R -(x,y)^T-> R(1)^2)
    gens = [
        (one(ctx), ctx.zero()),
        (ctx.zero(), one(ctx)),
    ]
    rels = [(P(ctx, "x"), P(ctx, "y"))]
    for d in range(-2, 4):
        assert Tr.hf(d) == hf_of_subquotient(ctx, 2, (-1, -1), gens, rels, d)


def test_bidual_obstructions_perfect_cyclic(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    E1, E2 = bidual_obstructions(M, free_module(ctx, 1), 1)
    assert E1.is_zero() and E2.is_zero()


def test_bidual_obstructions_mixed_ideal(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    E1, E2 = bidual_obstructions(M, free_module(ctx, 1), 1)
    assert not E1.is_zero()


def test_bidual_obstructions_free(F101xy):
    ctx = F101xy
    E1, E2 = bidual_obstructions(free_module(ctx, 1), free_module(ctx, 1), 0)
    assert E1.is_zero() and E2.is_zero()


def test_bidual_obstructions_checks_grade(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x")])
    with pytest.raises(GradeMismatch):
        bidual_obstructions(M, free_module(ctx, 1), 2)


def test_obstructions_fall_back_to_the_direct_route(monkeypatch, F101xy):
    # without a regular sequence in ann M the quotient route takes the
    # direct one, whose obstructions are the same graded vector spaces
    ctx = F101xy
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert homalg._obstruction_transpose(M, R1, 1)[2] == 1  # R/(x)
    quotient = [E.numerator for E in bidual_obstructions(M, R1, 1)]
    direct = (homalg.transpose(homalg.syzygy(M, 1), R1)[0], R1, 2)
    assert quotient[0]

    def not_found(ctx, ideal, n):
        raise RegularSequenceNotFound(f"none of length {n}")

    monkeypatch.setattr(homalg, "regular_sequence_in_ideal", not_found)
    assert homalg._obstruction_transpose(M, R1, 1) == direct
    assert [E.numerator for E in bidual_obstructions(M, R1, 1)] == quotient


# -- change of rings ------------------------------------------------------------------


def test_change_of_rings_shares_one_quotient_ring():
    # a ring made here, so no earlier test has built its R/(x)
    S = make_ring(101, ["x", "y", "z", "w"])
    cubic = [P(S, f) for f in ("x*z - y^2", "y*w - z^2", "x*w - y*z")]
    M, R1 = cyclic_module(S, cubic), free_module(S, 1)
    seq = homalg.regular_sequence_in_ideal(S, annihilator(M), 2)
    ctx2, Kbar = homalg.change_of_rings(S, seq, R1)
    assert ctx2 is not S
    # the ring is stored under the multiset of the sequence, so the order is
    # immaterial
    assert homalg.change_of_rings(S, seq[::-1], R1)[0] is ctx2
    # the quotient route of the obstructions moves M and K the same way
    Tr, KK, j = homalg._obstruction_transpose(M, R1, 2)
    assert Tr.ctx is ctx2 and KK.ctx is ctx2 and j == 1
    assert KK == Kbar


def test_regular_sequence_of_length_zero_is_always_found():
    # the empty sequence lies in every ideal, the zero ideal included
    S = make_ring(101, ["x", "y"])
    assert homalg.regular_sequence_in_ideal(S, (), 0) == []
    assert homalg.regular_sequence_in_ideal(S, ideal(S, [P(S, "x")]), 0) == []
    with pytest.raises(RegularSequenceNotFound, match="grade below 1"):
        homalg.regular_sequence_in_ideal(S, (), 1)


def test_change_of_rings_rejects_irregular_sequence():
    S = make_ring(101, ["x", "y", "z"])
    with pytest.raises(NotRegularSequence):
        homalg.change_of_rings(S, ideal(S, [P(S, "x*y"), P(S, "x*z")]), free_module(S, 1))


def test_change_of_rings_keys_the_multiset_and_keeps_the_order(monkeypatch):
    S = make_ring(101, ["x", "y", "z"], ["z^2"])  # a cold cache
    R1 = free_module(S, 1)
    built = []
    real_make_ring = homalg._make_ring

    def recording_make_ring(ctx, gens):
        built.append(list(gens))
        return real_make_ring(ctx, gens)

    monkeypatch.setattr(homalg, "_make_ring", recording_make_ring)
    x, y = ideal(S, [P(S, "x"), P(S, "y")])
    ctx2, _ = homalg.change_of_rings(S, [y, x], R1)
    # the ring is built from J, then x in the caller's order
    assert built == [[ideal(S, S.defining)[0], y, x]]
    # (x, x) is not (x): a repeated element is never regular
    assert homalg.change_of_rings(S, [x], R1)[0] is not ctx2
    with pytest.raises(NotRegularSequence):
        homalg.change_of_rings(S, [x, x], R1)
    assert len(built) == 2


# -- depth/pd over quotient rings -----------------------------------------------------


def test_depth_and_pd_over_hypersurface(hypersurface):
    ctx = hypersurface
    R1 = free_module(ctx, 1)
    rep = invariants(R1)
    assert (rep.dim, rep.depth) == (1, 1)
    # R/(x) over R = F101[x,y]/(xy) has an infinite periodic resolution
    M = cyclic_module(ctx, [P(ctx, "x")])
    assert projective_dimension(M) is math.inf
    assert depth(M) == 1


def test_restrict_scalars_preserves_hf(hypersurface):
    M = cyclic_module(hypersurface, [P(hypersurface, "x")])
    MS = restrict_scalars(M)
    for d in range(4):
        assert M.hf(d) == MS.hf(d)


def test_semigroup_ring_is_cm_of_dim_one(semigroup345):
    rep = invariants(free_module(semigroup345, 1))
    assert (rep.dim, rep.depth) == (1, 1)


def test_ext_induced_multiplication_map(F101x):
    # multiplication by x on R/(x^2) induces multiplication by x on the Ext
    # dual: one-dimensional kernel and cokernel
    ctx = F101x
    from liaison.modules import cokernel, kernel, twist

    M = cyclic_module(ctx, [P(ctx, "x^2")])
    f = poly_map(twist(M, -1), M, [[P(ctx, "x")]])
    R1 = free_module(ctx, 1)
    g = ext_induced(1, f, R1)
    K, _ = kernel(g)
    C, _ = cokernel(g)
    assert K.hilbert().total_length() == 1
    assert C.hilbert().total_length() == 1


def test_lift_chain_map_with_degree_shift(F101xy):
    ctx = F101xy
    from liaison.modules import twist

    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    f = poly_map(twist(M, -2), M, [[P(ctx, "x^2")]])
    # commuting squares certified by recomposition at level 1
    res_src = free_resolution(twist(M, -2), 2)
    res_tgt = free_resolution(M, 2)
    maps = chain_matrices(ctx, lift_chain_map(f, 2), res_tgt)
    for j, u in enumerate(diffs(ctx, res_src, 1)):
        lhs = vec_combine(maps[0], u, ctx, res_tgt.rank(0))
        rhs = vec_combine(diffs(ctx, res_tgt, 1), maps[1][j], ctx, res_tgt.rank(0))
        diff = tuple(a - b for a, b in zip(lhs, rhs))
        gb = buchberger([], ctx, res_tgt.rank(0))
        assert contains(gb, diff)


# -- one cache per ring, keyed by module value ---------------------------------


def test_equal_modules_share_derived_results(F101xy):
    ctx = F101xy
    K = cyclic_module(ctx, [P(ctx, "x")])
    M = cyclic_module(ctx, [P(ctx, "x^2")])
    H1, _ = hom_module(K, M)
    assert hom_module(K, M)[0] is H1
    H2 = twist(twist(H1, 1), -1)  # built anew, equal in value
    assert H1 is not H2
    assert H1 == H2 and hash(H1) == hash(H2)
    R1 = free_module(ctx, 1)
    assert ext(1, H1, R1) is ext(1, H2, R1)
    assert tor(1, H1, K) is tor(1, H2, K)


def test_modules_over_separate_rings_share_nothing():
    # rings that differ in p, weights, variable order or J stay distinct
    R = make_ring(101, ["x", "y"])
    A = cyclic_module(R, [P(R, "x")])
    ext(1, A, A)
    module_keys = [
        k for k in R._cache if isinstance(k, tuple) and isinstance(k[0], GradedModule)
    ]
    assert module_keys and all(k[0].ctx is R for k in module_keys)
    others = [
        make_ring(103, ["x", "y"]),
        make_ring(101, ["x", "y"], weights=[1, 2]),
        make_ring(101, ["y", "x"]),
        make_ring(101, ["x", "y"], ["y^3"]),
    ]
    assert len({id(S) for S in [R, *others]}) == 5
    for S in others:
        B = cyclic_module(S, [P(S, "x")])
        if not S.defining:  # equal to look at
            assert A.to_json() == B.to_json()
        assert A != B
        assert A.hilbert() is not B.hilbert()
        assert ext(1, A, A) is not ext(1, B, B)
        assert not any(k in S._cache for k in module_keys)


def test_equal_ring_definitions_give_one_ring():
    names, weights = ["x", "y", "z"], [3, 4, 5]
    R = make_ring(101, names, ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"], weights)
    S = make_ring(101, tuple(names), (), tuple(weights))
    assert R.ambient() is S
    assert make_ring(101, ["x", "y"]) is make_ring(101, ["x", "y"], weights=[1, 1])
    # other generators of J, one of them redundant, with its reduced basis
    again = make_ring(101, names, [
        "x*z - y^2", "3*x^3 - 3*y*z", P(S, "z^2 - x^2*y"), "x^4 - x*y*z"], weights)
    assert again is R
    A, B = (cyclic_module(ctx, [ctx.var(0)]) for ctx in (R, again))
    assert A == B and ext(1, A, A) is ext(1, B, B)
    # R/(x) is filed in S under its reduced basis too, however it is reached
    x = (Vec(R.var(0).terms),)
    Rx = homalg.quotient_ring(R, x)
    assert Rx is homalg.quotient_ring(again, x) is make_ring(
        101, names, ["x", "y^2", "y*z", "z^2"], weights)
    assert Rx.ambient() is S


def test_a_ring_nothing_holds_is_freed():
    R = make_ring(101, ["x", "y"], ["x*y"])
    A = cyclic_module(R, [P(R, "x")])
    ext(1, A, A)
    gc.collect()
    # a quotient keeps its polynomial ring, and so its registry entry, alive
    assert make_ring(101, ["x", "y"]) is R.ambient()
    refs = [weakref.ref(R), weakref.ref(R.ambient())]
    del R, A
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_repeated_certificate_computes_each_tor_once(monkeypatch):
    ctx = make_ring(101, ["x", "y"])
    M = cyclic_module(ctx, [P(ctx, "x")])
    K = free_module(ctx, 1)
    calls = []
    real_series = homalg._series

    def counting_series(functor, i, A, B):
        if functor == "tor":
            calls.append(i)
        return real_series(functor, i, A, B)

    monkeypatch.setattr(homalg, "_series", counting_series)
    bound = 2
    for _ in range(2):
        cert = class_member("Bass", M, K, bound)
        assert cert.verdict.holds()
    assert sorted(calls) == [1, 2]


# -- Ext and Tor vanishing from Hilbert series -----------------------------------


def _random_ideal(ctx, rng, max_terms=2):
    """One to three homogeneous binomials or monomials in x, y, z; with
    max_terms=1, monomials, homogeneous under any weights."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            e = [0, 0, 0]
            for _ in range(d):
                e[rng.randrange(3)] += 1
            mono = "*".join(f"{v}^{k}" for v, k in zip("xyz", e) if k)
            terms.append(f"{rng.randint(1, 100)}*{mono}")
        gens.append(P(ctx, " + ".join(terms)))
    return gens


def _random_form(ctx, rng, d):
    """A random form of degree d in x, y, z (zero for negative d)."""
    f = ctx.zero()
    if d < 0:
        return f
    for _ in range(rng.randint(1, 2)):
        e = [0, 0, 0]
        for _ in range(d):
            e[rng.randrange(3)] += 1
        f = f + monomial(ctx, e, rng.randint(1, 100))
    return f


def _random_rank2_module(ctx, rng):
    """A rank-2 subquotient with nonzero shifts, two or three generators and
    up to two relations."""
    shifts = (rng.choice([-1, 1]), rng.choice([1, 2]))

    def column(d):
        return tuple(_random_form(ctx, rng, d - s) for s in shifts)

    gens = [column(rng.randint(2, 3)) for _ in range(rng.randint(2, 3))]
    rels = [column(rng.randint(3, 4)) for _ in range(rng.randint(0, 2))]
    return subquotient(ctx, gens, rels, shifts)


def test_vanishing_agrees_with_the_modules(semigroup345):
    """Among the N are rank-2 modules with several generators and nonzero
    shifts, so each block of a complex's target sits at its own offset.
    Tor is also checked against its symmetric form."""
    from liaison.linkage import canonical_module

    rng = random.Random(20261018)
    outcomes = set()
    shapes = set()

    def check(M, N):
        for i in range(3):
            z = homalg.tor_vanishes(i, M, N)
            assert z == tor(i, M, N).is_zero() == homalg.tor_vanishes(i, N, M)
            outcomes.add(z)
            z = homalg.ext_vanishes(i, M, N)
            assert z == ext(i, M, N).is_zero()
            outcomes.add(z)

    for ctx in (make_ring(101, ["x", "y", "z"]),
                make_ring(101, ["x", "y", "z"], ["x*z - y^2"])):
        for _ in range(10):
            M = cyclic_module(ctx, _random_ideal(ctx, rng))
            N2 = _random_rank2_module(ctx, rng)
            shapes.add((N2.rank, len(N2.gens) > 1, 0 not in N2.shifts))
            others = (cyclic_module(ctx, _random_ideal(ctx, rng)),
                      residue_field(ctx), free_module(ctx, 1), N2)
            for N in others:
                check(M, N)
    assert shapes == {(2, True, True)}
    assert outcomes == {True, False}
    K = canonical_module(semigroup345)
    assert K.rank > 1 and len(K.gens) > 1 and set(K.shifts) != {0}
    for M in (residue_field(semigroup345),
              cyclic_module(semigroup345, [P(semigroup345, "x")]), K):
        check(M, K)


def test_image_engine_matches_the_direct_sum_route():
    """The seeded image engine spans what the direct-sum route spans: the
    target's block relations plus the image columns, reduced from scratch."""
    from liaison.groebner import assert_buchberger
    from liaison.groebner import buchberger as engine_buchberger
    from liaison.modules import _dual_map, _transpose

    rng = random.Random(20261020)
    ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])
    for _ in range(4):
        M = cyclic_module(ctx, _random_ideal(ctx, rng))
        N = _random_rank2_module(ctx, rng)
        res = free_resolution(M, 3)
        for k in range(1, 4):
            if not res.rank(k):
                continue
            src, tgt = res.level_shifts[k], res.level_shifts[k - 1]
            d = res.diffs[k - 1]
            for functor in ("tor", "ext"):
                if functor == "tor":
                    # d (x) N is Hom of the transpose of d with negated degrees:
                    # its rows are the columns of d
                    f = _dual_map(N, [-e for e in src], [-e for e in tgt], d)
                else:
                    f = _dual_map(N, tgt, src, _transpose(d, len(tgt), ctx._pk.span))
                B = f.target
                want = engine_buchberger(
                    list(B._rels) + f.image_columns_ambient(), ctx, B.rank, B.shifts
                )
                eng = homalg._image_engine(functor, k, M, N, res)
                assert eng.shifts == B.shifts
                eng.interreduce()
                assert_buchberger(eng)
                assert vectors(eng) == vectors(want)


def test_image_columns_make_no_poly_product(monkeypatch):
    """The image columns are built in engine keys: over the (3, 4, 5)
    semigroup ring, deciding Tor and Ext into the canonical module runs no
    ``Poly.__mul__`` inside ``_image_engine``."""
    from liaison.linkage import canonical_module
    from liaison.ring import Poly

    R = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                  weights=[3, 4, 5])  # a cold cache
    K = canonical_module(R)
    inside, engines, products = [], [], []
    real_engine, real_mul = homalg._image_engine, Poly.__mul__

    def watched_engine(functor, *args):
        inside.append(functor)
        try:
            return real_engine(functor, *args)
        finally:
            engines.append(inside.pop())

    def counted_mul(self, other):
        if inside:
            products.append(inside[-1])
        return real_mul(self, other)

    monkeypatch.setattr(homalg, "_image_engine", watched_engine)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__rmul__", counted_mul)
    for M in (residue_field(R), cyclic_module(R, [P(R, "x")]), K):
        for i in (1, 2):
            homalg.tor_vanishes(i, M, K)
            homalg.ext_vanishes(i, M, K)
    assert set(engines) == {"tor", "ext"}
    assert products == []


def test_image_columns_refuse_a_product_at_the_monomial_limit():
    # x * y^(2^20 - 1) reaches the limit: refused before any key could
    # carry into the position bits
    ctx = make_ring(101, ["x", "y"])
    M = cyclic_module(ctx, [P(ctx, "x")])
    N = subquotient(ctx, [(P(ctx, "y^1048575"),)], [], (0,))
    with pytest.raises(DegreeOverflow, match="weighted degree 1048576"):
        homalg.tor_vanishes(1, M, N)


def test_vanishing_over_the_semigroup_ring(semigroup345):
    from liaison.linkage import canonical_module

    K = canonical_module(semigroup345)
    k = residue_field(semigroup345)
    for i in (1, 2):
        assert not homalg.tor_vanishes(i, k, K) and not tor(i, k, K).is_zero()
        assert homalg.ext_vanishes(i, K, K) and ext(i, K, K).is_zero()


def test_canonical_ext_vanishing_matches_the_ring_route():
    """Into the canonical module K of a CM quotient R = S/J, ext_vanishes
    and ext_hilbert answer over S (Ext^i_R(M, K) = Ext^{i+c}_S(M, ω_S)),
    and for i + c > dim S answer zero without resolving M over S; each
    answer is checked against Ext^i_R(M, K) built over R, and each series
    against the route over R.  i runs down, so the first question of each
    M is one above dim S whenever there is one."""
    from liaison.linkage import canonical_module
    from liaison.modules import ring_dim

    rng = random.Random(20261101)
    semigroup = make_ring(101, ["x", "y", "z"],
                          ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                          weights=[3, 4, 5])
    cone = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])
    axes = make_ring(101, ["x", "y", "z"], ["x*y", "x*z", "y*z"])
    for ctx in (semigroup, cone, axes):
        outcomes = set()
        K = canonical_module(ctx)
        S = ctx.ambient()
        c = S.m - ring_dim(ctx)
        mods = [residue_field(ctx)]
        mods += [cyclic_module(ctx, _random_ideal(ctx, rng, 1)) for _ in range(3)]
        if ctx is not semigroup:
            mods += [cyclic_module(ctx, _random_ideal(ctx, rng)) for _ in range(2)]
            mods += [_random_rank2_module(ctx, rng) for _ in range(2)]
        for M in mods:
            MS = restrict_scalars(M)
            for i in reversed(range(4)):
                before = set(S._cache)
                z = homalg.ext_vanishes(i, M, K)
                stored = set(S._cache) - before
                assert z == ext(i, M, K).is_zero()
                assert homalg.ext_hilbert(i, M, K).numerator == homalg._ring_series(
                    "ext", i, M, K)
                if i + c <= S.m:
                    # the answer was decided over S
                    assert (MS, ("ext_hilbert", i + c, free_module(S, 1))) in S._cache
                else:
                    # pd_S M <= dim S: zero, with no resolution of M_S
                    assert z and homalg.ext_hilbert(i, M, K).is_zero()
                    assert not any((MS, ("res", k)) in stored for k in range(S.m + 2))
                outcomes.add(z)
        assert outcomes == {True, False}


def test_semidualizing_canonical_module_stays_off_the_ring_resolution(monkeypatch):
    """Certifying Ext^i(K, K) = 0 for the canonical K of the semigroup ring
    builds no image engine over R and resolves K over R to length at most
    1, where the ring route resolves K to length i + 1."""
    from liaison.linkage import canonical_module, is_semidualizing

    R = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                  weights=[3, 4, 5])
    K = canonical_module(R)
    engines, lengths = [], []
    real_engine, real_resolution = homalg._image_engine, homalg.free_resolution

    def counting_engine(functor, k, M, N, res):
        if M.ctx is R:
            engines.append((functor, k))
        return real_engine(functor, k, M, N, res)

    def counting_resolution(M, length):
        if M == K:
            lengths.append(length)
        return real_resolution(M, length)

    monkeypatch.setattr(homalg, "_image_engine", counting_engine)
    monkeypatch.setattr(homalg, "free_resolution", counting_resolution)
    assert is_semidualizing(K, 5).verdict.holds()
    assert engines == []
    assert max(lengths, default=0) <= 1


def test_ext_hilbert_matches_the_built_module():
    """ext_hilbert reads Ext^i's Hilbert series off the three-term complex;
    it equals the series of Ext^i built as a module, for N in {R, K, k, M}
    and both zero and nonzero Ext on each ring."""
    from liaison.linkage import canonical_module

    rng = random.Random(20261102)
    poly = make_ring(101, ["x", "y", "z"])
    cone = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])
    semigroup = make_ring(101, ["x", "y", "z"],
                          ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                          weights=[3, 4, 5])
    for ctx in (poly, cone, semigroup):
        outcomes = set()
        k = residue_field(ctx)
        targets = [free_module(ctx, 1), canonical_module(ctx), k]
        mods = [k] + [cyclic_module(ctx, _random_ideal(ctx, rng, 1)) for _ in range(2)]
        if ctx is not semigroup:
            mods += [cyclic_module(ctx, _random_ideal(ctx, rng)),
                     _random_rank2_module(ctx, rng)]
        for M in mods:
            for N in targets + [M]:
                for i in range(4):
                    got = homalg.ext_hilbert(i, M, N)
                    assert got.numerator == ext(i, M, N).hilbert().numerator
                    assert got.is_zero() == homalg.ext_vanishes(i, M, N)
                    outcomes.add(got.is_zero())
        assert outcomes == {True, False}


def test_vanishing_rejects_negative_index(F101xy):
    k = residue_field(F101xy)
    for f in (homalg.tor_vanishes, homalg.ext_vanishes, homalg.ext_hilbert):
        with pytest.raises(InvalidInput):
            f(-1, k, k)


def test_repeated_hom_and_certificate_run_hom_kernel_once(monkeypatch):
    from liaison import modules

    ctx = make_ring(101, ["x", "y"])
    M = cyclic_module(ctx, [P(ctx, "x")])
    K = cyclic_module(ctx, [P(ctx, "x^2")])
    # hom_module(K, M) is the kernel of Hom(F0, M) -> Hom(F1, M) = M(2)
    target = modules._hom_sum(M, [2])
    calls = []
    real_kernel = modules.kernel

    def counting_kernel(f):
        if f.target == target:
            calls.append(f)
        return real_kernel(f)

    monkeypatch.setattr(modules, "kernel", counting_kernel)
    first = class_member("Bass", M, K, 1)
    second = class_member("Bass", M, K, 1)
    hom_module(K, M)
    assert len(calls) == 1
    assert second == first
