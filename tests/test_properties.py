"""Cross-cutting invariants: structural identities asserted across routes."""

from liaison.cohomology import local_cohomology_hf
from liaison.colinkage import (
    colink_operator,
    coreflexive_epi,
    pk_dimension,
)
from liaison.homalg import ext, free_resolution, tor
from liaison.linkage import (
    build_cyclic_walk,
    canonical_module,
    is_gk_perfect,
    link_operator,
    natural_cyclic_epi,
    reflexive_epi,
)
from liaison.modules import (
    annihilator,
    cyclic_module,
    direct_sum,
    free_module,
    grade,
    invariants,
)
from liaison.ring import parse_poly

from tests.polyref import ideal


def P(ctx, s):
    return parse_poly(ctx, s)


def same_hf(A, B, lo=-6, hi=8):
    return all(A.hf(d) == B.hf(d) for d in range(lo, hi + 1))


def test_annihilator_matches_ext_dual_on_perfect_modules(F101xy, F101xyzw, cubic_ideal):
    # ann(M) = ann(Ext^n(M,K)) for perfect gallery modules
    cases = [
        (F101xy, [P(F101xy, "x")], 1),
        (F101xyzw, cubic_ideal, 2),
    ]
    for ctx, gens, n in cases:
        M = cyclic_module(ctx, gens)
        K = free_module(ctx, 1)
        assert is_gk_perfect(M, K, ctx.m + 1).holds()
        E = ext(n, M, K)
        assert annihilator(M) == annihilator(E)


def test_grade_bounded_by_codimension(F101xy, F101xyzw, cubic_ideal):
    mods = [
        cyclic_module(F101xy, [P(F101xy, "x^2"), P(F101xy, "x*y")]),
        cyclic_module(F101xyzw, cubic_ideal),
        cyclic_module(F101xyzw, [P(F101xyzw, s) for s in ("x*z", "x*w", "y*z", "y*w")]),
    ]
    for M in mods:
        rep = invariants(M)
        assert rep.grade <= rep.cod
        # equality over these Cohen-Macaulay ring contexts
        assert rep.grade == rep.cod


def test_betti_alternating_sum_gives_hilbert_function(F101xyzw, cubic_ideal):
    # sum_i (-1)^i HF(F_i) = HF(M) for a complete resolution
    M = cyclic_module(F101xyzw, cubic_ideal)
    res = free_resolution(M, F101xyzw.m + 1)
    assert res.complete

    def free_hf(shifts, d):
        R1 = free_module(F101xyzw, 1)
        return sum(R1.hf(d - s) for s in shifts)

    for d in range(7):
        acc = 0
        for i, shifts in enumerate(res.level_shifts):
            acc += (-1) ** i * free_hf(shifts, d)
        assert acc == M.hf(d)


def test_tor_balance(F101xy):
    # Tor_i(M, N) and Tor_i(N, M) have the same Hilbert functions
    ctx = F101xy
    A = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    B = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y^2")])
    for i in range(3):
        assert same_hf(tor(i, A, B), tor(i, B, A))


def test_ext_additive_in_first_argument(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    A = cyclic_module(ctx, [P(ctx, "x")])
    B = cyclic_module(ctx, [P(ctx, "y^2")])
    S, _, _ = direct_sum(A, B)
    for i in range(3):
        EA, EB, ES = ext(i, A, R1), ext(i, B, R1), ext(i, S, R1)
        for d in range(-5, 7):
            assert ES.hf(d) == EA.hf(d) + EB.hf(d)


def test_even_liaison_preserves_middle_cohomology(F101xyzw):
    # independent cross-check: the even-walk Ext equality and the direct
    # local-cohomology tables tell the same story for 0 < i < d - n
    ctx = F101xyzw
    K = free_module(ctx, 1)
    I = ideal(ctx, [P(ctx, s) for s in ("x*z", "x*w", "y*z", "y*w")])
    c = ideal(ctx, [P(ctx, s) for s in ("x*z", "y*w")])
    epis = build_cyclic_walk(ctx, I, c, K, 2)
    start = epis[0].phi.target
    end = link_operator(epis[1]).linked_module
    d = invariants(start).dim
    n = epis[0].n
    for i in range(1, d):
        hs = local_cohomology_hf(start, i, (-5, 5))
        he = local_cohomology_hf(end, i, (-5, 5))
        assert hs.hf == he.hf
    # and the band content is genuinely nonzero here
    assert any(local_cohomology_hf(start, 1, (-5, 5)).hf.values())


def test_coreflexive_duals_stable_on_even_coliaison(semigroup345):
    # D^i agrees at the two ends of an even coliaison walk for i > n
    ctx = semigroup345
    om = canonical_module(ctx)
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), om, "Pn",
        bound=4,
    )
    from liaison.colinkage import adjoint_transfer_forward

    ce = adjoint_transfer_forward(e)
    col1, proj1 = colink_operator(ce)
    ce2 = coreflexive_epi(proj1, om, "PKn", bound=4, n=ce.n)
    col2, _ = colink_operator(ce2)
    start, end = ce.phi.target, col2
    n = ce.n
    for i in range(n + 1, 4):
        assert same_hf(cohom_dual_safe(start, om, i), cohom_dual_safe(end, om, i))
    # K-projective perfection is preserved along the walk (both ends grade 1)
    v1, val1 = pk_dimension(start, om, 4)
    v2, val2 = pk_dimension(end, om, 4)
    assert v1.holds() and v2.holds()
    assert val1 == grade(start) and val2 == grade(end)


def cohom_dual_safe(M, K, i):
    """Ext^i(Hom(K,M), K) without the grade guard (higher indices)."""
    from liaison.modules import hom_module

    H, _ = hom_module(K, M)
    return ext(i, H, K)


def test_ext_duals_are_grade_unmixed_even_for_mixed_input(F101xy, F101xyzw):
    # Ext^n(M, K) of a grade-n module is grade-unmixed of grade n, whether
    # or not M itself is; checked through the kernel-obstruction route
    R1xy = free_module(F101xy, 1)
    mixed = cyclic_module(F101xy, [P(F101xy, "x^2"), P(F101xy, "x*y")])
    E = ext(1, mixed, R1xy)
    assert grade(E) == 1
    E1, _ = __import__("liaison.homalg", fromlist=["bidual_obstructions"]).bidual_obstructions(E, R1xy, 1)
    assert E1.is_zero()
    R1 = free_module(F101xyzw, 1)
    skew = cyclic_module(
        F101xyzw, [P(F101xyzw, s) for s in ("x*z", "x*w", "y*z", "y*w")]
    )
    E2 = ext(2, skew, R1)
    assert grade(E2) == 2
    ob1, _ = __import__("liaison.homalg", fromlist=["bidual_obstructions"]).bidual_obstructions(E2, R1, 2)
    assert ob1.is_zero()


def test_obstruction_routes_agree(F101xy):
    # the direct transpose formula and the quotient-ring route compute the
    # same obstruction spaces (cross-check of the default implementation)
    from liaison.homalg import _obstruction_transpose, ext_hilbert, syzygy, transpose

    def obstructions(Tr, KK, j):
        return ext_hilbert(j, Tr, KK), ext_hilbert(j + 1, Tr, KK)

    R1 = free_module(F101xy, 1)
    for gens in (["x"], ["x^2", "x*y"], ["x^2 + x*y"]):
        M = cyclic_module(F101xy, [P(F101xy, s) for s in gens])
        d1, d2 = obstructions(transpose(syzygy(M, 1), R1)[0], R1, 2)
        q1, q2 = obstructions(*_obstruction_transpose(M, R1, 1))
        assert same_hf(d1, q1) and same_hf(d2, q2)


def test_bidual_cokernel_equals_next_ext_of_link(F101xyzw):
    # for directly linked M ~ N the cokernel of the comparison map of M is
    # the (n+1)-st Ext dual of N; nontrivial on the non-CM skew-lines pair
    from liaison.homalg import bidual_obstructions
    from liaison.linkage import link_operator, natural_cyclic_epi, reflexive_epi

    ctx = F101xyzw
    K = free_module(ctx, 1)
    I = ideal(ctx, [P(ctx, s) for s in ("x*z", "x*w", "y*z", "y*w")])
    c = ideal(ctx, [P(ctx, s) for s in ("x*z", "y*w")])
    e = reflexive_epi(natural_cyclic_epi(ctx, I, c), K, "Pn")
    res = link_operator(e)
    E1, E2 = bidual_obstructions(e.phi.target, e.K, e.n)
    assert E1.is_zero()
    assert not E2.is_zero()
    E_next = ext(3, res.linked_module, K)
    assert same_hf(E2, E_next)


def test_negative_homological_indices_rejected(F101xy):
    import pytest as _pytest

    from liaison.errors import InvalidInput
    from liaison.homalg import syzygy, tor

    M = cyclic_module(F101xy, [P(F101xy, "x")])
    R1 = free_module(F101xy, 1)
    with _pytest.raises(InvalidInput):
        ext(-1, M, R1)
    with _pytest.raises(InvalidInput):
        tor(-1, M, R1)
    with _pytest.raises(InvalidInput):
        syzygy(M, -1)
