import pytest

from liaison import cli, homalg
from liaison.colinkage import CoreflexiveEpi, coreflexive_epi, is_colinked_by
from liaison.errors import (
    BrokenChain,
    EqualIdeals,
    GradeMismatch,
    InjectivePhi,
    InvalidInput,
    NotCohenMacaulay,
    NuNotIso,
    RegularSequenceNotFound,
)
from liaison.homalg import (
    bidual_obstructions,
    ext,
    ext_vanishes,
    kernel_obstruction_vanishes,
    regular_sequence_in_ideal,
)
from liaison.linkage import (
    ReflexiveEpi,
    category_member,
    canonical_module,
    change_of_rings,
    cyclic_link,
    depth_formula_check,
    double_link_check,
    grade_of_ideal,
    horizontal_link,
    is_cm_module,
    is_gk_perfect,
    is_horizontally_linked,
    is_linked_by,
    is_perfect,
    is_semidualizing,
    liaison_walk,
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
    identity_map,
    minimize,
)
from liaison.ring import make_ring, parse_poly, render_poly


def P(ctx, s):
    return parse_poly(ctx, s)


def ideal_strings(gens):
    return [render_poly(g) for g in gens]


def same_hf(A, B, lo=-6, hi=8):
    return all(A.hf(d) == B.hf(d) for d in range(lo, hi + 1))


# -- canonical and semidualizing modules -----------------------------------------


def test_canonical_module_of_polynomial_ring(F101xy):
    om = canonical_module(F101xy)
    assert len(om.gens) == 1
    # R(-2): Hilbert function starts in degree 2
    assert [om.hf(d) for d in range(4)] == [0, 0, 1, 2]


def test_canonical_module_of_hypersurface_is_cyclic(hypersurface):
    om = canonical_module(hypersurface)
    omin, _, _ = minimize(om)
    assert len(omin.gens) == 1
    # faithful (Gorenstein up to shift): the annihilator is the zero ideal of
    # R, whose S-representation is the defining ideal itself
    assert ideal_strings(annihilator(om)) == ideal_strings(hypersurface.defining)


def test_canonical_module_of_semigroup_curve_type_two(semigroup345):
    om = canonical_module(semigroup345)
    omin, _, _ = minimize(om)
    assert len(omin.gens) == 2


def test_canonical_module_needs_cm():
    # two skew lines glued: depth 1 < dim 2, not CM
    ctx = make_ring(101, ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])
    with pytest.raises(NotCohenMacaulay):
        canonical_module(ctx)


def test_ring_is_semidualizing_over_itself(F101xy):
    cert = is_semidualizing(free_module(F101xy, 1), 4)
    assert cert.verdict.holds()
    assert cert.homothety_iso


def test_residue_field_is_not_semidualizing(F101x):
    ctx = F101x
    k = cyclic_module(ctx, [P(ctx, "x")])
    cert = is_semidualizing(k, 3)
    assert cert.verdict.fails()
    assert not cert.homothety_iso


@pytest.mark.slow
def test_semigroup_canonical_is_semidualizing(semigroup345):
    om = canonical_module(semigroup345)
    cert = is_semidualizing(om, 5)
    assert cert.verdict.holds()


# -- perfection ---------------------------------------------------------------------


def test_hypersurface_quotient_is_gk_perfect(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x")])
    assert is_gk_perfect(M, free_module(ctx, 1), 4).holds()
    assert is_perfect(M).holds()


def test_mixed_ideal_is_not_perfect(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    v = is_perfect(M)
    assert v.fails() and v.witness == (1, 2)
    assert is_gk_perfect(M, free_module(ctx, 1), 4).fails()


def test_twisted_cubic_is_gk_perfect(F101xyzw, cubic_ideal):
    M = cyclic_module(F101xyzw, cubic_ideal)
    assert is_gk_perfect(M, free_module(F101xyzw, 1), 5).holds()


# -- the linkage operator -------------------------------------------------------------


def test_univariate_link_realizes_colon(F101x):
    ctx = F101x
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, [P(ctx, "x")], [P(ctx, "x^3")]), R1, "Pn")
    res = link_operator(e)
    assert ideal_strings(annihilator(res.linked_module)) == ["x^2"]
    E1, E2 = res.obstructions
    assert E1.is_zero() and E2.is_zero()
    assert is_linked_by(e)


def test_direct_sum_self_link(F101xy):
    # the split epimorphism M + Ext^n(M,K) ->> M has kernel E = Ext^n(M,K),
    # so its link is Ext^n(E,K) = M: the module is self-linked, and the
    # linked module agrees with E up to the degree shift (equal annihilators)
    ctx = F101xy
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x")])
    E = ext(1, M, R1)
    S, (iM, iE), (pM, pE) = direct_sum(M, E)
    e = reflexive_epi(pM, R1, "Pn")
    res = link_operator(e)
    assert same_hf(res.linked_module, M)
    assert ideal_strings(annihilator(res.linked_module)) == ideal_strings(annihilator(E))
    assert is_linked_by(e)


def test_twisted_cubic_links_to_a_line(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    c = cubic_ideal[:2]
    e = reflexive_epi(natural_cyclic_epi(ctx, cubic_ideal, c), R1, "Pn")
    res = link_operator(e)
    from liaison.groebner import colon

    want = colon(c, cubic_ideal, ctx)
    assert ideal_strings(annihilator(res.linked_module)) == ideal_strings(want)
    # degree-one unmixed ideal: a linear subvariety
    assert all(g.degree() == 1 for g in want)


def test_injective_phi_rejected(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    R1 = free_module(ctx, 1)
    from liaison.modules import identity_map

    e = reflexive_epi(identity_map(M), R1, "Pn")
    with pytest.raises(InjectivePhi):
        link_operator(e)


def test_is_linked_by_fails_on_mixed_ideal(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    e = reflexive_epi(
        natural_cyclic_epi(ctx, [P(ctx, "x^2"), P(ctx, "x*y")], [P(ctx, "x^2")]),
        R1,
        "Pn",
    )
    assert not is_linked_by(e)
    v = double_link_check(e)
    assert v.fails()


def _gallery_image_modules():
    """(label, R/I, K) for every ideal I an operation of a gallery names."""
    for name in sorted(cli.GALLERIES):
        spec = cli.gallery(name)
        K = spec.resolve_K()
        named = []
        for _, args, _ in spec.ops:
            named += [a for a in args if a in spec.ideals and a not in named]
        for a in named:
            yield f"{name} {a}", cyclic_module(spec.ring, spec.ideals[a]), K


def _criterion_3_image_modules():
    """The images of the eight epimorphisms of acceptance criterion 3."""
    S1 = make_ring(101, ["x"])
    S2 = make_ring(101, ["x", "y"])
    S3 = make_ring(101, ["x", "y", "z"])
    S4 = make_ring(101, ["x", "y", "z", "w"])
    skew = ["x*z", "x*w", "y*z", "y*w"]
    cubic = ["x*z - y^2", "y*w - z^2", "x*w - y*z"]
    k = cyclic_module(S1, [P(S1, "x")])
    k_plus_R, _, _ = direct_sum(k, free_module(S1, 1))
    mods = [
        cyclic_module(S1, [P(S1, "x")]),
        cyclic_module(S1, [P(S1, "x^2")]),
        cyclic_module(S2, [P(S2, "x^2"), P(S2, "x*y")]),
        cyclic_module(S4, [P(S4, s) for s in cubic]),
        cyclic_module(S4, [P(S4, s) for s in skew]),
        cyclic_module(S4, [P(S4, "x"), P(S4, "y")]),
        k_plus_R,
        cyclic_module(S3, [P(S3, "x^2"), P(S3, "x*y")]),
    ]
    return [(f"criterion 3 #{k}", M, free_module(M.ctx, 1)) for k, M in enumerate(mods)]


def test_kernel_obstruction_vanishing_agrees_with_the_module():
    cases = list(_gallery_image_modules()) + _criterion_3_image_modules()
    outcomes = set()
    for label, M, K in cases:
        n = grade(M)
        for route in ("direct", "quotient", "auto"):
            Tr, KK, j = homalg._obstruction_transpose(M, K, n, route)
            E1 = homalg.ext_hilbert(j, Tr, KK)
            # the slow path: the kernel-side obstruction built as a module
            built = ext(j, Tr, KK)
            got = Tr.is_zero() or ext_vanishes(j, Tr, KK)
            assert got == built.is_zero() == E1.is_zero(), (label, route)
            assert E1.numerator == built.hilbert().numerator, (label, route)
            outcomes.add(got)
            if route == "auto":
                assert kernel_obstruction_vanishes(M, K, n) == built.is_zero(), label
                assert bidual_obstructions(M, K, n)[0].numerator == E1.numerator, label
    assert outcomes == {True, False}


def test_linkage_and_colinkage_criteria_keep_their_raises(F101x, semigroup345):
    ctx = F101x
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x")])
    with pytest.raises(InjectivePhi):
        is_linked_by(reflexive_epi(identity_map(M), R1, "Pn"))
    with pytest.raises(InjectivePhi):
        is_colinked_by(coreflexive_epi(identity_map(M), R1, "PKn"))
    phi = natural_cyclic_epi(ctx, [P(ctx, "x")], [P(ctx, "x^3")])
    with pytest.raises(GradeMismatch):
        is_linked_by(ReflexiveEpi(phi, 0, R1, "Pn", 3))
    with pytest.raises(GradeMismatch):
        is_colinked_by(CoreflexiveEpi(phi, 0, R1, "PKn", 3))
    with pytest.raises(GradeMismatch):
        kernel_obstruction_vanishes(M, R1, 0)
    # onto the residue field of the semigroup ring, whose nu is not iso
    S = semigroup345
    om = canonical_module(S)
    onto_k = natural_cyclic_epi(S, [P(S, v) for v in "xyz"], [P(S, "x")])
    with pytest.raises(NuNotIso):
        is_colinked_by(CoreflexiveEpi(onto_k, 1, om, "PKn", 3))
    with pytest.raises(InvalidInput):
        category_member("Qn", M, R1, 3)


# -- cyclic linkage ---------------------------------------------------------------------


def test_cyclic_link_univariate(F101x):
    ctx = F101x
    linked = cyclic_link(ctx, [P(ctx, "x")], [P(ctx, "x^3")], free_module(ctx, 1))
    assert ideal_strings(annihilator(linked)) == ["x^2"]


def test_cyclic_link_grade_mismatch(F101xy):
    ctx = F101xy
    with pytest.raises(GradeMismatch):
        cyclic_link(
            ctx,
            [P(ctx, "x"), P(ctx, "y")],
            [P(ctx, "x*y")],
            free_module(ctx, 1),
        )


def test_cyclic_link_equal_ideals_rejected(F101x):
    ctx = F101x
    with pytest.raises(EqualIdeals):
        cyclic_link(ctx, [P(ctx, "x^2")], [P(ctx, "x^2")], free_module(ctx, 1))


def test_double_link_univariate_holds(F101x):
    ctx = F101x
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, [P(ctx, "x")], [P(ctx, "x^3")]), R1, "Pn")
    assert double_link_check(e).holds()


def test_double_link_twisted_cubic_returns_ideal(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    from liaison.groebner import colon, reduced_ideal_gb

    c = cubic_ideal[:2]
    first = colon(c, cubic_ideal, ctx)
    second = colon(c, first, ctx)
    assert ideal_strings(second) == ideal_strings(reduced_ideal_gb(ctx, cubic_ideal))


# -- horizontal linkage ---------------------------------------------------------------


def test_free_module_is_not_horizontally_linked(F101x):
    assert not is_horizontally_linked(free_module(F101x, 1))


def test_residue_field_over_polynomial_ring_not_horizontally_linked(F101x):
    # over S = F101[x] the transpose of k has nonvanishing Ext^1 against S
    ctx = F101x
    k = cyclic_module(ctx, [P(ctx, "x")])
    assert not is_horizontally_linked(k)


def test_horizontal_link_over_artinian_hypersurface():
    # R = F101[x]/(x^3): R/(x) and R/(x^2) are horizontally linked
    ctx = make_ring(101, ["x"], ["x^3"])
    M = cyclic_module(ctx, [P(ctx, "x")])
    assert is_horizontally_linked(M)
    lam = horizontal_link(M)
    assert ideal_strings(annihilator(lam)) == ["x^2"]
    lam2 = horizontal_link(minimize(lam)[0])
    assert ideal_strings(annihilator(lam2)) == ["x"]
    assert same_hf(lam2, M, 0, 4)


def test_mixed_ideal_not_horizontally_linked(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert not is_horizontally_linked(M)


# -- regular sequences and change of rings ------------------------------------------------


def test_regular_sequence_in_maximal_ideal(F101xy):
    ctx = F101xy
    seq = regular_sequence_in_ideal(ctx, [P(ctx, "x"), P(ctx, "y")], 2)
    assert len(seq) == 2
    assert grade_of_ideal(ctx, seq) == 2


def test_regular_sequence_in_twisted_cubic(F101xyzw, cubic_ideal):
    seq = regular_sequence_in_ideal(F101xyzw, cubic_ideal, 2)
    assert len(seq) == 2
    assert all(g.degree() == 2 for g in seq)
    assert grade_of_ideal(F101xyzw, seq) == 2


def test_regular_sequence_not_found(F101xy):
    with pytest.raises(RegularSequenceNotFound):
        regular_sequence_in_ideal(F101xy, [P(F101xy, "x")], 2)


def test_change_of_rings_produces_twisted_quotient(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    ctx2, Kbar = change_of_rings(ctx, [P(ctx, "x")], R1)
    assert render_poly(ctx2.defining[0]) == "x"
    # Ext^1(R/x, R) = (R/x)(1): one basis element in each degree >= -1
    assert [Kbar.hf(d) for d in (-2, -1, 0, 1)] == [0, 1, 1, 1]


def test_change_of_rings_identity_on_empty_sequence(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    ctx2, K2 = change_of_rings(ctx, [], R1)
    assert ctx2 is ctx and K2 is R1


def test_change_of_rings_ext_comparison(F101xy):
    # Ext^2_S(k, S) and Ext^1_{S/x}(k, Kbar) have equal Hilbert functions
    ctx = F101xy
    R1 = free_module(ctx, 1)
    k = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y")])
    E2 = ext(2, k, R1)
    ctx2, Kbar = change_of_rings(ctx, [P(ctx, "x")], R1)
    k2 = cyclic_module(ctx2, [P(ctx2, "x"), P(ctx2, "y")])
    E1 = ext(1, k2, Kbar)
    assert same_hf(E2, E1)


# -- walks and the depth formula --------------------------------------------------------


from liaison.linkage import build_cyclic_walk as _cyclic_walk_builder


def _cyclic_walk(ctx, i_gens, c_gens, K, steps=2, tag="Pn"):
    return _cyclic_walk_builder(ctx, i_gens, c_gens, K, steps=steps, tag=tag)


def test_liaison_walk_univariate(F101x):
    ctx = F101x
    R1 = free_module(ctx, 1)
    epis = _cyclic_walk(ctx, [P(ctx, "x")], [P(ctx, "x^3")], R1, steps=2)
    report = liaison_walk(epis)
    assert report["steps"] == 2
    assert report["even_ext_agree"]
    assert report["invariants"][0] == report["invariants"][2]


def test_liaison_walk_skew_lines(F101xyzw):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    I = [P(ctx, "x*z"), P(ctx, "x*w"), P(ctx, "y*z"), P(ctx, "y*w")]
    c = [P(ctx, "x*z"), P(ctx, "y*w")]
    epis = _cyclic_walk(ctx, I, c, R1, steps=2)
    report = liaison_walk(epis)
    assert report["even_ext_agree"]
    assert report["pd_pair"] == [3, 3]
    # the ends carry the same nonzero top Ext dual
    start = epis[0].phi.target
    end_ann = annihilator(link_operator(epis[1]).linked_module)
    assert ideal_strings(end_ann) == ideal_strings(annihilator(start))
    assert not ext(3, start, R1).is_zero()


def test_depth_formula_on_skew_lines(F101xyzw):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    I = [P(ctx, "x*z"), P(ctx, "x*w"), P(ctx, "y*z"), P(ctx, "y*w")]
    c = [P(ctx, "x*z"), P(ctx, "y*w")]
    e = reflexive_epi(natural_cyclic_epi(ctx, I, c), R1, "Pn")
    v = depth_formula_check(e)
    assert v.holds()


def test_depth_formula_on_cm_pair(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, cubic_ideal, cubic_ideal[:2]), R1, "Pn")
    assert depth_formula_check(e).holds()


def test_gk_perfection_preserved_along_walk(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    epis = _cyclic_walk(ctx, cubic_ideal, cubic_ideal[:2], R1, steps=2)
    report = liaison_walk(epis)
    assert report["gk_perfect_agree"]
    assert report["gk_perfect_start"] == report["gk_perfect_end"]


def test_theorem_t1_iv_kernel_matches_ext_dual(F101x):
    # when the kernel-side obstruction vanishes, ker(phi) and Ext^n(N, K)
    # agree in Hilbert function and annihilator
    ctx = F101x
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, [P(ctx, "x")], [P(ctx, "x^3")]), R1, "Pn")
    res = link_operator(e)
    from liaison.modules import kernel

    Kphi, _ = kernel(e.phi)
    E = ext(1, res.linked_module, R1)
    assert same_hf(Kphi, E)
    assert ideal_strings(annihilator(Kphi)) == ideal_strings(annihilator(E))


def test_empty_walk_names_step_zero():
    with pytest.raises(BrokenChain, match="^step 0: empty walk$") as info:
        liaison_walk([])
    assert info.value.step == 0


def test_incompatible_walk_names_its_step(F101xyzw, cubic_ideal):
    # the link of the cubic is a line, not the cubic the second step starts at
    R1 = free_module(F101xyzw, 1)
    e = reflexive_epi(
        natural_cyclic_epi(F101xyzw, cubic_ideal, cubic_ideal[:2]), R1, "Pn"
    )
    with pytest.raises(BrokenChain, match="^step 1: steps are not compatible$") as info:
        liaison_walk([e, e])
    assert info.value.step == 1


def test_cm_category_membership():
    ctx = make_ring(101, ["x", "y", "z"])
    R1 = free_module(ctx, 1)
    plane = cyclic_module(ctx, [P(ctx, "x")])
    # (x*y, x*z) = (x) meet (y, z): a plane and a line, depth 1 < dim 2
    plane_and_line = cyclic_module(ctx, [P(ctx, "x*y"), P(ctx, "x*z")])
    assert is_cm_module(plane)
    assert category_member("CMn", plane, R1, 3)
    assert not is_cm_module(plane_and_line)
    assert not category_member("CMn", plane_and_line, R1, 3)


def test_cyclic_link_rejects_irregular_sequence(F101xy):
    ctx = F101xy
    from liaison.errors import NotRegularSequence

    # x*y is a zerodivisor mod x^2, so (x^2, x*y) is not a regular sequence
    with pytest.raises(NotRegularSequence):
        cyclic_link(
            ctx,
            [P(ctx, "x"), P(ctx, "y")],
            [P(ctx, "x^2"), P(ctx, "x*y")],
            free_module(ctx, 1),
        )


def test_gk_perfection_with_twisted_semidualizing_module(F101xy):
    # the ambient canonical module R(-w) is semidualizing; perfection
    # verdicts are twist-insensitive
    ctx = F101xy
    om = canonical_module(ctx)
    M = cyclic_module(ctx, [P(ctx, "x")])
    assert is_gk_perfect(M, om, 4).holds()
    mixed = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert is_gk_perfect(mixed, om, 4).fails()
