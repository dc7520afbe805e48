import importlib.util
import pathlib
import random

import pytest

from liaison import cli, homalg, linkage
from liaison.colinkage import coreflexive_epi, is_colinked_by
from liaison.errors import (
    BrokenChain,
    EqualIdeals,
    GradeMismatch,
    InjectivePhi,
    InternalConsistencyError,
    InvalidInput,
    NotCohenMacaulay,
    NuNotIso,
    RegularSequenceNotFound,
)
from liaison.groebner import buchberger as vec_buchberger
from liaison.homalg import (
    bidual_obstructions,
    change_of_rings,
    ext,
    ext_vanishes,
    kernel_obstruction_vanishes,
    regular_sequence_in_ideal,
)
from liaison.linkage import (
    Epi,
    category_member,
    canonical_module,
    cyclic_link,
    depth_formula_check,
    double_link_check,
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
    colon,
    cyclic_module,
    direct_sum,
    free_module,
    grade,
    identity_map,
    minimize,
)
from liaison.ring import make_ring, parse_poly, render_poly

from tests.polyref import ideal, ideal_polys, ideal_strings, one


def P(ctx, s):
    return parse_poly(ctx, s)


def I_(ctx, gens):
    """The ideal of these Polys or polynomial literals, as the package holds it."""
    return ideal(ctx, [P(ctx, g) if isinstance(g, str) else g for g in gens])


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
    assert ideal_polys(hypersurface, annihilator(om)) == list(hypersurface.defining)


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
    e = reflexive_epi(natural_cyclic_epi(ctx, I_(ctx, ["x"]), I_(ctx, ["x^3"])), R1, "Pn")
    res = link_operator(e)
    assert ideal_strings(ctx, annihilator(res.linked_module)) == ["x^2"]
    E1, E2 = bidual_obstructions(e.phi.target, e.K, e.n)
    assert E1.is_zero() and E2.is_zero()
    assert is_linked_by(e)


def test_equal_maps_certified_apart_share_one_link(monkeypatch):
    # the link reads the map's value, n and K, not the tag or the bound, so
    # two epimorphisms certified from equal maps give one link, built once
    ctx = make_ring(101, ["x", "y"])  # a cold cache
    R1 = free_module(ctx, 1)
    I, c = I_(ctx, ["x"]), I_(ctx, ["x^3"])
    first = reflexive_epi(natural_cyclic_epi(ctx, I, c), R1, "Pn")
    second = reflexive_epi(natural_cyclic_epi(ctx, I, c), R1, "RefnK", bound=3)
    assert first.phi is not second.phi
    runs = []
    real = homalg.ext_induced

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(homalg, "ext_induced", counted)
    assert link_operator(first) is link_operator(second)
    assert len(runs) == 1


class ObstructionAsked(Exception):
    pass


def test_the_link_operator_asks_for_no_obstruction(monkeypatch):
    # the link is the cokernel of Ext^n(phi, K) alone: linking, the depth
    # formula and a walk ask for no double-dual obstruction; the double
    # link and the link report read both
    def asked(*args):
        raise ObstructionAsked

    for module, name in ((linkage, "bidual_obstructions"), (homalg, "bidual_obstructions"),
                         (homalg, "_obstruction_transpose")):
        monkeypatch.setattr(module, name, asked)
    ctx = make_ring(101, ["x", "y", "z", "w"])  # a cold cache
    R1 = free_module(ctx, 1)
    # skew lines: pd 3 > grade 2, so the walk's perfection checks fail at
    # Ext^3, before they reach an obstruction
    I = I_(ctx, ["x*z", "x*w", "y*z", "y*w"])
    c = I_(ctx, ["x*z", "y*w"])
    e = reflexive_epi(natural_cyclic_epi(ctx, I, c), R1, "Pn")
    assert annihilator(link_operator(e).linked_module) == colon(c, I, ctx)
    assert depth_formula_check(e).holds()
    epis = linkage.build_cyclic_walk(ctx, I, c, R1, steps=2)
    assert liaison_walk(epis)["pd_pair"] == [3, 3]
    with pytest.raises(ObstructionAsked):
        double_link_check(e)
    spec = cli.parse_spec("[ring]\np = 101\nvars = x\n[ideal I]\ngens = x\n"
                          "[ideal c]\ngens = x^3\n[ops]\nlink I c\n")
    with pytest.raises(ObstructionAsked):
        cli.op_link(spec, "I", "c")


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
    assert annihilator(res.linked_module) == annihilator(E)
    assert is_linked_by(e)


def test_twisted_cubic_links_to_a_line(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    I, c = I_(ctx, cubic_ideal), I_(ctx, cubic_ideal[:2])
    e = reflexive_epi(natural_cyclic_epi(ctx, I, c), R1, "Pn")
    res = link_operator(e)
    want = colon(c, I, ctx)
    assert annihilator(res.linked_module) == want
    # degree-one unmixed ideal: a linear subvariety
    assert all(g.degree() == 1 for g in ideal_polys(ctx, want))


def test_injective_phi_rejected(F101x):
    ctx = F101x
    M = cyclic_module(ctx, [P(ctx, "x")])
    R1 = free_module(ctx, 1)
    from liaison.modules import identity_map

    with pytest.raises(InjectivePhi, match="nonzero kernel"):
        reflexive_epi(identity_map(M), R1, "Pn")


def test_is_linked_by_fails_on_mixed_ideal(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    e = reflexive_epi(
        natural_cyclic_epi(ctx, I_(ctx, ["x^2", "x*y"]), I_(ctx, ["x^2"])),
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
            M = cyclic_module(spec.ring, ideal_polys(spec.ring, spec.ideals[a]))
            yield f"{name} {a}", M, K


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
        routes = {"direct": (homalg.transpose(homalg.syzygy(M, n), K)[0], K, n + 1),
                  "auto": homalg._obstruction_transpose(M, K, n)}
        for route, (Tr, KK, j) in routes.items():
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
    # an isomorphism is refused where it is certified, reflexive or not
    with pytest.raises(InjectivePhi):
        is_linked_by(reflexive_epi(identity_map(M), R1, "Pn"))
    with pytest.raises(InjectivePhi):
        is_colinked_by(coreflexive_epi(identity_map(M), R1, "PKn"))
    phi = natural_cyclic_epi(ctx, I_(ctx, ["x"]), I_(ctx, ["x^3"]))
    with pytest.raises(GradeMismatch):
        is_linked_by(Epi(phi, 0, R1, "Pn", 3))
    with pytest.raises(GradeMismatch):
        is_colinked_by(Epi(phi, 0, R1, "PKn", 3))
    with pytest.raises(GradeMismatch):
        kernel_obstruction_vanishes(M, R1, 0)
    # onto the residue field of the semigroup ring, whose nu is not iso
    S = semigroup345
    om = canonical_module(S)
    onto_k = natural_cyclic_epi(S, I_(S, "xyz"), I_(S, ["x"]))
    with pytest.raises(NuNotIso):
        is_colinked_by(Epi(onto_k, 1, om, "PKn", 3))
    # an Epi built by hand skips certification, and with it the kernel
    # check: the colinkage criterion still checks nu, so an injective phi
    # onto k fails there
    k = homalg.residue_field(S)
    with pytest.raises(NuNotIso):
        is_colinked_by(Epi(identity_map(k), 1, om, "PKn", 3))
    with pytest.raises(InvalidInput):
        category_member("Qn", M, R1, 3)


# -- cyclic linkage ---------------------------------------------------------------------


def test_cyclic_link_univariate(F101x):
    ctx = F101x
    linked = cyclic_link(ctx, [P(ctx, "x")], [P(ctx, "x^3")], free_module(ctx, 1))
    assert ideal_strings(ctx, annihilator(linked)) == ["x^2"]


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


def _memo_keys(ctx, kind):
    return [k for k in ctx._cache if isinstance(k, tuple) and k[0] == kind]


def test_cyclic_link_is_computed_once_per_value():
    ctx = make_ring(101, ["x", "y"])  # a cold cache
    I = [P(ctx, "x^2"), P(ctx, "x*y")]
    c = [P(ctx, "x^2")]
    with pytest.raises(InvalidInput):  # c = (y^2) is not inside I
        cyclic_link(ctx, I, [P(ctx, "y^2")], free_module(ctx, 1))
    assert _memo_keys(ctx, "cyclic_link") == []  # a call that raises stores nothing
    linked = cyclic_link(ctx, I, c, free_module(ctx, 1))
    # equal generators in new lists, a zero generator and an equal K
    again = cyclic_link(ctx, [ctx.zero()] + [P(ctx, "x^2"), P(ctx, "x*y")],
                        [P(ctx, "x^2")], free_module(ctx, 1))
    assert again is linked
    assert len(_memo_keys(ctx, "cyclic_link")) == 1
    assert ideal_strings(ctx, annihilator(linked)) == ["x"]


def test_cyclic_link_checks_the_colon_over_a_quotient_ring(monkeypatch, cold_rings):
    # over R = S/J a faithful K = R has annihilator J, not the empty list;
    # the link's annihilator must still be checked against the colon
    def cone():
        return make_ring(101, ["x", "y", "z"], ["x*z - y^2"])

    ctx = cone()
    I, c = [P(ctx, "x"), P(ctx, "y")], [P(ctx, "x")]
    linked = cyclic_link(ctx, I, c, free_module(ctx, 1))
    assert annihilator(linked) == colon(I_(ctx, c), I_(ctx, I), ctx)
    assert ideal_strings(ctx, colon(I_(ctx, c), I_(ctx, I), ctx)) == ["x", "y"]
    cold_rings()  # the stored link would hide the check
    ctx = cone()
    monkeypatch.setattr(linkage, "colon", lambda c_gens, i_gens, ring: I_(ring, [one(ring)]))
    with pytest.raises(InternalConsistencyError):
        cyclic_link(ctx, [P(ctx, "x"), P(ctx, "y")], [P(ctx, "x")], free_module(ctx, 1))


def _generic_link_case(seed, row_degrees):
    """A seeded Hilbert-Burch link from perfbench's workload generator."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text, facts = workloads.generic_link_case(random.Random(seed), row_degrees)
    return cli.parse_spec(text), facts


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("row_degrees", [(1, 1), (1, 2)])
def test_seeded_hilbert_burch_links(seed, row_degrees):
    spec, facts = _generic_link_case(seed, row_degrees)
    ctx, I, c = spec.ring, spec.ideals["I"], spec.ideals["c"]
    e = reflexive_epi(natural_cyclic_epi(ctx, I, c), free_module(ctx, 1), "Pn")
    assert is_linked_by(e)
    linked = colon(c, I, ctx)
    # Peskine-Szpiro: deg I + deg (c : I) = deg c_1 * deg c_2
    deg_i = cyclic_module(ctx, ideal_polys(ctx, I)).hilbert().degree
    deg_linked = cyclic_module(ctx, ideal_polys(ctx, linked)).hilbert().degree
    assert deg_i == facts["deg_I"]
    c1, c2 = ideal_polys(ctx, c)
    assert deg_i + deg_linked == c1.degree() * c2.degree()
    assert colon(c, linked, ctx) == tuple(vec_buchberger(I, ctx, 1).basis)


def test_double_link_univariate_holds(F101x):
    ctx = F101x
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, I_(ctx, ["x"]), I_(ctx, ["x^3"])), R1, "Pn")
    assert double_link_check(e).holds()


def test_double_link_twisted_cubic_returns_ideal(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    I, c = I_(ctx, cubic_ideal), I_(ctx, cubic_ideal[:2])
    first = colon(c, I, ctx)
    second = colon(c, first, ctx)
    assert second == tuple(vec_buchberger(I, ctx, 1).basis)


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
    assert ideal_strings(ctx, annihilator(lam)) == ["x^2"]
    lam2 = horizontal_link(minimize(lam)[0])
    assert ideal_strings(ctx, annihilator(lam2)) == ["x"]
    assert same_hf(lam2, M, 0, 4)


def test_mixed_ideal_not_horizontally_linked(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert not is_horizontally_linked(M)


# -- regular sequences and change of rings ------------------------------------------------


def test_regular_sequence_in_maximal_ideal(F101xy):
    ctx = F101xy
    seq = ideal_polys(ctx, regular_sequence_in_ideal(ctx, I_(ctx, ["x", "y"]), 2))
    assert len(seq) == 2
    assert grade(cyclic_module(ctx, seq)) == 2


def test_regular_sequence_in_twisted_cubic(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    seq = ideal_polys(ctx, regular_sequence_in_ideal(ctx, I_(ctx, cubic_ideal), 2))
    assert len(seq) == 2
    assert all(g.degree() == 2 for g in seq)
    assert grade(cyclic_module(ctx, seq)) == 2


def test_regular_sequence_not_found(F101xy):
    with pytest.raises(RegularSequenceNotFound):
        regular_sequence_in_ideal(F101xy, I_(F101xy, ["x"]), 2)


def test_change_of_rings_produces_twisted_quotient(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    ctx2, Kbar = change_of_rings(ctx, I_(ctx, ["x"]), R1)
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
    ctx2, Kbar = change_of_rings(ctx, I_(ctx, ["x"]), R1)
    k2 = cyclic_module(ctx2, [P(ctx2, "x"), P(ctx2, "y")])
    E1 = ext(1, k2, Kbar)
    assert same_hf(E2, E1)


# -- walks and the depth formula --------------------------------------------------------


from liaison.linkage import build_cyclic_walk as _cyclic_walk_builder


def _cyclic_walk(ctx, i_gens, c_gens, K, steps=2):
    return _cyclic_walk_builder(ctx, I_(ctx, i_gens), I_(ctx, c_gens), K, steps=steps)


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
    assert end_ann == annihilator(start)
    assert not ext(3, start, R1).is_zero()


def test_depth_formula_on_skew_lines(F101xyzw):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    I = [P(ctx, "x*z"), P(ctx, "x*w"), P(ctx, "y*z"), P(ctx, "y*w")]
    c = [P(ctx, "x*z"), P(ctx, "y*w")]
    e = reflexive_epi(natural_cyclic_epi(ctx, I_(ctx, I), I_(ctx, c)), R1, "Pn")
    v = depth_formula_check(e)
    assert v.holds()


def test_depth_formula_on_cm_pair(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    R1 = free_module(ctx, 1)
    e = reflexive_epi(
        natural_cyclic_epi(ctx, I_(ctx, cubic_ideal), I_(ctx, cubic_ideal[:2])), R1, "Pn"
    )
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
    e = reflexive_epi(natural_cyclic_epi(ctx, I_(ctx, ["x"]), I_(ctx, ["x^3"])), R1, "Pn")
    res = link_operator(e)
    from liaison.modules import kernel

    Kphi, _ = kernel(e.phi)
    E = ext(1, res.linked_module, R1)
    assert same_hf(Kphi, E)
    assert annihilator(Kphi) == annihilator(E)


def test_empty_walk_names_step_zero():
    with pytest.raises(BrokenChain, match="^step 0: empty walk$") as info:
        liaison_walk([])
    assert info.value.step == 0


def test_incompatible_walk_names_its_step(F101xyzw, cubic_ideal):
    # the link of the cubic is a line, not the cubic the second step starts at
    R1 = free_module(F101xyzw, 1)
    e = reflexive_epi(
        natural_cyclic_epi(F101xyzw, I_(F101xyzw, cubic_ideal), I_(F101xyzw, cubic_ideal[:2])),
        R1,
        "Pn",
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


def test_gk_perfect_and_reflexive_category_membership(F101xy):
    # R/(x) is perfect, so both hold; the mixed (x^2, x*y) = (x) meet
    # (x, y)^2 has pd 2 > grade 1 and a nonzero kernel-side obstruction
    ctx = F101xy
    R1 = free_module(ctx, 1)
    line = cyclic_module(ctx, [P(ctx, "x")])
    mixed = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    for tag in ("GKPn", "RefnK"):
        assert category_member(tag, line, R1, 3), tag
        assert not category_member(tag, mixed, R1, 3), tag
    # an epimorphism onto a module is certified for a source that passes
    e = reflexive_epi(natural_cyclic_epi(ctx, I_(ctx, ["x"]), I_(ctx, ["x^3"])), R1, "RefnK")
    assert (e.category_tag, e.n) == ("RefnK", 1)


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
