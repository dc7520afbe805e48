"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact (symbolic computation over F_p); the only stated
tolerances are runtime budgets, which are asserted with wall clocks.
"""

import time

import pytest

from liaison import cli as cli_mod
from liaison.cohomology import (
    duality_check,
    grothendieck_band_check,
    local_cohomology_hf,
    ring_type,
    schenzel_check,
)
from liaison.colinkage import (
    adjoint_transfer_forward,
    class_member,
    colink_operator,
    coreflexive_epi,
    is_colinked_by,
    mu_is_iso,
    pk_dimension,
)
from liaison.groebner import (
    assert_buchberger,
    buchberger,
    colon,
    reduced_ideal_gb,
)
from liaison.homalg import bidual_obstructions, ext, ext_induced
from liaison.linkage import (
    build_cyclic_walk,
    canonical_module,
    cyclic_link,
    depth_formula_check,
    double_link_check,
    is_gk_perfect,
    is_linked_by,
    is_semidualizing,
    liaison_walk,
    link_operator,
    natural_cyclic_epi,
    reflexive_epi,
)
from liaison.modules import (
    ModuleMap,
    annihilator,
    cyclic_module,
    direct_sum,
    free_module,
    identity_map,
    invariants,
    is_iso,
    kernel,
    minimize,
)
from liaison.ring import make_ring, parse_poly, render_poly

SUITE_START = time.monotonic()
WINDOW = (-4, 7)  # 12 degrees

SKEW = ["x*z", "x*w", "y*z", "y*w"]
SKEW_CI = ["x*z", "y*w"]
CUBIC = ["x*z - y^2", "y*w - z^2", "x*w - y*z"]
CUBIC_CI = ["x*z - y^2", "y*w - z^2"]


def P(ctx, s):
    return parse_poly(ctx, s)


def ideal_strings(gens):
    return [render_poly(g) for g in gens]


def report(n, ok, text):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


@pytest.fixture(scope="module")
def S4():
    return make_ring(101, ["x", "y", "z", "w"])


@pytest.fixture(scope="module")
def S1():
    return make_ring(101, ["x"])


@pytest.fixture(scope="module")
def S2():
    return make_ring(101, ["x", "y"])


@pytest.fixture(scope="module")
def T345():
    return make_ring(
        101,
        ["x", "y", "z"],
        ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
        weights=[3, 4, 5],
    )


def test_criterion_01_groebner_kernel_oracle():
    import json
    import pathlib

    t0 = time.monotonic()
    blob = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "groebner_fixtures.json").read_text()
    )
    assert len(blob["cases"]) == 10
    for case in blob["cases"]:
        ctx = make_ring(case["ring"]["p"], case["ring"]["vars"])
        if "colon" in case:
            got = colon(
                [P(ctx, s) for s in case["colon"]["numerator"]],
                [P(ctx, s) for s in case["colon"]["denominator"]],
                ctx,
            )
        else:
            got = reduced_ideal_gb(ctx, [P(ctx, s) for s in case["gens"]])
        assert ideal_strings(got) == case["expected"], (case, ideal_strings(got))
        eng = buchberger([(g,) for g in got], ctx, 1)
        assert_buchberger(eng)
    elapsed = time.monotonic() - t0
    report(1, elapsed < 5.0, f"10 byte-exact reduced GBs re-verified in {elapsed:.2f}s")


def test_criterion_02_classical_linkage_agreement(S1, S4):
    t0 = time.monotonic()
    # univariate
    I1, c1 = [P(S1, "x")], [P(S1, "x^3")]
    linked = cyclic_link(S1, I1, c1, free_module(S1, 1))
    assert ideal_strings(annihilator(linked)) == ideal_strings(colon(c1, I1, S1))
    back = colon(c1, annihilator(linked), S1)
    assert ideal_strings(back) == ideal_strings(reduced_ideal_gb(S1, I1))
    # twisted cubic
    I2 = [P(S4, s) for s in CUBIC]
    c2 = [P(S4, s) for s in CUBIC_CI]
    linked2 = cyclic_link(S4, I2, c2, free_module(S4, 1))
    want = colon(c2, I2, S4)
    assert ideal_strings(annihilator(linked2)) == ideal_strings(want)
    back2 = colon(c2, want, S4)
    assert ideal_strings(back2) == ideal_strings(reduced_ideal_gb(S4, I2))
    # double link through the operator as well
    e = reflexive_epi(natural_cyclic_epi(S4, I2, c2), free_module(S4, 1), "Pn")
    assert double_link_check(e).holds()
    elapsed = time.monotonic() - t0
    report(2, elapsed < 30.0, f"colon agreement + exact double links in {elapsed:.2f}s")


def test_criterion_03_linkage_criterion_vs_unmixedness(S1, S2, S4):
    S3 = make_ring(101, ["x", "y", "z"])
    R1 = lambda ctx: free_module(ctx, 1)
    cases = []
    # (epi, hand-derived grade-unmixedness)
    cases.append((reflexive_epi(natural_cyclic_epi(S1, [P(S1, "x")], [P(S1, "x^3")]), R1(S1), "Pn"), True))
    cases.append((reflexive_epi(natural_cyclic_epi(S1, [P(S1, "x^2")], [P(S1, "x^4")]), R1(S1), "Pn"), True))
    cases.append((reflexive_epi(natural_cyclic_epi(S2, [P(S2, "x^2"), P(S2, "x*y")], [P(S2, "x^2")]), R1(S2), "Pn"), False))
    cases.append((reflexive_epi(natural_cyclic_epi(S4, [P(S4, s) for s in CUBIC], [P(S4, s) for s in CUBIC_CI]), R1(S4), "Pn"), True))
    cases.append((reflexive_epi(natural_cyclic_epi(S4, [P(S4, s) for s in SKEW], [P(S4, s) for s in SKEW_CI]), R1(S4), "Pn"), True))
    cases.append((reflexive_epi(natural_cyclic_epi(S4, [P(S4, "x"), P(S4, "y")], [P(S4, "x^2"), P(S4, "y^2")]), R1(S4), "Pn"), True))
    # k + R over F101[x]: grade 0, embedded maximal ideal -> mixed
    k_plus_R, _, projs = direct_sum(cyclic_module(S1, [P(S1, "x")]), free_module(S1, 1))
    F2 = free_module(S1, 2)
    phi = ModuleMap(F2, k_plus_R, [[S1.one(), S1.zero()], [S1.zero(), S1.one()]])
    cases.append((reflexive_epi(phi, R1(S1), "Pn"), False))
    cases.append((reflexive_epi(natural_cyclic_epi(S3, [P(S3, "x^2"), P(S3, "x*y")], [P(S3, "x^2")]), R1(S3), "Pn"), False))
    agree = 0
    for e, expected in cases:
        got = is_linked_by(e)
        assert got == expected, (e, expected, got)
        agree += 1
    report(3, agree == 8, f"linkage criterion matched hand unmixedness on {agree}/8 modules")


def test_criterion_04_link_outputs_unmixed_and_kernel_dual(S1, S4):
    lo, hi = WINDOW
    setups = [
        (S1, [P(S1, "x")], [P(S1, "x^3")]),
        (S4, [P(S4, s) for s in CUBIC], [P(S4, s) for s in CUBIC_CI]),
        (S4, [P(S4, s) for s in SKEW], [P(S4, s) for s in SKEW_CI]),
    ]
    for ctx, I, c in setups:
        K = free_module(ctx, 1)
        e = reflexive_epi(natural_cyclic_epi(ctx, I, c), K, "Pn")
        res = link_operator(e)
        n = e.n
        # t1(ii): output grade-unmixed (kernel-side obstruction of the output)
        E1_out, _ = bidual_obstructions(res.linked_module, K, n)
        assert E1_out.is_zero()
        # t1(iv): ker(phi) matches Ext^n(N, K) exactly
        Kphi, _ = kernel(e.phi)
        E = ext(n, res.linked_module, K)
        assert all(Kphi.hf(d) == E.hf(d) for d in range(lo, hi + 1))
        assert ideal_strings(annihilator(Kphi)) == ideal_strings(annihilator(E))
    report(4, True, "all link outputs grade-unmixed; kernels match Ext duals exactly")


def test_criterion_05_perfection_preserved_on_walks(S1, S4):
    walks = [
        build_cyclic_walk(S1, [P(S1, "x")], [P(S1, "x^3")], free_module(S1, 1), 2),
        build_cyclic_walk(S4, [P(S4, s) for s in CUBIC], [P(S4, s) for s in CUBIC_CI], free_module(S4, 1), 2),
        build_cyclic_walk(S4, [P(S4, s) for s in SKEW], [P(S4, s) for s in SKEW_CI], free_module(S4, 1), 2),
    ]
    for epis in walks:
        rep = liaison_walk(epis, WINDOW)
        assert rep["gk_perfect_agree"]
    report(5, True, "perfection verdicts identical at both ends of all 3 walks")


def test_criterion_06_even_liaison_invariance(S1, S4):
    lo, hi = WINDOW
    for ctx, I, c in [
        (S1, [P(S1, "x")], [P(S1, "x^3")]),
        (S4, [P(S4, s) for s in CUBIC], [P(S4, s) for s in CUBIC_CI]),
        (S4, [P(S4, s) for s in SKEW], [P(S4, s) for s in SKEW_CI]),
    ]:
        K = free_module(ctx, 1)
        epis = build_cyclic_walk(ctx, I, c, K, 2)
        rep = liaison_walk(epis, WINDOW)
        assert rep["even_ext_agree"]
        start = epis[0].phi.target
        end = link_operator(epis[1]).linked_module
        n = epis[0].n
        for i in range(n + 1, ctx.m + 2):
            A, B = ext(i, start, K), ext(i, end, K)
            assert all(A.hf(d) == B.hf(d) for d in range(lo, hi + 1))
        pd_a, pd_b = invariants(start).pd, invariants(end).pd
        assert pd_a == pd_b
    report(6, True, "higher Ext duals and finite pd equal across even walks")


def test_criterion_07_schenzel_biconditional(S4):
    K = free_module(S4, 1)
    Icm = [P(S4, s) for s in CUBIC]
    ccm = [P(S4, s) for s in CUBIC_CI]
    Mcm = cyclic_module(S4, Icm)
    Ncm = cyclic_module(S4, annihilator(cyclic_link(S4, Icm, ccm, K)))
    for t in (1, 2):
        assert schenzel_check(Mcm, Ncm, K, 2, ccm, t).holds()
    Isk = [P(S4, s) for s in SKEW]
    csk = [P(S4, s) for s in SKEW_CI]
    Msk = cyclic_module(S4, Isk)
    Nsk = cyclic_module(S4, annihilator(cyclic_link(S4, Isk, csk, K)))
    assert schenzel_check(Msk, Nsk, K, 2, csk, 1).holds()
    assert schenzel_check(Msk, Nsk, K, 2, csk, 2).fails()
    assert schenzel_check(Nsk, Msk, K, 2, csk, 2).fails()
    report(7, True, "CM pair holds for t=1..dim; non-CM pair fails at t=2 both ways")


def test_criterion_08_local_cohomology_duality(S4):
    K = free_module(S4, 1)
    # generalized-CM pair: two skew lines and their link
    Isk = [P(S4, s) for s in SKEW]
    csk = [P(S4, s) for s in SKEW_CI]
    Msk = cyclic_module(S4, Isk)
    Nsk = cyclic_module(S4, annihilator(cyclic_link(S4, Isk, csk, K)))
    assert duality_check(Msk, Nsk, [1], (-5, 5)).holds()
    assert not local_cohomology_hf(Msk, 1, (-5, 5)).is_zero_on_window()
    # CM pair: identically-zero match
    Icm = [P(S4, s) for s in CUBIC]
    ccm = [P(S4, s) for s in CUBIC_CI]
    Mcm = cyclic_module(S4, Icm)
    Ncm = cyclic_module(S4, annihilator(cyclic_link(S4, Icm, ccm, K)))
    assert duality_check(Mcm, Ncm, [1], (-5, 5)).holds()
    assert local_cohomology_hf(Mcm, 1, (-5, 5)).is_zero_on_window()
    report(8, True, "Matlis-dual Hilbert tables match entrywise on both pairs")


def test_criterion_09_depth_formula(S4):
    K = free_module(S4, 1)
    e = reflexive_epi(
        natural_cyclic_epi(S4, [P(S4, s) for s in SKEW], [P(S4, s) for s in SKEW_CI]),
        K,
        "Pn",
    )
    v = depth_formula_check(e)
    assert v.holds(), v
    # spell the four integers out
    M = e.phi.target
    N = link_operator(e).linked_module
    tops = ext(3, M, K)
    lhs = invariants(M).depth + invariants(N).depth
    rhs = invariants(M).dim + invariants(tops).depth
    assert lhs == rhs == 2
    report(9, True, f"depth formula: {lhs} = {rhs} on the reduced-perfect instance")


def test_criterion_10_canonical_machinery(T345):
    om = canonical_module(T345)
    cert = is_semidualizing(om, 5)
    assert cert.verdict.holds()
    omin, _, _ = minimize(om)
    assert len(omin.gens) == 2
    assert ring_type(T345) == 2
    hyp = make_ring(101, ["x", "y"], ["x*y"])
    om_h = canonical_module(hyp)
    om_h_min, _, _ = minimize(om_h)
    assert len(om_h_min.gens) == 1
    assert ideal_strings(annihilator(om_h)) == ideal_strings(hyp.defining)
    assert ring_type(hyp) == 1
    report(10, True, "semidualizing at B=5; type 2 from Bass numbers; Gorenstein control")


def test_criterion_11_foxby_adjoint_equivalence(T345):
    om = canonical_module(T345)
    I, c = [P(T345, "x")], [P(T345, "x^2")]
    e = reflexive_epi(natural_cyclic_epi(T345, I, c), om, "Pn", bound=4)
    assert is_linked_by(e)
    aus = class_member("Auslander", e.phi.target, om, 4)
    assert aus.verdict.holds()
    ce = adjoint_transfer_forward(e, bound=4)
    assert is_colinked_by(ce)
    assert mu_is_iso(e.phi.target, om)
    # even coliaison walk: colink twice and compare K-projective dimensions
    col1, proj1 = colink_operator(ce)
    ce2 = coreflexive_epi(proj1, om, "PKn", bound=4, n=ce.n)
    col2, _ = colink_operator(ce2)
    v1, pk_start = pk_dimension(ce.phi.target, om, 4)
    v2, pk_end = pk_dimension(col2, om, 4)
    assert v1.holds() and v2.holds() and pk_start == pk_end == 1
    report(11, True, "transform colinked; roundtrip iso; pk-dimension stable on even walk")


def test_criterion_12_homological_consistency(S2, S4):
    # Auslander-Buchsbaum and the Grothendieck band run as assertions inside
    # invariants() and grothendieck_band_check(); exercise a batch here.
    mods = [
        free_module(S2, 1),
        cyclic_module(S2, [P(S2, "x")]),
        cyclic_module(S2, [P(S2, "x^2"), P(S2, "x*y")]),
        cyclic_module(S2, [P(S2, "x"), P(S2, "y")]),
        cyclic_module(S4, [P(S4, s) for s in SKEW]),
        cyclic_module(S4, [P(S4, s) for s in CUBIC]),
    ]
    for M in mods:
        invariants(M)  # AB cross-check asserted internally
        grothendieck_band_check(M)
    # functoriality of the induced maps on Ext
    R1 = free_module(S2, 1)
    M = cyclic_module(S2, [P(S2, "x^2"), P(S2, "x*y")])
    assert is_iso(ext_induced(1, identity_map(M), R1))
    ctx = S2
    A = cyclic_module(ctx, [P(ctx, "x^3")])
    B = cyclic_module(ctx, [P(ctx, "x^2")])
    C = cyclic_module(ctx, [P(ctx, "x")])
    f = ModuleMap(A, B, [[ctx.one()]])
    g = ModuleMap(B, C, [[ctx.one()]])
    lhs = ext_induced(1, g.compose(f), R1)
    rhs = ext_induced(1, f, R1).compose(ext_induced(1, g, R1))
    for c1, c2 in zip(lhs.mat, rhs.mat):
        for a, b in zip(c1, c2):
            assert a == b or lhs.target.element_is_zero(
                tuple(
                    (a - b) if i == 0 else ctx.zero()
                    for i in range(len(lhs.target.gens))
                )
            )
    report(12, True, "AB, Grothendieck band, and Ext functoriality: zero violations")


def test_criterion_13_runtime_and_characteristic(S1, S4):
    # identical verdicts at p = 101 and p = 32003 on the core galleries
    for p in (101, 32003):
        ctx1 = make_ring(p, ["x"])
        linked = cyclic_link(ctx1, [P(ctx1, "x")], [P(ctx1, "x^3")], free_module(ctx1, 1))
        assert ideal_strings(annihilator(linked)) == ["x^2"]
        e = reflexive_epi(
            natural_cyclic_epi(ctx1, [P(ctx1, "x")], [P(ctx1, "x^3")]),
            free_module(ctx1, 1),
            "Pn",
        )
        assert double_link_check(e).holds()
        ctx4 = make_ring(p, ["x", "y", "z", "w"])
        I = [P(ctx4, s) for s in CUBIC]
        c = [P(ctx4, s) for s in CUBIC_CI]
        got = colon(c, I, ctx4)
        assert ideal_strings(got) == ["y", "z"]
        assert is_gk_perfect(cyclic_module(ctx4, I), free_module(ctx4, 1), 5).holds()
    # the CLI galleries run end-to-end with their designed exit codes
    expected_exit = {name: 0 for name in cli_mod.GALLERIES}
    expected_exit["mixed-ideal-negative"] = 1
    for name in sorted(cli_mod.GALLERIES):
        t0 = time.monotonic()
        spec = cli_mod.gallery(name)
        _, code = cli_mod.run(spec)
        gallery_time = time.monotonic() - t0
        assert code == expected_exit[name], (name, code)
        assert gallery_time < 60.0, (name, gallery_time)
    elapsed = time.monotonic() - SUITE_START
    report(
        13,
        elapsed < 300.0,
        f"verdicts characteristic-independent; all galleries < 60s; suite {elapsed:.0f}s",
    )
