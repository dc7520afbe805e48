import random

import pytest

from liaison import cli, colinkage, homalg, verdict
from liaison.colinkage import (
    adjoint_transfer_backward,
    adjoint_transfer_forward,
    category_comember,
    class_member,
    class_verdict,
    cohom_dual,
    codual_obstructions,
    colink_operator,
    coreflexive_epi,
    foxby_transform,
    is_colinked_by,
    mu_is_iso,
    pk_dimension,
    tensor_transform,
)
from liaison.errors import InternalConsistencyError, InvalidInput, NuNotIso
from liaison.homalg import ext
from liaison.linkage import (
    canonical_module,
    cyclic_link,
    is_linked_by,
    link_operator,
    natural_cyclic_epi,
    reflexive_epi,
)
from liaison.modules import (
    annihilator,
    cyclic_module,
    direct_sum,
    free_module,
    hom_induced_post,
    is_iso,
    kernel,
    zero_map,
)
from liaison.ring import make_ring, parse_poly

from tests.polyref import ideal, ideal_strings, poly_map


def P(ctx, s):
    return parse_poly(ctx, s)


def anns(M):
    return ideal_strings(M.ctx, annihilator(M))


def same_hf(A, B, lo=-6, hi=8):
    return all(A.hf(d) == B.hf(d) for d in range(lo, hi + 1))


@pytest.fixture(scope="module")
def omega345(semigroup345):
    return canonical_module(semigroup345)


# -- transforms and classes ---------------------------------------------------


def test_transforms_are_identity_for_trivial_K(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    T, mu = foxby_transform("tensorK", M, R1)
    assert is_iso(mu)
    H, nu = foxby_transform("homK", M, R1)
    assert is_iso(nu)


def test_tensor_transform_of_ring_gives_K(semigroup345, omega345):
    ctx = semigroup345
    R1 = free_module(ctx, 1)
    T, mu = foxby_transform("tensorK", R1, omega345)
    assert same_hf(T, omega345)
    assert is_iso(mu)


def test_hom_transform_roundtrip_on_free_sum(semigroup345, omega345):
    # P (x) K recovered by Hom(K, -) for a rank-2 free P
    ctx = semigroup345
    F2 = free_module(ctx, 2)
    T, mu = tensor_transform(F2, omega345)
    assert is_iso(mu)
    H, _ = __import__("liaison.modules", fromlist=["hom_module"]).hom_module(
        omega345, T
    )
    assert same_hf(H, F2)


def test_free_module_is_auslander(semigroup345, omega345):
    cert = class_member("Auslander", free_module(semigroup345, 1), omega345, 3)
    assert cert.verdict.holds()


def test_K_is_bass(semigroup345, omega345):
    cert = class_member("Bass", omega345, omega345, 3)
    assert cert.verdict.holds()


def test_gk_perfect_comember(F101xy, semigroup345, omega345):
    # K = R puts every module in the Bass class, so GKPKn is GKPn there
    ctx = F101xy
    R1 = free_module(ctx, 1)
    assert category_comember("GKPKn", cyclic_module(ctx, [P(ctx, "x")]), R1, 3)
    assert not category_comember("GKPKn", cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")]),
                                 R1, 3)
    # over the (3, 4, 5) curve, omega is Bass and its own Gorenstein dual; R
    # is not Bass, the ring not being Gorenstein
    assert category_comember("GKPKn", omega345, omega345, 3)
    assert not category_comember("GKPKn", free_module(semigroup345, 1), omega345, 3)


def test_gorenstein_context_both_classes(hypersurface):
    # over a Gorenstein ring with K = R every module is in both classes
    ctx = hypersurface
    R1 = free_module(ctx, 1)
    mods = [
        cyclic_module(ctx, [P(ctx, "x")]),
        cyclic_module(ctx, [P(ctx, "x + y")]),
        free_module(ctx, 2),
    ]
    for M in mods:
        assert class_member("Auslander", M, R1, 3).verdict.holds()
        assert class_member("Bass", M, R1, 3).verdict.holds()


def _verdict_from_checks(cert):
    """The verdict a certificate's listed checks imply."""
    if not cert.natural_map_iso:
        return verdict.fails(witness="natural map not an isomorphism")
    bad = [i for i, z in cert.tor_checks + cert.ext_checks if not z]
    if bad:
        return verdict.fails(witness=f"vanishing fails at index {min(bad)}")
    return verdict.holds(bound=cert.bound)


def _semigroup_gallery_modules(monkeypatch):
    """(ring, K, modules): the modules the three semigroup-345 galleries put
    through a Foxby class check, with K and R.  The galleries share ring, K
    and ideal names, so their operations run as one spec over one ring."""
    spec = cli.gallery("adjoint-transfer")
    for name in ("semigroup-345", "foxby-roundtrip"):
        spec.ops += cli.gallery(name).ops
    seen = []
    real = colinkage.class_verdict

    def recording(class_name, M, K, bound):
        if M not in seen:
            seen.append(M)
        return real(class_name, M, K, bound)

    with monkeypatch.context() as m:
        m.setattr(colinkage, "class_verdict", recording)
        report, _ = cli.run(spec)
    assert all(entry["ok"] for entry in report["results"])
    K = spec.resolve_K()
    return spec.ring, K, seen + [K, free_module(spec.ring, 1)]


def _seeded_cyclic_modules(ctx, seed, count):
    """Cyclic modules R/I, I spanned by one or two random homogeneous
    combinations of monomials of one weighted degree."""
    rng = random.Random(seed)
    names = ctx.names
    mods = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 2)):
            d = rng.choice(range(max(ctx.weights), 2 * max(ctx.weights) + 1))
            monos = _monomials_of_degree(ctx.weights, d)
            picked = rng.sample(monos, min(len(monos), rng.randint(1, 2)))
            terms = [
                f"{rng.randint(1, 100)}*"
                + "*".join(f"{v}^{e}" for v, e in zip(names, mono) if e)
                for mono in picked
            ]
            gens.append(P(ctx, " + ".join(terms)))
        # a combination can vanish modulo the defining ideal
        gens = [g for g in gens if g]
        if gens:
            mods.append(cyclic_module(ctx, gens))
    return mods


def _monomials_of_degree(weights, d):
    if not weights:
        return [()] if d == 0 else []
    w, rest = weights[0], weights[1:]
    return [
        (e,) + tail
        for e in range(d // w + 1)
        for tail in _monomials_of_degree(rest, d - e * w)
    ]


def _assert_early_exit_matches_certificate(M, K):
    for class_name in ("Auslander", "Bass"):
        for bound in range(1, 5):
            early = class_verdict(class_name, M, K, bound)
            cert = class_member(class_name, M, K, bound)
            assert early == _verdict_from_checks(cert), (class_name, bound, M)


def test_early_exit_verdict_matches_the_full_certificate(monkeypatch):
    S, om, mods = _semigroup_gallery_modules(monkeypatch)
    assert len(mods) >= 5
    for M in mods + _seeded_cyclic_modules(S, 7, 2):
        _assert_early_exit_matches_certificate(M, om)
    T = make_ring(101, ["x", "y"])
    Ks = [free_module(T, 1), cyclic_module(T, [P(T, "x^2")])]
    for M in _seeded_cyclic_modules(T, 11, 4):
        for K in Ks:
            _assert_early_exit_matches_certificate(M, K)


def test_pk_dimension_stops_at_the_natural_map(monkeypatch):
    # Bass membership of R/(x) fails at nu, so no vanishing check runs
    S = make_ring(
        101,
        ["x", "y", "z"],
        ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
        weights=[3, 4, 5],
    )
    om = canonical_module(S)
    M = cyclic_module(S, [P(S, "x")])
    calls = []
    real = homalg._series

    def counting(functor, i, A, B):
        calls.append((functor, i))
        return real(functor, i, A, B)

    monkeypatch.setattr(homalg, "_series", counting)
    v, val = pk_dimension(M, om, 4)
    assert v.status == "undecided_at_bound" and val is None
    assert calls == []
    witness = class_verdict("Bass", M, om, 4).witness
    assert witness == "natural map not an isomorphism"


def test_unknown_names_are_invalid_input(F101xy):
    M = cyclic_module(F101xy, [P(F101xy, "x")])
    R1 = free_module(F101xy, 1)
    with pytest.raises(InvalidInput):
        foxby_transform("sideways", M, R1)
    with pytest.raises(InvalidInput):
        class_member("Gorenstein", M, R1, 2)
    with pytest.raises(InvalidInput):
        class_verdict("Gorenstein", M, R1, 2)
    with pytest.raises(InvalidInput):
        category_comember("Qn", M, R1, 2)


# -- the coreflexive dual -------------------------------------------------------


def test_cohom_dual_with_trivial_K_is_ext(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x")])
    D = cohom_dual(M, R1, 1)
    E = ext(1, M, R1)
    assert same_hf(D, E)


def test_cohom_dual_of_K_itself(semigroup345, omega345):
    D = cohom_dual(omega345, omega345, 0)
    assert same_hf(D, omega345)


def test_codual_obstructions_vanish_for_unmixed(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x")])
    E1, E2 = codual_obstructions(M, R1, 1)
    assert E1.is_zero() and E2.is_zero()


def test_codual_obstructions_detect_mixed(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    E1, _ = codual_obstructions(M, R1, 1)
    assert not E1.is_zero()


def test_codual_requires_nu_iso(semigroup345, omega345):
    ctx = semigroup345
    k = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y"), P(ctx, "z")])
    with pytest.raises(NuNotIso):
        codual_obstructions(k, omega345, 1)


# -- pk dimension ------------------------------------------------------------------


def test_pk_dimension_of_K(semigroup345, omega345):
    v, val = pk_dimension(omega345, omega345, 3)
    assert v.holds() and val == 0


def test_pk_dimension_of_K_mod_parameter(semigroup345, omega345):
    ctx = semigroup345
    om = omega345
    x = P(ctx, "x")
    from liaison.modules import cokernel, twist

    mul = poly_map(twist(om, -3), om, [[x if i == j else ctx.zero() for i in range(len(om.gens))] for j in range(len(om.gens))], check=False)
    Q, _ = cokernel(mul)
    v, val = pk_dimension(Q, om, 3)
    assert v.holds() and val == 1


def test_pk_dimension_undecided_without_bass(semigroup345, omega345):
    ctx = semigroup345
    k = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y"), P(ctx, "z")])
    v, val = pk_dimension(k, omega345, 2)
    assert v.status == "undecided_at_bound" and val is None


# -- colinkage ------------------------------------------------------------------------


def test_colink_coincides_with_link_for_trivial_K(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), R1, "Pn")
    res = link_operator(e)
    ce = coreflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), R1, "PKn"
    )
    col, _ = colink_operator(ce)
    assert anns(col) == anns(res.linked_module)
    assert same_hf(col, res.linked_module)


def test_colink_agrees_with_closed_form_over_semigroup(semigroup345, omega345):
    # full pipeline against the Kbar/(0 : Ibar) closed form
    ctx = semigroup345
    om = omega345
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), om, "Pn",
        bound=4,
    )
    ce = adjoint_transfer_forward(e)
    col, _ = colink_operator(ce)
    closed = cyclic_link(ctx, [P(ctx, "x")], [P(ctx, "x^2")], om)
    assert anns(col) == anns(closed)
    assert same_hf(col, closed)


def test_colink_operator_checks_that_the_induced_map_is_injective(
        semigroup345, omega345, monkeypatch):
    # D^n(phi) = Ext^n(Hom(K, phi), K) is injective for a coreflexive phi;
    # a zero induced map must raise, not return its cokernel
    ctx = semigroup345
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])),
        omega345, "Pn", bound=4,
    )
    ce = adjoint_transfer_forward(e)
    real = homalg.ext_induced

    def zero_induced(i, f, N):
        induced = real(i, f, N)
        return zero_map(induced.source, induced.target)

    monkeypatch.setattr(homalg, "ext_induced", zero_induced)
    with pytest.raises(InternalConsistencyError, match="injective"):
        colink_operator(ce)


def test_is_colinked_by_unmixed_cyclic(semigroup345, omega345):
    ctx = semigroup345
    om = omega345
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), om, "Pn",
        bound=4,
    )
    ce = adjoint_transfer_forward(e)
    assert is_colinked_by(ce)


def test_is_colinked_by_detects_mixed(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    ce = coreflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x^2"), P(ctx, "x*y")]), ideal(ctx, [P(ctx, "x^2")])),
        R1,
        "PKn",
    )
    assert not is_colinked_by(ce)


def test_direct_sum_self_colink(semigroup345, omega345):
    # Y = K^2 ->> K + K/xK-style image: every P_K module colinks directly
    ctx = semigroup345
    om = omega345
    S, (i1, i2), (p1, p2) = direct_sum(om, om)
    ce = coreflexive_epi(p1, om, "PKn", bound=3)
    assert is_colinked_by(ce)


# -- adjoint equivalence ---------------------------------------------------------------


def test_adjoint_transfer_identity_for_trivial_K(F101xy):
    ctx = F101xy
    R1 = free_module(ctx, 1)
    e = reflexive_epi(natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), R1, "Pn")
    ce = adjoint_transfer_forward(e)
    assert ce.n == e.n
    assert same_hf(ce.phi.target, e.phi.target)


def test_adjoint_roundtrip_over_semigroup(semigroup345, omega345):
    ctx = semigroup345
    om = omega345
    M = cyclic_module(ctx, [P(ctx, "x")])
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), om, "Pn",
        bound=4,
    )
    ce = adjoint_transfer_forward(e)
    # colink_operator takes Hom(K, phi) to have a nonzero kernel without
    # checking it: its docstring derives that from the certified kernel
    assert not kernel(hom_induced_post(ce.phi, om))[0].is_zero()
    back = adjoint_transfer_backward(ce)
    # the round trip returns the start up to natural isomorphism
    assert same_hf(back.phi.target, M)
    assert anns(back.phi.target) == anns(M)
    assert mu_is_iso(M, om)


def test_linkage_colinkage_predicates_agree(semigroup345, omega345):
    # linked wrt P^n iff the transform is colinked wrt P_K^n
    ctx = semigroup345
    om = omega345
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), om, "Pn",
        bound=4,
    )
    ce = adjoint_transfer_forward(e)
    assert is_linked_by(e) == is_colinked_by(ce)


def test_unmixedness_triangle(semigroup345, omega345):
    # for the transform of an unmixed cyclic module the three predicates
    # (linked, colinked, grade-unmixed-criterion) agree positively
    ctx = semigroup345
    om = omega345
    e = reflexive_epi(
        natural_cyclic_epi(ctx, ideal(ctx, [P(ctx, "x")]), ideal(ctx, [P(ctx, "x^2")])), om, "Pn",
        bound=4,
    )
    ce = adjoint_transfer_forward(e)
    from liaison.homalg import bidual_obstructions

    E1, _ = bidual_obstructions(e.phi.target, om, 1)
    assert is_linked_by(e) and is_colinked_by(ce) and E1.is_zero()
