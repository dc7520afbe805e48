import pytest

from liaison.cohomology import (
    bass_numbers,
    duality_check,
    grothendieck_band_check,
    is_generalized_cm,
    local_cohomology_hf,
    local_cohomology_is_zero,
    ring_type,
    schenzel_check,
    serre_st_proxy,
    torsionfree_duality_check,
)
from liaison.errors import ZeroDimensional
from liaison.linkage import cyclic_link
from liaison.modules import annihilator, cyclic_module, direct_sum, free_module
from liaison.ring import parse_poly

from tests.polyref import ideal, ideal_polys


def P(ctx, s):
    return parse_poly(ctx, s)


SKEW = ["x*z", "x*w", "y*z", "y*w"]
SKEW_CI = ["x*z", "y*w"]


@pytest.fixture(scope="module")
def skew_pair(F101xyzw):
    ctx = F101xyzw
    I = [P(ctx, s) for s in SKEW]
    c = [P(ctx, s) for s in SKEW_CI]
    M = cyclic_module(ctx, I)
    linked = cyclic_link(ctx, I, c, free_module(ctx, 1))
    N = cyclic_module(ctx, ideal_polys(ctx, annihilator(linked)))
    return ctx, M, N, I, ideal(ctx, c)


@pytest.fixture(scope="module")
def cubic_pair(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    c = cubic_ideal[:2]
    M = cyclic_module(ctx, cubic_ideal)
    linked = cyclic_link(ctx, cubic_ideal, c, free_module(ctx, 1))
    N = cyclic_module(ctx, ideal_polys(ctx, annihilator(linked)))
    return ctx, M, N, cubic_ideal, ideal(ctx, c)


# -- local cohomology tables ------------------------------------------------------


def test_h1_of_the_affine_line(F101x):
    R1 = free_module(F101x, 1)
    data = local_cohomology_hf(R1, 1, (-4, 2))
    assert data.hf == {-4: 1, -3: 1, -2: 1, -1: 1, 0: 0, 1: 0, 2: 0}
    assert not data.finite_length


def test_h0_of_the_residue_field(F101x):
    k = cyclic_module(F101x, [P(F101x, "x")])
    data = local_cohomology_hf(k, 0, (-2, 2))
    assert data.hf == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    assert data.finite_length


def test_twisted_cubic_has_no_middle_cohomology(F101xyzw, cubic_ideal):
    M = cyclic_module(F101xyzw, cubic_ideal)
    assert local_cohomology_is_zero(M, 1)
    data = local_cohomology_hf(M, 1, (-5, 5))
    assert not any(data.hf.values())


def test_grothendieck_band_on_gallery_modules(F101xy):
    ctx = F101xy
    mods = [
        free_module(ctx, 1),
        cyclic_module(ctx, [P(ctx, "x")]),
        cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")]),
        cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y")]),
    ]
    for M in mods:
        assert grothendieck_band_check(M).holds()


# -- Serre proxy / generalized CM ---------------------------------------------------


def test_serre_proxy_on_maximal_cm_module(hypersurface):
    # R itself over the (Gorenstein) hypersurface is maximal CM
    R1 = free_module(hypersurface, 1)
    assert serre_st_proxy(R1, R1, 1).holds()


def test_serre_proxy_fails_on_mixed_ideal(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert serre_st_proxy(M, free_module(ctx, 1), 1).fails()


def test_serre_proxy_rejects_nonpositive_level(F101xy):
    with pytest.raises(ValueError):
        serre_st_proxy(free_module(F101xy, 1), free_module(F101xy, 1), 0)


def test_generalized_cm_for_cm_module(F101xyzw, cubic_ideal):
    assert is_generalized_cm(cyclic_module(F101xyzw, cubic_ideal))


def test_generalized_cm_for_mixed_ideal(F101xy):
    ctx = F101xy
    M = cyclic_module(ctx, [P(ctx, "x^2"), P(ctx, "x*y")])
    assert is_generalized_cm(M)


def test_generalized_cm_fails_for_mixed_dimension_sum(F101xy):
    ctx = F101xy
    S, _, _ = direct_sum(cyclic_module(ctx, [P(ctx, "x")]), free_module(ctx, 1))
    assert not is_generalized_cm(S)


def test_generalized_cm_for_skew_lines(skew_pair):
    _, M, N, _, _ = skew_pair
    assert is_generalized_cm(M)
    assert is_generalized_cm(N)


def test_generalized_cm_rejects_dimension_zero(F101xy):
    ctx = F101xy
    k = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y")])
    with pytest.raises(ZeroDimensional):
        is_generalized_cm(k)


# -- Bass numbers -------------------------------------------------------------------


def test_bass_numbers_of_univariate_ring(F101x):
    assert bass_numbers(free_module(F101x, 1), 1) == [0, 1]


def test_bass_numbers_of_residue_field_are_binomials(F101xy):
    k = cyclic_module(F101xy, [P(F101xy, "x"), P(F101xy, "y")])
    assert bass_numbers(k, 2) == [1, 2, 1]


def test_semigroup_ring_has_type_two(semigroup345):
    assert ring_type(semigroup345) == 2


def test_hypersurface_is_gorenstein(hypersurface):
    assert ring_type(hypersurface) == 1


# -- Schenzel biconditional ------------------------------------------------------------


def test_schenzel_on_cm_pair(cubic_pair):
    ctx, M, N, I, c = cubic_pair
    K = free_module(ctx, 1)
    for t in (1, 2):
        assert schenzel_check(M, N, K, c, t).holds()


def test_schenzel_on_skew_lines(skew_pair):
    ctx, M, N, I, c = skew_pair
    K = free_module(ctx, 1)
    assert schenzel_check(M, N, K, c, 1).holds()
    v = schenzel_check(M, N, K, c, 2)
    assert v.fails()


def test_schenzel_minimal_failing_level_agrees_both_ways(skew_pair):
    # run it in the other order too: N linked back to M
    ctx, M, N, I, c = skew_pair
    K = free_module(ctx, 1)
    assert schenzel_check(N, M, K, c, 1).holds()
    assert schenzel_check(N, M, K, c, 2).fails()


def test_schenzel_levels_build_one_quotient_ring(monkeypatch):
    from liaison import homalg
    from liaison.ring import make_ring

    S = make_ring(101, ["x", "y", "z", "w"])  # no cached R/(c) yet
    built = []
    real_make_ring = homalg._make_ring

    def counting_make_ring(*args, **kwargs):
        built.append(args)
        return real_make_ring(*args, **kwargs)

    monkeypatch.setattr(homalg, "_make_ring", counting_make_ring)
    K = free_module(S, 1)
    I = [P(S, s) for s in SKEW]
    c = [P(S, s) for s in SKEW_CI]
    M = cyclic_module(S, I)
    N = cyclic_module(S, ideal_polys(S, annihilator(cyclic_link(S, I, c, K))))
    assert schenzel_check(M, N, K, ideal(S, c), 1).holds()
    assert schenzel_check(M, N, K, ideal(S, c), 2).fails()
    assert len(built) == 1


# -- duality ---------------------------------------------------------------------------


def test_duality_vacuous_on_cm_pair(cubic_pair):
    ctx, M, N, _, _ = cubic_pair
    assert duality_check(M, N, 1, (-5, 5)).holds()


def test_duality_on_generalized_cm_pair(skew_pair):
    ctx, M, N, _, _ = skew_pair
    v = duality_check(M, N, 1, (-5, 5))
    assert v.holds()
    # the middle cohomology is genuinely nonzero on both sides
    assert any(local_cohomology_hf(M, 1, (-5, 5)).hf.values())
    assert any(local_cohomology_hf(N, 1, (-5, 5)).hf.values())


def test_duality_negative_control(F101xyzw, cubic_ideal, skew_pair):
    # deliberately mismatched modules (not linked): the tables disagree
    ctx, M, _, _, _ = skew_pair
    other = cyclic_module(ctx, cubic_ideal)
    v = duality_check(M, other, 1, (-5, 5))
    assert v.fails()


def test_torsionfree_duality_for_residue_field(F101x):
    ctx = F101x
    k = cyclic_module(ctx, [P(ctx, "x")])
    assert torsionfree_duality_check(k, free_module(ctx, 1), 1, (-3, 3)).holds()


def test_torsionfree_duality_on_maximal_module(F101xy):
    # k over F101[x,y] is 1-torsionfree vacuously on the punctured spectrum
    ctx = F101xy
    k = cyclic_module(ctx, [P(ctx, "x"), P(ctx, "y")])
    assert torsionfree_duality_check(k, free_module(ctx, 1), 2, (-3, 3)).holds()


def test_weighted_local_duality_matches_semigroup_combinatorics(semigroup345):
    # Euler characteristic anchor for the weighted normalization: for the
    # numerical semigroup <3,4,5> (domain, so H^0 = 0) the top cohomology has
    # HF(j) = 1 - HF_R(j), i.e. support exactly on the gaps {1,2} and j < 0
    ctx = semigroup345
    R1 = free_module(ctx, 1)
    data = local_cohomology_hf(R1, 1, (-6, 8))
    gaps = {1, 2}
    for j in range(-6, 9):
        expected = 1 if (j < 0 or j in gaps) else 0
        assert data.hf[j] == expected, (j, data.hf[j], expected)
    assert grothendieck_band_check(R1).holds()
    # H^0 vanishes identically for the domain
    assert not any(local_cohomology_hf(R1, 0, (-6, 8)).hf.values())


def test_numbers_read_from_ext_build_no_ext_module(monkeypatch):
    """depth, Bass numbers, local cohomology and the bidual obstructions of
    a link read Ext only as numbers, so none of them builds an Ext module.
    The rings are made here, so no earlier test has filled their caches."""
    from liaison import homalg
    from liaison.linkage import link_operator, natural_cyclic_epi, reflexive_epi
    from liaison.ring import make_ring

    S = make_ring(101, ["x", "y", "z"])
    semigroup = make_ring(101, ["x", "y", "z"],
                          ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                          weights=[3, 4, 5])
    M = cyclic_module(S, [P(S, "x*y"), P(S, "x*z")])
    # the skew lines over their complete intersection: both obstructions
    # come from a nonzero transpose
    T = make_ring(101, ["x", "y", "z", "w"])
    K = free_module(T, 1)
    skew = ideal(T, [P(T, s) for s in SKEW])
    e = reflexive_epi(
        natural_cyclic_epi(T, skew, ideal(T, [P(T, s) for s in SKEW_CI])), K, "Pn"
    )
    # the induced map Ext^n(M, K) -> Ext^n(X, K) uses both Ext as modules,
    # and so does the transpose over R/(x), through K's image Ext^n(R/(x), K)
    homalg.ext(e.n, e.phi.source, K)
    homalg.ext(e.n, e.phi.target, K)
    homalg._obstruction_transpose(e.phi.target, K, e.n, "auto")
    calls = []
    real_homology = homalg._homology

    def counting_homology(functor, i, A, B):
        calls.append((functor, i))
        return real_homology(functor, i, A, B)

    monkeypatch.setattr(homalg, "_homology", counting_homology)
    for label, work in (
        ("depth", lambda: homalg.depth(M)),
        ("bass_numbers", lambda: bass_numbers(free_module(semigroup, 1), 2)),
        ("local_cohomology_hf", lambda: local_cohomology_hf(M, 1, (-3, 3))),
        ("link_operator", lambda: link_operator(e)),
    ):
        calls.clear()
        work()
        assert calls == [], label
