import pytest
from hypothesis import given, settings, strategies as st

from liaison.errors import (
    DegreeOverflow,
    LengthMismatch,
    NonPrimeCharacteristic,
    RingMismatch,
)
from tests.oracle import random_homogeneous
from tests.polyref import monomial

from liaison.ring import (
    Poly,
    compare_monomials,
    make_ring,
    mono_divides,
    mono_exponents,
    mono_from_exponents,
    mono_lcm,
    parse_poly,
    render_poly,
)


def test_make_ring_trivial_ideal():
    ctx = make_ring(101, ["x"])
    assert ctx.defining == ()
    assert ctx.p == 101


def test_make_ring_reduces_defining_ideal():
    # single S-polynomial reduces to 0 by hand, so the pair is already a GB
    ctx = make_ring(7, ["x", "y"], ["x^2 - y", "y^2 - x"])
    rendered = sorted(render_poly(g) for g in ctx.defining)
    assert rendered == ["x^2 - y", "y^2 - x"]


def test_make_ring_takes_polys_of_the_same_polynomial_ring():
    S = make_ring(7, ["x", "y"])
    ctx = make_ring(7, ["x", "y"], [parse_poly(S, "x^2 - y"), "y^2 - x", S.zero()])
    assert sorted(render_poly(g) for g in ctx.defining) == ["x^2 - y", "y^2 - x"]
    with pytest.raises(RingMismatch):
        make_ring(7, ["x", "z"], [parse_poly(S, "x")])


def test_make_ring_rejects_nonprime():
    with pytest.raises(NonPrimeCharacteristic):
        make_ring(4, ["x"])


def test_add_inverse_is_zero(F101x):
    x = F101x.var(0)
    assert not (x + (-x))


def test_difference_of_squares(F7xy):
    x, y = F7xy.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_univariate_monomial_product(F101x):
    x = F101x.var(0)
    assert x * x * (x * x * x) == parse_poly(F101x, "x^5")


def test_sum_product_and_scalar_multiple(F101x):
    x = F101x.var(0)
    assert x + (-x) == F101x.zero()
    assert x * x == parse_poly(F101x, "x^2")
    assert x.scale(3) == parse_poly(F101x, "3*x")


def test_ring_mismatch_raises(F101x, F101xy):
    with pytest.raises(RingMismatch):
        F101x.var(0) + F101xy.var(0)


def test_compare_monomials_same_degree_grevlex():
    # x^2 vs xy with x > y: equal degree, grevlex prefers x^2
    assert compare_monomials((2, 0), (1, 1)) == 1
    # degree dominates: y^2 > x
    assert compare_monomials((1, 0), (0, 2)) == -1
    assert compare_monomials((1, 1), (1, 1)) == 0


def test_compare_monomials_length_mismatch():
    with pytest.raises(LengthMismatch):
        compare_monomials((1, 0), (1, 0, 0))


def test_parse_render_roundtrip(F101xy):
    f = parse_poly(F101xy, "3*x^2*y - 2*x + 7")
    assert parse_poly(F101xy, render_poly(f)) == f
    assert render_poly(F101xy.zero()) == "0"
    assert render_poly(parse_poly(F101xy, "x ^ 2 * y")) == "x^2*y"


def test_parse_reduces_coefficients(F7xy):
    assert parse_poly(F7xy, "8*x") == parse_poly(F7xy, "x")
    assert not parse_poly(F7xy, "7*x")


def test_parse_adds_equal_terms(F7xy):
    assert parse_poly(F7xy, "x*y + 2*y*x") == parse_poly(F7xy, "3*x*y")
    assert parse_poly(F7xy, "3*x + 5*x - y^2 + y*y") == parse_poly(F7xy, "x")
    assert not parse_poly(F7xy, "x^2 - x*x")
    # a term that is 0 mod p is dropped before its monomial is formed
    assert not parse_poly(F7xy, "7*x^1048576")
    with pytest.raises(DegreeOverflow):
        parse_poly(F7xy, "x^1048576")


# -- randomized algebra laws -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    da=st.integers(min_value=0, max_value=3),
    db=st.integers(min_value=0, max_value=3),
    dc=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=1, max_value=2**20),
)
def test_ring_axioms_random(da, db, dc, seed):
    ctx = make_ring(101, ["x", "y", "z"])
    a = random_homogeneous(ctx, da, seed)
    b = random_homogeneous(ctx, db, seed + 1)
    c = random_homogeneous(ctx, dc, seed + 2)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a and b:
        assert (a * b).degree() == a.degree() + b.degree()


@settings(max_examples=50, deadline=None)
@given(
    ea=st.tuples(*[st.integers(0, 5)] * 3),
    eb=st.tuples(*[st.integers(0, 5)] * 3),
    ec=st.tuples(*[st.integers(0, 5)] * 3),
)
def test_monomial_order_total_and_multiplicative(ea, eb, ec):
    cmp = compare_monomials(ea, eb)
    assert cmp in (-1, 0, 1)
    assert cmp == 0 or compare_monomials(eb, ea) == -cmp
    if sum(ea) > sum(eb):
        assert cmp == 1  # refines degree
    if cmp == 1:
        mul_a = tuple(x + y for x, y in zip(ea, ec))
        mul_b = tuple(x + y for x, y in zip(eb, ec))
        assert compare_monomials(mul_a, mul_b) == 1


def test_make_ring_validates_weights():
    with pytest.raises(ValueError):
        make_ring(101, ["x", "y"], weights=[1])
    with pytest.raises(ValueError):
        make_ring(101, ["x", "y"], weights=[1, 0])


def test_parse_poly_error_modes(F101xy):
    with pytest.raises(ValueError):
        parse_poly(F101xy, "x + q")
    with pytest.raises(ValueError):
        parse_poly(F101xy, "x + ")
    with pytest.raises(ValueError):
        parse_poly(F101xy, "x ^")


# -- the packed monomial encoding against a tuple reference ---------------------


def _tuple_key(exps, weights):
    """Reference order: ``(wdeg, -e[m-1], ..., -e[0])`` compared as tuples."""
    return (sum(w * e for w, e in zip(weights, exps)),) + tuple(
        -e for e in reversed(exps)
    )


@st.composite
def _weighted_monomials(draw):
    m = draw(st.integers(1, 5))
    weights = tuple(draw(st.lists(st.integers(1, 40), min_size=m, max_size=m)))
    exps = st.tuples(*[st.integers(0, 30)] * m)
    return weights, draw(exps), draw(exps)


@settings(max_examples=200, deadline=None)
@given(case=_weighted_monomials())
def test_packed_monomials_match_tuple_reference(case):
    weights, ea, eb = case
    m = len(weights)
    ctx = make_ring(101, [f"x{i}" for i in range(m)], weights=weights)
    a = mono_from_exponents(ea, weights)
    b = mono_from_exponents(eb, weights)
    assert (a < b) == (_tuple_key(ea, weights) < _tuple_key(eb, weights))
    assert (a == b) == (ea == eb)
    assert mono_exponents(a, m) == ea and mono_exponents(b, m) == eb

    # the engine multiplies and divides packed monomials by adding and
    # subtracting their keys
    product = tuple(x + y for x, y in zip(ea, eb))
    assert a + b == mono_from_exponents(product, weights)
    assert mono_exponents(a + b, m) == product

    divides = all(x <= y for x, y in zip(ea, eb))
    assert mono_divides(a, b, ctx) == divides
    if divides:
        quotient = tuple(y - x for x, y in zip(ea, eb))
        assert b - a == mono_from_exponents(quotient, weights)

    lcm = tuple(max(x, y) for x, y in zip(ea, eb))
    assert mono_lcm(a, b, ctx) == mono_from_exponents(lcm, weights)
    assert mono_exponents(mono_lcm(a, b, ctx), m) == lcm


def test_degree_limit_raises():
    ctx = make_ring(101, ["x", "y"], weights=[1, 2])
    limit = 1 << 20
    top = monomial(ctx, [limit - 1, 0])  # the largest representable x-power
    assert mono_exponents(max(top.terms), 2) == (limit - 1, 0)
    with pytest.raises(DegreeOverflow):
        monomial(ctx, [limit, 0])
    with pytest.raises(DegreeOverflow):
        mono_from_exponents((0, limit // 2), ctx.weights)
    with pytest.raises(DegreeOverflow):
        top * ctx.var(0)
    with pytest.raises(DegreeOverflow):
        mono_lcm(max(top.terms), max(ctx.var(1).terms), ctx)
    with pytest.raises(DegreeOverflow):
        make_ring(101, ["x"], weights=[limit])


def test_cached_hash_follows_the_terms():
    # every Poly is hashed before it is an operand; afterwards each hash
    # still matches its terms, and no operation changed an operand's terms
    from tests.polyref import reduce_with_certificate, syzygy_vectors, tracked_engine, vectors

    ctx = make_ring(101, ["x", "y", "z"])
    twin = make_ring(101, ["x", "y", "z"])
    seen = []

    def hashed(*polys):
        for h in polys:
            hash(h)
            seen.append((h, dict(h.terms)))
        return polys

    f, g = hashed(parse_poly(ctx, "3*x^2*y - z^3 + 5*x*y*z"),
                  parse_poly(ctx, "x^2*y + 7*z^3 - y*z^2"))
    s, d, p, _, _, _, _ = hashed(f + g, f - g, f * g, f * 3, f.scale(50), f - f,
                                 Poly(twin, dict(f.terms)))
    hashed(s * d, s + p, d - s, p.scale(2))
    eng = tracked_engine(ctx, [(f, g), (g, s)], 2, (0, 0))
    x = ctx.var(0)
    hashed(*(h for vec in vectors(eng) + syzygy_vectors(eng) for h in vec))
    rem, coeffs = reduce_with_certificate(eng, (x * f, x * d))
    hashed(*rem, *coeffs)
    for h, terms in seen:
        assert h.terms == terms
        assert hash(h) == hash(frozenset(h.terms.items()))
