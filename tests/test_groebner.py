from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liaison.groebner import (
    ModuleGB,
    _kpoly,
    _minimal_words,
    _ring_columns,
    _to_internal,
    assert_buchberger,
    leadterm_hilbert,
    minimal_generator_indices,
)
from liaison.groebner import buchberger as vec_buchberger
from liaison.errors import DegreeOverflow, InvalidInput, RingMismatch
from liaison.homalg import free_resolution, level_module
from liaison.modules import (
    annihilator,
    colon,
    cyclic_module,
    direct_sum,
    subquotient,
    twist,
)
from liaison.ring import (
    Poly,
    make_ring,
    mono_divides,
    mono_exponents,
    mono_from_exponents,
    parse_poly,
    render_poly,
)
from tests.polyref import (
    buchberger,
    column_relations,
    contains,
    diffs,
    express,
    flat,
    greedy_kept,
    ideal,
    ideal_polys,
    ideal_strings,
    module,
    monomial,
    normal_form,
    one,
    raw_syzygies,
    reduce_with_certificate,
    syzygy_vectors,
    tracked_engine,
    vec_combine,
    vec_degree,
    vec_is_zero,
    vectors,
)

from tests.oracle import (
    degree_slice_rank,
    hf_of_quotient,
    hf_of_subquotient,
    is_member,
    monomials_of_degree,
    random_homogeneous,
)


def P(ctx, s):
    return parse_poly(ctx, s)


def _monic(f):
    return f.scale(pow(f.terms[max(f.terms)], -1, f.ctx.p))


def _contains(gens, f, ctx):
    """Ideal membership, as ``cyclic_link`` decides it: f reduces to zero
    against a Groebner basis of the ideal."""
    return contains(buchberger([(g,) for g in gens if g], ctx, 1), (f,))


def gb_strings(ctx, gens):
    return ideal_strings(ctx, vec_buchberger(ideal(ctx, gens), ctx, 1).basis)


# -- buchberger --------------------------------------------------------------


def test_gb_of_spec_pair_is_itself(F7xy):
    gens = [P(F7xy, "x^2 - y"), P(F7xy, "y^2 - x")]
    assert gb_strings(F7xy, gens) == ["x^2 - y", "y^2 - x"]


def test_gb_containment_collapse(F101x):
    gens = [P(F101x, "x^3"), P(F101x, "x")]
    assert gb_strings(F101x, gens) == ["x"]


def test_gb_empty_input(F101x):
    assert vec_buchberger((), F101x, 1).basis == []


def test_gb_twisted_cubic_is_reduced(F101xyzw, cubic_ideal):
    # grevlex leads are y^2, y*z, z^2; the three quadrics are already a GB
    got = gb_strings(F101xyzw, cubic_ideal)
    assert got == ["y^2 - x*z", "y*z - x*w", "z^2 - y*w"]
    eng = buchberger([(g,) for g in cubic_ideal], F101xyzw, 1)
    assert_buchberger(eng)


def test_gb_reduced_output_is_sorted_descending(F101xy):
    got = gb_strings(F101xy, [P(F101xy, "x^2 + y^2"), P(F101xy, "x*y")])
    assert got == ["y^3", "x^2 + y^2", "x*y"]


def test_gb_emitted_bases_pass_criterion(F101xy):
    for gens in (
        ["x^2 + y^2", "x*y"],
        ["x + y", "x - y"],
        ["x^2", "x*y"],
    ):
        eng = buchberger([(P(F101xy, s),) for s in gens], F101xy, 1)
        assert_buchberger(eng)


def test_gb_quotient_ring_appends_defining(hypersurface):
    # over R = F101[x,y]/(xy), the ideal (x) has GB {x, xy} -> {x} after
    # reduction, and y*x is recognized as 0
    eng = buchberger([(P(hypersurface, "x"),)], hypersurface, 1)
    assert contains(eng, (P(hypersurface, "x*y"),))


# -- normal form -------------------------------------------------------------


def test_nf_single_division_step(F101xy):
    gb = buchberger([(P(F101xy, "x^2 - y"),)], F101xy, 1)
    assert normal_form(gb, (P(F101xy, "x^3"),))[0] == P(F101xy, "x*y")


def test_nf_of_member_is_zero(F101xy):
    gens = [(P(F101xy, "x^2 - y^2"),), (P(F101xy, "x*y"),)]
    gb = buchberger(gens, F101xy, 1)
    for g in gens:
        assert vec_is_zero(normal_form(gb, g))


def test_nf_unit_stays(F101xy):
    gb = buchberger([(P(F101xy, "x"),), (P(F101xy, "y"),)], F101xy, 1)
    assert normal_form(gb, (one(F101xy),))[0] == one(F101xy)


def test_nf_idempotent(F101xy):
    gb = buchberger([(P(F101xy, "x^2 - y^2"),), (P(F101xy, "x*y"),)], F101xy, 1)
    v = (P(F101xy, "x^3 + y^3"),)
    once = normal_form(gb, v)
    assert normal_form(gb, once) == once


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(1, 2**20), deg=st.integers(2, 4))
def test_nf_additive_on_equal_degrees(seed, deg):
    ctx = make_ring(101, ["x", "y"])
    gb = buchberger([(P(ctx, "x^2 - y^2"),), (P(ctx, "x*y"),)], ctx, 1)
    v = random_homogeneous(ctx, deg, seed)
    w = random_homogeneous(ctx, deg, seed + 7)
    lhs = normal_form(gb, (v + w,))[0]
    rhs = normal_form(gb, (v,))[0] + normal_form(gb, (w,))[0]
    assert lhs == rhs


# -- syzygies ----------------------------------------------------------------


def test_koszul_syzygy(F101xy):
    cols = [(P(F101xy, "x"),), (P(F101xy, "y"),)]
    syz = column_relations(module(F101xy, 1, (0,), cols, ()))
    assert len(syz) == 1
    s = syz[0]
    # generates the same module as (y, -x)
    assert s[0] * P(F101xy, "x") + s[1] * P(F101xy, "y") == F101xy.zero()
    assert {render_poly(_monic(s[0])), render_poly(_monic(-s[1]))} == {"x", "y"}


def test_syzygies_of_identity_vanish(F101xy):
    one = parse_poly(F101xy, "1")
    zero = F101xy.zero()
    cols = [(one, zero), (zero, one)]
    assert column_relations(module(F101xy, 2, (0, 0), cols, ())) == []


def test_syzygy_over_quotient_ring(hypersurface):
    # x * y = 0 in R = F101[x,y]/(xy)
    cols = [(P(hypersurface, "x"),)]
    syz = column_relations(module(hypersurface, 1, (0,), cols, ()))
    assert len(syz) == 1
    assert render_poly(_monic(syz[0][0])) == "y"


def test_syzygy_columns_annihilate_matrix(F101xyzw, cubic_ideal):
    cols = [(g,) for g in cubic_ideal]
    syz = column_relations(module(F101xyzw, 1, (0,), cols, ()))
    assert len(syz) == 2  # Hilbert-Burch: the cubic has a 3x2 syzygy matrix
    gb = buchberger([], F101xyzw, 1)
    for s in syz:
        acc = F101xyzw.zero()
        for u, g in zip(s, cubic_ideal):
            acc = acc + u * g
        assert not acc


# -- colon and intersection ---------------------------------------------------


def test_colon_univariate(F101x):
    got = colon(ideal(F101x, [P(F101x, "x^3")]), ideal(F101x, [P(F101x, "x")]), F101x)
    assert ideal_strings(F101x, got) == ["x^2"]


def test_colon_mixed_ideal(F101xy):
    got = colon(ideal(F101xy, [P(F101xy, "x^2"), P(F101xy, "x*y")]),
                ideal(F101xy, [P(F101xy, "x")]), F101xy)
    assert ideal_strings(F101xy, got) == ["x", "y"]


def test_colon_by_unit(F101xy):
    gens = [P(F101xy, "x^2"), P(F101xy, "x*y")]
    got = colon(ideal(F101xy, gens), ideal(F101xy, [one(F101xy)]), F101xy)
    assert ideal_strings(F101xy, got) == ["x^2", "x*y"]


def test_colon_containments(F101xyzw, cubic_ideal):
    ctx = F101xyzw
    c = cubic_ideal[:2]
    quot = ideal_polys(ctx, colon(ideal(ctx, c), ideal(ctx, cubic_ideal), ctx))
    for g in c:
        assert _contains(quot, g, ctx)  # I <= (I:J)
    for q in quot:
        for g in cubic_ideal:
            assert _contains(c, q * g, ctx)  # (I:J)*J <= I


def test_intersection_of_principal_ideals(F101xy):
    # (x) ∩ (y) = ann(R/(x) ⊕ R/(y))
    x, y = P(F101xy, "x"), P(F101xy, "y")
    S, _, _ = direct_sum(cyclic_module(F101xy, [x]), cyclic_module(F101xy, [y]))
    assert ideal_strings(F101xy, annihilator(S)) == ["x*y"]


# -- lifting -----------------------------------------------------------------


def test_lift_simple(F101x):
    M = subquotient(F101x, [(P(F101x, "x"),)], [])
    assert express(M, (P(F101x, "x^2"),)) == (P(F101x, "x"),)


def test_lift_fails_outside_span(F101xy):
    M = subquotient(F101xy, [(P(F101xy, "x"),)], [])
    with pytest.raises(InvalidInput):
        express(M, (P(F101xy, "y"),))


def test_lift_two_columns(F101xy):
    A = [(P(F101xy, "x"),), (P(F101xy, "y"),)]
    b = P(F101xy, "x^2 + y^2")
    X = express(subquotient(F101xy, A, []), (b,))
    acc = F101xy.zero()
    for coeff, col in zip(X, A):
        acc = acc + coeff * col[0]
    assert acc == b


# -- hilbert -----------------------------------------------------------------


def test_hilbert_full_plane(F101xy):
    gb = buchberger([], F101xy, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    assert data.dim == 2
    assert [data.hf(j) for j in range(5)] == [1, 2, 3, 4, 5]


def test_hilbert_twisted_cubic(F101xyzw, cubic_ideal):
    gb = buchberger([(g,) for g in cubic_ideal], F101xyzw, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    assert data.dim == 2
    assert data.degree == 3


def test_hilbert_degree_is_an_int_when_exact():
    R = make_ring(101, ["x", "y"], weights=[1, 2])
    assert leadterm_hilbert(buchberger([], R, 1), 1, (0,)).degree == Fraction(1, 2)
    whole = leadterm_hilbert(buchberger([(P(R, "y"),)], R, 1), 1, (0,)).degree
    assert whole == 1 and type(whole) is int


def test_hilbert_point(F101xy):
    gb = buchberger([(P(F101xy, "x"),), (P(F101xy, "y"),)], F101xy, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    assert data.dim == 0
    assert data.total_length() == 1
    assert [data.hf(j) for j in range(3)] == [1, 0, 0]


def test_hilbert_weighted_quotient(semigroup345):
    # R/(x) for the (t^3,t^4,t^5) curve: residues in degrees 0, 4, 5
    ctx = semigroup345
    gb = buchberger([(P(ctx, "x"),)], ctx, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    assert data.dim == 0
    assert data.total_length() == 3
    assert [data.hf(j) for j in range(7)] == [1, 0, 0, 0, 1, 1, 0]


def test_hilbert_of_semigroup_ring_itself(semigroup345):
    gb = buchberger([], semigroup345, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    assert data.dim == 1
    # numerical semigroup <3,4,5>: gaps exactly at 1 and 2
    assert [data.hf(j) for j in range(8)] == [1, 0, 0, 1, 1, 1, 1, 1]


def test_hilbert_of_high_exponents(F101xy):
    # a split on the variable itself, one exponent a level, would go about
    # 400 levels deep here; the split on its power is two levels deep
    e = 400
    gens = (f"x^{e}*y^{e}", f"x^{e + 1}", f"y^{e + 1}")
    gb = buchberger([(P(F101xy, s),) for s in gens], F101xy, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    assert data.dim == 0
    assert data.total_length() == (e + 1) ** 2 - 1


# -- oracle cross-checks -------------------------------------------------------


@pytest.mark.parametrize(
    "gens",
    [
        ["x^2", "x*y"],
        ["x^2 + y^2", "x*y"],
        ["x^3 - y^3"],
        ["x^2 - y^2", "x*y - y^2"],
    ],
)
def test_hf_matches_bruteforce(F101xy, gens):
    cols = [(P(F101xy, s),) for s in gens]
    gb = buchberger(cols, F101xy, 1)
    data = leadterm_hilbert(gb, 1, (0,))
    for d in range(7):
        assert data.hf(d) == hf_of_quotient(F101xy, 1, (0,), cols, d)


def test_membership_matches_bruteforce(F101xy):
    cols = [(P(F101xy, "x^2 - y^2"),), (P(F101xy, "x*y"),)]
    gb = buchberger(cols, F101xy, 1)
    probes = ["x^3", "x^2*y", "x^3 - x*y^2", "y^3", "x^4 + y^4"]
    for s in probes:
        v = (P(F101xy, s),)
        assert vec_is_zero(normal_form(gb, v)) == is_member(F101xy, 1, (0,), cols, v)


# -- weighted rank-2 oracle cross-checks -----------------------------------------

WEIGHTED = make_ring(101, ["x", "y", "z"], weights=[1, 2, 3])
RANK2_SHIFTS = (0, 1)


def _draw_poly(data, degree, ctx=WEIGHTED):
    """A homogeneous polynomial of weighted degree ``degree``, sparse or 0."""
    f = ctx.zero()
    for exps in monomials_of_degree(ctx, degree):
        c = data.draw(st.sampled_from([0, 0, 1, 2, 50, 100]))
        f = f + monomial(ctx, exps, c)
    return f


def _draw_vector(data, degree, ctx=WEIGHTED):
    """A homogeneous element of degree ``degree`` of S(0) + S(-1)."""
    return tuple(_draw_poly(data, degree - s, ctx) for s in RANK2_SHIFTS)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weighted_rank2_matches_bruteforce(data):
    ctx = WEIGHTED
    ngens = data.draw(st.integers(1, 3))
    cols = [_draw_vector(data, data.draw(st.integers(1, 4))) for _ in range(ngens)]
    gb = buchberger(cols, ctx, 2, RANK2_SHIFTS)
    assert_buchberger(gb)
    hf = leadterm_hilbert(gb, 2, RANK2_SHIFTS)
    for d in range(8):
        assert hf.hf(d) == hf_of_quotient(ctx, 2, RANK2_SHIFTS, cols, d)
    # a multiple of a generator is a member; a drawn vector may or may not be
    probes = [_draw_vector(data, data.draw(st.integers(1, 6))) for _ in range(2)]
    k = data.draw(st.integers(0, ngens - 1))
    mult = _draw_poly(data, data.draw(st.integers(0, 3)))
    probes.append(tuple(mult * f for f in cols[k]))
    for v in probes:
        got = vec_is_zero(normal_form(gb, v))
        assert got == is_member(ctx, 2, RANK2_SHIFTS, cols, v)


# the weighted ring modulo a form homogeneous for weights 1, 2, 3
WEIGHTED_QUOTIENT = make_ring(101, ["x", "y", "z"], ["x*z - y^2"], weights=[1, 2, 3])


def _draw_column(data, ctx, low, high):
    """A drawn vector of degree in low..high, or now and then the zero one."""
    if data.draw(st.integers(0, 4)) == 0:
        return (ctx.zero(),) * len(RANK2_SHIFTS)
    return _draw_vector(data, data.draw(st.integers(low, high)), ctx)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_seeded_engine_matches_unseeded(data):
    ctx = WEIGHTED_QUOTIENT
    rels = [_draw_vector(data, data.draw(st.integers(2, 5)), ctx)
            for _ in range(data.draw(st.integers(0, 2)))]
    # zero columns and degrees far apart, so that the kept set is decided
    # by engines completed to very different degrees
    cols = [_draw_column(data, ctx, 1, 9)
            for _ in range(data.draw(st.integers(1, 4)))]
    # the module's reduced relation basis, J*F included, is the seed
    seed = subquotient(ctx, [], rels, RANK2_SHIFTS).rels_gb().basis
    before = [dict(vec) for vec in seed]
    flat = [_to_internal(ctx, col, 2) for col in cols]
    eng = ModuleGB(ctx, 2, RANK2_SHIFTS)
    eng._seed(seed)
    eng.add_generators(flat)
    eng.interreduce()
    assert_buchberger(eng)
    assert vectors(eng) == vectors(buchberger(rels + cols, ctx, 2, RANK2_SHIFTS))
    kept = minimal_generator_indices(flat, ctx, 2, RANK2_SHIFTS, seed)
    assert kept == greedy_kept(cols, rels, ctx, RANK2_SHIFTS)
    assert seed == before
    # J*F alone, as tracked_engine seeds its selection, against its reduced
    # basis from scratch
    ring = ModuleGB(ctx, 2, RANK2_SHIFTS)
    ring._seed(_ring_columns(ctx, 2))
    ring.interreduce()
    assert vectors(ring) == vectors(buchberger([], ctx, 2, RANK2_SHIFTS))


SEMIGROUP = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                     weights=[3, 4, 5])


def _draw_module_vector(data, ctx, shifts, degree):
    """A homogeneous element of degree ``degree`` of the sum of S(-s)."""
    return tuple(_draw_poly(data, degree - s, ctx) for s in shifts)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_untracked_criteria_leave_the_reduced_basis_unchanged(data):
    # Buchberger's criteria only skip pairs that reduce to zero anyway
    ctx = SEMIGROUP
    rank = data.draw(st.integers(2, 3))
    shifts = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
    cols = [_draw_module_vector(data, ctx, shifts, data.draw(st.integers(3, 9)))
            for _ in range(data.draw(st.integers(1, 4)))]
    bases = []
    for criteria in (True, False):
        eng = ModuleGB(ctx, rank, shifts)
        eng.use_criteria = criteria
        flat = [_to_internal(ctx, col, rank) for col in cols]
        eng.add_generators(flat + _ring_columns(ctx, rank))
        eng.interreduce()
        assert_buchberger(eng)
        bases.append(vectors(eng))
    assert bases[0] == bases[1]


def _draw_without_middle_lead(data, ctx, shifts, degree):
    """A drawn vector whose lead is at the first or the last position: either
    only its last entry is nonzero, or its first one is, or it is zero."""
    vec = list(_draw_module_vector(data, ctx, shifts, degree))
    if data.draw(st.booleans()):
        vec[:-1] = [ctx.zero()] * (len(vec) - 1)
    elif not vec[0] or data.draw(st.booleans()):
        vec[1:-1] = [ctx.zero()] * (len(vec) - 2)
    return tuple(vec)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _subtract(u, v):
    return tuple(a - b for a, b in zip(u, v))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduction_passes_positions_without_a_lead(data):
    # No generator leads at a middle position, so over S a middle position
    # holds a lead only where an S-vector puts one (over S/J, J*e_i leads at
    # every position); a reduction must go on past a middle term that no
    # lead divides, to the positions after it.
    ctx = data.draw(st.sampled_from([WEIGHTED, WEIGHTED_QUOTIENT]))
    rank = data.draw(st.integers(3, 4))
    shifts = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
    cols = [_draw_without_middle_lead(data, ctx, shifts, data.draw(st.integers(2, 5)))
            for _ in range(data.draw(st.integers(1, 4)))]
    cols = [col for col in cols if not vec_is_zero(col)] or [
        tuple(one(ctx) if q == rank - 1 else ctx.zero() for q in range(rank))
    ]
    degrees = [vec_degree(col, shifts) for col in cols]
    d = max(degrees) + data.draw(st.integers(0, 2))
    multipliers = [_draw_poly(data, d - e, ctx) for e in degrees]
    member = vec_combine(cols, multipliers, ctx, rank)
    # a member over the generators that lead at the last position only
    last = vec_combine(cols, [c if not any(col[:-1]) else ctx.zero()
                              for c, col in zip(multipliers, cols)], ctx, rank)
    middle = tuple(_draw_poly(data, d - s, ctx) if 0 < q < rank - 1 else ctx.zero()
                   for q, s in enumerate(shifts))
    vectors = [member, _add(member, middle), _add(last, middle),
               _draw_module_vector(data, ctx, shifts, d)]
    gb = buchberger(cols, ctx, rank, shifts)
    eng = tracked_engine(ctx, cols, rank, shifts)
    leads = eng.leads
    for vec in vectors:
        assert contains(gb, vec) == is_member(ctx, rank, shifts, cols, vec)
        rem, coeffs = reduce_with_certificate(eng, vec)
        # vec = sum(coeffs * cols) + rem modulo J*F, and rem is reduced
        rest = _subtract(_subtract(vec, vec_combine(cols, coeffs, ctx, rank)), rem)
        assert is_member(ctx, rank, shifts, [], rest)
        for q, f in enumerate(rem):
            for mono in f.terms:
                assert not any(lp == q and mono_divides(lm, mono, ctx)
                               for lp, lm in leads)
    for syz in syzygy_vectors(eng):
        assert is_member(ctx, rank, shifts, [], vec_combine(cols, syz, ctx, rank))


SEMIGROUP_4567 = make_ring(
    101,
    ["a", "b", "c", "d"],
    ["a*c - b^2", "a*d - b*c", "a^3 - b*d", "b*d - c^2", "a^2*b - c*d", "a^2*c - d^2"],
    weights=[4, 5, 6, 7],
)


def _reference_normal_form(eng, vec):
    """The normal form of ``vec`` against the basis of ``eng``, and its
    certificate, by the plain loop: take the largest key left with ``max``,
    reduce it by the first basis vector whose lead at its position divides
    it, and follow each step on a certificate dict of its own.  Keys are
    those of ``ModuleGB``: ``((rank - 1 - pos) << span) | mono`` for the
    vector, and ``(-(j + 1) << span) | mono`` for tracked column j."""
    ctx, rank = eng.ctx, eng.rank
    pk = ctx._pk
    span, mask, p = pk.span, pk.top - 1, ctx.p
    data = {((rank - 1 - pos) << span) | mono: c
            for pos, f in enumerate(vec) for mono, c in f.terms.items()}
    parts = [({k: c for k, c in b.items() if k >= 0},
              {k: c for k, c in b.items() if k < 0}) for b in eng.basis]
    out, cert = {}, {}
    while data:
        key = max(data)
        for (pos, lead), (b_vec, b_cert) in zip(eng.leads, parts):
            if pos == rank - 1 - (key >> span) and mono_divides(lead, key & mask, ctx):
                coeff, mult = data[key], (key & mask) - lead
                for target, src in ((data, b_vec), (cert, b_cert)):
                    for k, c in src.items():
                        v = (target.get(k + mult, 0) - coeff * c) % p
                        if v:
                            target[k + mult] = v
                        else:
                            target.pop(k + mult, None)
                break
        else:
            out[key] = data.pop(key)
    return out, cert


def _as_polys(ctx, terms, count, last):
    """The terms {key: coeff} as ``count`` Poly, key at position
    ``last - (key >> span)``; every key must land on a position."""
    span, mask = ctx._pk.span, ctx._pk.top - 1
    parts = [{} for _ in range(count)]
    for key, c in terms.items():
        pos = last - (key >> span)
        assert 0 <= pos < count, key
        parts[pos][key & mask] = c
    return tuple(Poly(ctx, t) for t in parts)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_forms_match_the_reference_loop(data):
    # the heap-ordered normal form takes the same steps as the max-per-term
    # loop, over the rings of the monomial curves (t^3, t^4, t^5) and
    # (t^4, t^5, t^6, t^7), at ranks 1-4, tracked and untracked
    ctx = data.draw(st.sampled_from([SEMIGROUP, SEMIGROUP_4567]))
    rank = data.draw(st.integers(1, 4))
    shifts = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
    low = 2 * min(ctx.weights) + max(shifts)  # each position has monomials
    cols = [_draw_module_vector(data, ctx, shifts, data.draw(st.integers(low, low + 6)))
            for _ in range(data.draw(st.integers(1, 3)))]
    cols = [col for col in cols if not vec_is_zero(col)] or [
        tuple(ctx.var(0) if q == 0 else ctx.zero() for q in range(rank))
    ]
    degrees = [vec_degree(col, shifts) for col in cols]
    d = max(degrees) + data.draw(st.integers(0, 4))
    member = vec_combine(cols, [_draw_poly(data, d - e, ctx) for e in degrees], ctx, rank)
    vectors = [member, _add(member, _draw_module_vector(data, ctx, shifts, d)),
               _draw_module_vector(data, ctx, shifts, d)]
    tracked = tracked_engine(ctx, cols, rank, shifts)
    p = ctx.p
    for eng in (buchberger(cols, ctx, rank, shifts), tracked):
        for vec in vectors:
            out, cert = _reference_normal_form(eng, vec)
            assert normal_form(eng, vec) == _as_polys(ctx, out, rank, rank - 1)
            if eng is not tracked:
                assert not cert
                continue
            rem, coeffs = reduce_with_certificate(eng, vec)
            assert rem == _as_polys(ctx, out, rank, rank - 1)
            negated = {key: p - c for key, c in cert.items()}
            assert coeffs == _as_polys(ctx, negated, len(cols), -1)
            # vec = sum(coeffs * cols) + rem modulo J*F
            rest = _subtract(_subtract(vec, vec_combine(cols, coeffs, ctx, rank)), rem)
            assert is_member(ctx, rank, shifts, [], rest)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_keeps_the_greedy_minimal_syzygies(data):
    # the printed presentations depend on which syzygies are kept: in
    # ascending degree, then in the order they were filed, each syzygy
    # outside those kept before it, over the rings of the monomial curves
    # (t^3, t^4, t^5) and (t^4, t^5, t^6, t^7)
    ctx = data.draw(st.sampled_from([SEMIGROUP, SEMIGROUP_4567]))
    rank = data.draw(st.integers(1, 3))
    shifts = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
    low = 2 * min(ctx.weights) + max(shifts)  # each position has monomials
    cols = [_draw_module_vector(data, ctx, shifts, data.draw(st.integers(low, low + 5)))
            for _ in range(data.draw(st.integers(1, 4)))]
    eng = tracked_engine(ctx, cols, rank, shifts)
    syz = raw_syzygies(ctx, cols, rank, shifts)
    for u in syz:
        assert is_member(ctx, rank, shifts, [], vec_combine(cols, u, ctx, rank))
    kept = greedy_kept(syz, [], ctx, eng.shifts[eng.rank:])
    assert syzygy_vectors(eng) == [syz[k] for k in kept]


def test_engine_keys_hold_any_position(F101xy):
    # a key's prefix counts back from the last position, with no budget of
    # positions, and at the last position the keys are the monomials
    rank = 5000
    x, y, zero = F101xy.var(0), F101xy.var(1), F101xy.zero()

    def at(pos, f):
        return tuple(f if q == pos else zero for q in range(rank))

    eng = buchberger([at(rank - 1, x), at(0, y)], F101xy, rank)
    assert eng.leads == [(0, max(y.terms)), (rank - 1, max(x.terms))]
    assert eng.basis[1] == x.terms
    assert vectors(eng) == [at(0, y), at(rank - 1, x)]
    assert contains(eng, at(rank - 1, x * y))
    assert not contains(eng, at(rank - 2, x))
    assert normal_form(eng, at(rank - 1, y)) == at(rank - 1, y)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_level_zero_betti_numbers_match_bruteforce(data):
    # beta_0j = dim (M/mM)_j, with mM spanned by the variables times the
    # generators, on the degree slices of the oracle
    ctx = WEIGHTED_QUOTIENT
    rels = [_draw_vector(data, data.draw(st.integers(2, 5)), ctx)
            for _ in range(data.draw(st.integers(0, 2)))]
    gens = [_draw_column(data, ctx, 1, 6)
            for _ in range(data.draw(st.integers(1, 4)))]
    M = subquotient(ctx, gens, rels, RANK2_SHIFTS)
    betti = free_resolution(M, 0).betti()
    m_gens = [tuple(ctx.var(k) * f for f in col)
              for k in range(ctx.m) for col in M.gens]
    for j in range(1, 8):
        top = degree_slice_rank(ctx, 2, RANK2_SHIFTS, list(M.gens) + list(M.rels), j)
        low = degree_slice_rank(ctx, 2, RANK2_SHIFTS, m_gens + list(M.rels), j)
        assert betti.get((0, j), 0) == top - low, j


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_betti_numbers_above_level_zero_match_bruteforce(data):
    # levels 1-3 over the (3, 4, 5) semigroup ring, whose resolutions never
    # stop, on the degree slices of the oracle: the image of d_i is the kernel
    # of the map before it (d_0 is F_0 -> M, whose image is M itself), and
    # beta_ij counts the minimal generators of level_module(M, res, i) as the
    # level-zero test counts those of M
    ctx = SEMIGROUP
    shifts = (0, data.draw(st.integers(0, 2)))
    gens = [_draw_module_vector(data, ctx, shifts, data.draw(st.integers(3, 6)))
            for _ in range(data.draw(st.integers(1, 3)))]
    # relations, so that fewer of the modules are free
    rels = [_draw_module_vector(data, ctx, shifts, data.draw(st.integers(3, 8)))
            for _ in range(data.draw(st.integers(1, 3)))]
    M = subquotient(ctx, gens, rels, shifts)
    res = free_resolution(M, 3)
    betti = res.betti()

    def image_dim(k, j):
        if k == 0:
            return hf_of_subquotient(ctx, M.rank, M.shifts, M.gens, M.rels, j)
        if not res.rank(k):
            return 0
        return hf_of_subquotient(ctx, res.rank(k - 1), res.level_shifts[k - 1],
                                 diffs(ctx, res, k), [], j)

    def free_dim(k, j):
        return sum(hf_of_quotient(ctx, 1, (0,), [], j - s) for s in res.level_shifts[k])

    for i in range(1, 4):
        if not res.rank(i - 1):
            assert not res.rank(i)
            continue
        below = res.level_shifts[i - 1]
        here = res.level_shifts[i] if res.rank(i) else ()
        for j in range(min(below), max(below + here) + 6):
            assert free_dim(i - 1, j) - image_dim(i - 1, j) == image_dim(i, j), (i, j)
        if not here:
            assert not any(level == i for level, _ in betti)
            continue
        L = level_module(M, res, i)
        rels = list(L.rels)
        m_gens = [tuple(ctx.var(k) * f for f in col)
                  for k in range(ctx.m) for col in L.gens]
        for j in range(min(here) - 1, max(here) + 2):
            top = degree_slice_rank(ctx, L.rank, L.shifts, list(L.gens) + rels, j)
            low = degree_slice_rank(ctx, L.rank, L.shifts, m_gens + rels, j)
            assert betti.get((i, j), 0) == top - low, (i, j)


def test_equal_inputs_share_one_reduced_basis(monkeypatch):
    ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    built, interreduced = [], []
    init, interreduce = ModuleGB.__init__, ModuleGB.interreduce

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counted_interreduce(self):
        interreduced.append(self)
        interreduce(self)

    monkeypatch.setattr(ModuleGB, "__init__", counted_init)
    monkeypatch.setattr(ModuleGB, "interreduce", counted_interreduce)
    first = cyclic_module(ctx, [x * x, y * z])
    second = cyclic_module(ctx, [x * x, y * z])
    assert len(built) == 1 and interreduced == built
    assert first.rels_gb() is second.rels_gb() is built[0]
    cols = [(x * y,), (z * z,)]
    assert buchberger(cols, ctx, 1) is buchberger(tuple(cols), ctx, 1, [0])
    # shifts order no term: equal columns under other shifts share the basis
    assert buchberger(cols, ctx, 1, [3]) is buchberger(cols, ctx, 1)
    pair = [(x, y), (z, x)]
    assert buchberger(pair, ctx, 2, [0, 1]) is buchberger(pair, ctx, 2, [-2, 5])
    # a computation that fails stores nothing
    half = 1 << 19
    big = [(monomial(ctx, [half, 0, 0]),), (monomial(ctx, [0, 0, half]),)]
    for _ in range(2):
        with pytest.raises(DegreeOverflow):
            buchberger(big, ctx, 1)
    assert not any(key[0] == "buchberger" and key[2] == tuple(flat(ctx, big, 1))
                   for key in ctx._cache if isinstance(key, tuple))
    # equal terms over another ring are still refused
    other = make_ring(101, ["u", "v", "w"], ["u*w - v^2"])
    foreign = [(other.var(0) * other.var(1),), (other.var(2) * other.var(2),)]
    assert foreign == cols
    with pytest.raises(RingMismatch):
        buchberger(foreign, ctx, 1)


def test_a_twist_shares_its_module_s_relation_engine():
    # a twist moves every shift, and shifts order no term
    ctx = make_ring(101, ["x", "y", "z"])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    M = cyclic_module(ctx, [x * y, y * z, z * z])
    assert twist(M, 3).shifts != M.shifts
    assert twist(M, 3).rels_gb() is M.rels_gb()


def test_pair_degree_at_the_limit_raises(F101xy):
    # the lcm x^a*y^a of two coprime leads has degree 2a = 2^20
    half = 1 << 19
    cols = [(monomial(F101xy, [half, 0]),), (monomial(F101xy, [0, half]),)]
    with pytest.raises(DegreeOverflow):
        buchberger(cols, F101xy, 1)
    # an lcm below the limit, whose vectors would hold degree 2a + 5 at a
    # position shifted down by 5
    a = half - 2
    zero = F101xy.zero()
    cols = [(monomial(F101xy, [a, 0]), zero), (monomial(F101xy, [0, a]), zero)]
    with pytest.raises(DegreeOverflow):
        buchberger(cols, F101xy, 2, shifts=(0, -5))


# ---------------------------------------------------------------------------
# lead-term Hilbert numerators on packed exponent words, against the tuple
# code they replaced


def _reference_minimalize(gens):
    """The minimal exponent tuples, by sum, each kept unless a kept one
    divides it."""
    out = []
    for g in sorted(gens, key=sum):
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return out


def _reference_kpoly(gens, weights):
    """Numerator of HS(S/(gens)) over prod(1 - t^w_i) for minimal exponent
    tuples, split on v^e as ``_kpoly`` splits, with no memo."""
    if not gens:
        return {0: 1}
    if any(sum(g) == 0 for g in gens):
        return {}
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        res = {0: 1}
        for g in gens:
            i = next(k for k, e in enumerate(g) if e)
            out = dict(res)
            for d, c in res.items():
                out[d + weights[i] * g[i]] = out.get(d + weights[i] * g[i], 0) - c
            res = {d: c for d, c in out.items() if c}
        return res
    counts = {i: sum(1 for g in gens if g[i]) for i in range(len(weights))}
    v = max((i for i in range(len(weights)) if any(g[i] for g in mixed)),
            key=lambda i: counts[i])
    e = min(g[v] for g in mixed if g[v])
    piv = tuple(e if i == v else 0 for i in range(len(weights)))
    res = _reference_kpoly(_reference_minimalize([g for g in gens if g[v] < e] + [piv]),
                           weights)
    col = _reference_kpoly(
        _reference_minimalize([tuple(max(a - b, 0) for a, b in zip(g, piv)) for g in gens]),
        weights)
    for d, c in col.items():
        res[d + e * weights[v]] = res.get(d + e * weights[v], 0) + c
    return {d: c for d, c in res.items() if c}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_word_numerators_match_the_tuple_reference(data):
    # weights (1, 1, 1), (3, 4, 5) and (4, 5, 6, 7); the monomial sets hold
    # duplicates, non-minimal monomials, pure powers and the unit monomial
    ctx = data.draw(st.sampled_from([make_ring(101, ["x", "y", "z"]), SEMIGROUP,
                                     SEMIGROUP_4567]))
    m = ctx.m
    exps = st.lists(st.integers(0, 4), min_size=m, max_size=m).map(tuple)
    gens = data.draw(st.lists(exps, max_size=8))
    for _ in range(data.draw(st.integers(0, 3))):
        i, e = data.draw(st.integers(0, m - 1)), data.draw(st.integers(1, 6))
        gens.append(tuple(e if k == i else 0 for k in range(m)))
    if gens:
        g, i = data.draw(st.sampled_from(gens)), data.draw(st.integers(0, m - 1))
        gens += [g, tuple(x + (k == i) for k, x in enumerate(g))]
    if data.draw(st.integers(0, 9)) == 0:
        gens.append((0,) * m)
    pk = ctx._pk
    words = [mono_from_exponents(g, ctx.weights) & pk.low
             for g in data.draw(st.permutations(gens))]
    minimal = _minimal_words(words, pk.guard)
    assert list(minimal) == sorted(minimal)
    expected = _reference_minimalize(gens)
    assert sorted(mono_exponents(w, m) for w in minimal) == sorted(expected)
    assert _kpoly(minimal, ctx) == _reference_kpoly(expected, ctx.weights)
