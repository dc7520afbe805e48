"""Ext over R/(x): when x is regular on R and on M and kills N,
Ext^i_R(M, N) = Ext^i_{R/(x)}(M/xM, N) as graded modules, so ``ext_vanishes``
and ``ext_hilbert`` answer over R/(x), and into N = ω/xω over S; and M's
graded Betti numbers are those of M/xM over R/(x) (``graded_betti``).
Checked against the route over R, and the moves to R/(x) that it rests on."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from liaison import homalg
from liaison.homalg import depth, ext_hilbert, ext_vanishes, restrict_scalars
from liaison.linkage import canonical_module
from liaison.modules import (
    annihilator, cyclic_module, direct_sum, free_module, ring_dim, subquotient, tensor,
    transport,
)
from liaison.ring import make_ring, parse_poly

from tests.oracle import monomials_of_degree
from tests.polyref import ideal, monomial

SEMIGROUP_345 = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                          weights=[3, 4, 5])
SEMIGROUP_4567 = make_ring(
    101, ["a", "b", "c", "d"],
    ["a*c - b^2", "a*d - b*c", "a^3 - b*d", "b*d - c^2", "a^2*b - c*d", "a^2*c - d^2"],
    weights=[4, 5, 6, 7],
)


def test_transport_keeps_a_module_whose_generators_do_not_span():
    # xR/x^2R = R/(x)(-1) is killed by x and is not zero; its generator x
    # lies in x*F, which the unit-vector path would take for a relation
    ctx = make_ring(101, ["x", "y"])
    x = ctx.var(0)
    N = subquotient(ctx, [(x,)], [(x * x,)])
    ctx2 = homalg.quotient_ring(ctx, ideal(ctx, [x]))
    moved = transport(N, ctx2)
    assert not moved.is_zero()
    assert moved.hilbert().numerator == N.hilbert().numerator == {1: 1, 2: -1}
    # a module on the unit vectors keeps its generators
    Q = cyclic_module(ctx, [x])
    assert transport(Q, ctx2)._gens == Q._gens


def test_xR_mod_x2R_over_the_semigroup_ring_takes_the_route(monkeypatch):
    R = SEMIGROUP_345
    x = R.var(0)
    K = canonical_module(R)
    N = subquotient(R, [(x,)], [(x * x,)])
    over_r = homalg._ring_series
    questions = watch_ext_questions(monkeypatch)
    for i in range(3):
        assert not ext_vanishes(i, K, N)
        assert ext_hilbert(i, K, N).numerator == over_r("ext", i, K, N)
    assert R._cache[N, ("ext_route", K)] == ideal(R, [x])[0]
    # each of the three went over R/(x) (route 3), none over R
    assert routed_ext_questions(R, questions) == (3, 3, 0)


def _draw_nonzero_form(data, ctx, degrees):
    """A homogeneous form of a drawn degree: one monomial, plus others
    drawn sparse, so never the zero polynomial (it may lie in J)."""
    d = data.draw(st.sampled_from(degrees))
    monos = monomials_of_degree(ctx, d)
    lead = data.draw(st.sampled_from(monos))
    f = monomial(ctx, lead, data.draw(st.sampled_from([1, 3, 100])))
    for exps in monos:
        if exps != lead:
            f = f + monomial(ctx, exps, data.draw(st.sampled_from([0, 0, 0, 1, 100])))
    return f


def _forms(data, ctx, degrees, most):
    return [_draw_nonzero_form(data, ctx, degrees)
            for _ in range(data.draw(st.integers(1, most)))]


RINGS = {
    # (ring, low degrees of generators, fixed ideals for M)
    "345": (SEMIGROUP_345, [3, 4, 5, 6],
            [["x", "y"], ["x", "y", "z"], ["y", "z"]]),
    "4567": (SEMIGROUP_4567, [4, 5, 6],
             [["a", "b"], ["b", "c"]]),
}


def _draw_m(data, ctx, degrees, ideals):
    """M: the canonical module (maximal Cohen-Macaulay), R/J (R itself for
    J = 0, of dimension 0 otherwise), an ideal (maximal Cohen-Macaulay,
    generators inside m*F), or R (+) R/J, of dimension 1 and depth 0, on
    which no element is regular."""
    kind = data.draw(st.sampled_from(["omega", "R/J", "ideal", "R + R/J"]))
    if kind == "omega":
        return kind, canonical_module(ctx)
    if kind == "ideal":
        names = data.draw(st.sampled_from(ideals))
        return kind, subquotient(ctx, [(parse_poly(ctx, v),) for v in names], [])
    J = _forms(data, ctx, degrees, 2)
    if kind == "R/J":
        return kind, cyclic_module(ctx, J[:data.draw(st.integers(0, 1))])
    one, zero = monomial(ctx, (0,) * ctx.m), ctx.zero()
    return kind, subquotient(ctx, [(one, zero), (zero, one)], [(zero, f) for f in J])


def _draw_n(data, ctx, degrees):
    """N, killed by every element of a nonzero ideal I: R/I, K (x) R/I, or
    fR/fIR, whose generator f lies in m*F and, for f in I, in I*F."""
    kind = data.draw(st.sampled_from(["R/I", "K (x) R/I", "fR/fI"]))
    gens = _forms(data, ctx, degrees, 2)
    if kind == "R/I":
        return kind, cyclic_module(ctx, gens)
    if kind == "K (x) R/I":
        return kind, tensor(canonical_module(ctx), cyclic_module(ctx, gens))
    f = gens[0] if data.draw(st.booleans()) else _draw_nonzero_form(data, ctx, degrees)
    return kind, subquotient(ctx, [(f,)], [(f * g,) for g in gens])


def _has_regular_annihilator(M, N):
    """Over a one-dimensional domain, decided without the route's search:
    ann(N) is nonzero exactly when dim N = 0, and every nonzero element is
    regular on M exactly when M is Cohen-Macaulay of dimension 1 (its one
    associated prime is then 0)."""
    return N.dim() == 0 and M.dim() == 1 and depth(M) == 1


def test_routed_ext_matches_the_ring_route():
    """``ext_vanishes`` and ``ext_hilbert``, whichever route they take,
    against the route over R called directly, over the monomial curves
    (t^3, t^4, t^5) and (t^4, t^5, t^6, t^7), for i = 0..3; the route is
    taken exactly where N has an annihilator regular on R and on M."""
    outcomes, routed = Counter(), Counter()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(RINGS)))
        ctx, degrees, ideals = RINGS[name]
        m_kind, M = _draw_m(data, ctx, degrees, ideals)
        n_kind, N = _draw_n(data, ctx, degrees)
        for i in range(4):
            want = homalg._ring_series("ext", i, M, N)
            assert ext_hilbert(i, M, N).numerator == want
            assert ext_vanishes(i, M, N) == (not want)
            outcomes[not want] += 1
        x = ctx._cache[N, ("ext_route", M)]
        assert (x is not None) == _has_regular_annihilator(M, N)
        if x is not None:
            assert x in annihilator(N)
            routed[name, m_kind, n_kind] += 1

    check()
    assert set(outcomes) == {True, False}
    # the route is taken on both rings, for M = K and for an ideal, and for
    # each kind of N (13 of the 40 examples under hypothesis 6.155)
    assert sum(routed.values()) >= 10
    assert {key[0] for key in routed} == set(RINGS)
    assert {"omega", "ideal"} <= {key[1] for key in routed}
    assert {key[2] for key in routed} == {"R/I", "K (x) R/I", "fR/fI"}


# the cone over (t^3, t^4, t^5): Cohen-Macaulay of dimension 2, where
# Ext^i(M, ω/xω) need not vanish for i >= 1 (it does over the curves for
# maximal Cohen-Macaulay M, R/(x) being Artinian there)
SEMIGROUP_345_CONE = make_ring(
    101, ["x", "y", "z", "w"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"], weights=[3, 4, 5, 1])

DUAL_RINGS = {
    # (ring, low degrees of forms, fixed ideals for M)
    **RINGS,
    "345 cone": (SEMIGROUP_345_CONE, [1, 2, 3, 4, 5],
                 [["x", "y"], ["w"], ["x", "w"], ["y", "z", "w"]]),
}


def _over_s_from_m_mod_x(M, N):
    """Whether Ext(M, N) was answered over S from M/xM: N's route found an
    x, and N/xN is ω/xω."""
    x = M.ctx._cache.get((N, ("ext_route", M)))
    if x is None:
        return False
    ctx2 = homalg.quotient_ring(M.ctx, (x,))
    return transport(N, ctx2) == transport(canonical_module(M.ctx), ctx2)


def test_ext_into_omega_mod_x_over_s_matches_the_ring_route():
    """``ext_vanishes`` and ``ext_hilbert`` of (i, M, ω ⊗ R/(f)) against
    the route over R called directly, for i = 0..3, over the two monomial
    curves and the cone over the first.  Where f is regular on R and on M
    they are answered over S, as Ext^{i+c}_S(M/fM, S) with c the
    codimension of R/(f), twisted by the weight sum plus deg f: ω/fω is
    ω_{R/(f)}(-deg f) (Bruns-Herzog 3.1.16 and 3.3.5, graded 3.6.12)."""
    answers, over_s = Counter(), Counter()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(DUAL_RINGS)))
        ctx, degrees, ideals = DUAL_RINGS[name]
        m_kind, M = _draw_m(data, ctx, degrees, ideals)
        f = _draw_nonzero_form(data, ctx, degrees)
        N = tensor(canonical_module(ctx), cyclic_module(ctx, [f]))
        got = [ext_vanishes(i, M, N) for i in range(4)]
        for i in range(4):
            want = homalg._ring_series("ext", i, M, N)
            assert ext_hilbert(i, M, N).numerator == want
            assert got[i] == (not want)
        if _over_s_from_m_mod_x(M, N):
            over_s[name, m_kind] += 1
            answers.update((i > 0, vanishes) for i, vanishes in enumerate(got))

    check()
    # both answers come over S, and a nonzero Ext^i with i >= 1 among them
    assert {(False, False), (True, True), (True, False)} <= set(answers)
    # on each ring (23 of the 40 examples under hypothesis 6.155)
    assert sum(over_s.values()) >= 20
    assert {key[0] for key in over_s} == set(DUAL_RINGS)


def test_ext1_of_the_cone_mod_w_into_omega_mod_x_is_nonzero():
    # M = R/(w) has dimension 1 and M/xM = R/(w, x) dimension 0 over the
    # one-dimensional R/(x), so Ext^i_R(M, ω/xω) = Ext^i_{R/(x)}(M/xM,
    # ω_{R/(x)}) = Ext^{i+3}_S(R/(w, x), S)(twist) is nonzero for i = 1 alone
    R = SEMIGROUP_345_CONE
    x, w = R.var(0), R.var(3)
    M = cyclic_module(R, [w])
    N = tensor(canonical_module(R), cyclic_module(R, [x]))
    got = [ext_vanishes(i, M, N) for i in range(4)]
    assert got == [True, False, True, True]
    assert got == [not homalg._ring_series("ext", i, M, N) for i in range(4)]
    assert _over_s_from_m_mod_x(M, N)


def watch_ext_questions(monkeypatch):
    """Lists, by function name, that collect (i, M, N) of every Ext
    question ``_series`` and ``_ring_series`` are asked, filled while the
    monkeypatch holds."""
    calls = {name: [] for name in ("_series", "_ring_series")}
    for name, into in calls.items():
        real = getattr(homalg, name)

        def watched(*args, real=real, into=into):
            if args[0] != "tor":
                into.append(args[-3:])
            return real(*args)

        monkeypatch.setattr(homalg, name, watched)
    return calls


def routed_ext_questions(ring, calls):
    """Checks how each Ext question over ``ring`` that ``_series`` got,
    into an N other than ω_R, was answered:
      - over R, where N has no annihilator regular on R and on M;
      - over S from M/xM, where there is such an x and N/xN = ω/xω: as
        Ext^{i+c}_S((M/xM)_S, S) with c the codimension of R/(x);
      - over R/(x), from M/xM and N, otherwise; never over R when routed.
    Returns how many questions there were, and how many went over R/(x)
    and over S.  ``tests/test_cli.py`` reads it on the type-three spec."""
    omega = canonical_module(ring)
    answered = calls["_ring_series"]
    questions = [q for q in dict.fromkeys(calls["_series"])
                 if q[1].ctx is ring and q[2] != omega]
    over_r2 = over_s = 0
    for i, M, N in questions:
        x = ring._cache[N, ("ext_route", M)]
        assert (x is not None) == _has_regular_annihilator(M, N)
        assert (x is None) == ((i, M, N) in answered)
        if x is None:
            continue
        ctx2 = homalg.quotient_ring(ring, (x,))
        M2, N2 = transport(M, ctx2), transport(N, ctx2)
        if N2 == transport(omega, ctx2):
            S = ctx2.ambient()
            c = S.m - ring_dim(ctx2)
            assert (i + c, restrict_scalars(M2), free_module(S, 1)) in calls["_series"]
            over_s += 1
        else:
            assert (i, M2, N2) in answered
            over_r2 += 1
    return len(questions), over_r2, over_s


# a Gorenstein quadric cone, standard graded: all three variables have
# degree 1, so ``graded_betti`` takes the first regular combination of them
# in ``homalg._combinations`` order
QUADRIC_CONE = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])

BETTI_RINGS = {
    **DUAL_RINGS,
    "xz - y^2": (QUADRIC_CONE, [1, 2], [["x", "y"], ["x"], ["y", "z"], ["x", "y", "z"]]),
}


def test_graded_betti_through_r_mod_x_matches_the_ring_route(monkeypatch):
    """``graded_betti`` against the minimal resolution over R, level by
    level as Betti tables, with ``complete``, for lengths 1..3 over the two
    monomial curves, the cone over the first and xz - y^2.  It resolves
    M/xM over R/(x) where the first regular x among the variables is regular
    on M, which a module of depth 0 never has: F/xF then resolves M/xM with
    the same graded Betti numbers."""
    resolved = []
    real = homalg.free_resolution
    monkeypatch.setattr(homalg, "free_resolution",
                        lambda M, length: resolved.append(M.ctx) or real(M, length))
    routes = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(BETTI_RINGS)))
        ctx, degrees, ideals = BETTI_RINGS[name]
        _, M = _draw_m(data, ctx, degrees, ideals)
        if not data.draw(st.integers(0, 2)):
            M = direct_sum(M, homalg.residue_field(ctx))[0]  # of depth 0
        length = data.draw(st.integers(1, 3))
        shifts, complete = homalg.graded_betti(M, length)
        # the last resolution is the one graded_betti read
        over_r_mod_x = resolved[-1] is not ctx
        res = real(M, length)
        assert [sorted(level) for level in shifts] == [sorted(level) for level in res.level_shifts]
        assert complete == res.complete
        deep = depth(M) >= 1
        if not deep:
            assert not over_r_mod_x
        elif ring_dim(ctx) == 1:
            # over a one-dimensional domain every nonzero x is regular on
            # a module of depth 1, whose one associated prime is 0
            assert over_r_mod_x
        routes[name, deep, over_r_mod_x] += 1

    check()
    # each ring takes R/(x), and each falls back to R at depth 0 (under
    # hypothesis 6.155, 28 of the 60 examples over R/(x), and 32 over R: 28
    # of depth 0, and 4 of positive depth over the cone, on which w, the x
    # taken, is a zero divisor)
    assert sum(n for (_, _, routed), n in routes.items() if routed) >= 20
    assert sum(n for (_, deep, _), n in routes.items() if not deep) >= 20
    assert {key[0] for key in routes if key[2]} == set(BETTI_RINGS)
    assert {key[0] for key in routes if not key[1]} == set(BETTI_RINGS)
