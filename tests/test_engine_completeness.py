"""Dual-route checks of the engine core: syzygy completeness and lift
correctness against degree-by-degree linear algebra, and the module lifts
read from one stored engine against the per-call engines they replace."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from liaison.errors import InternalConsistencyError, InvalidInput
from liaison.groebner import (
    ModuleGB,
    lift_through,
    syzygies,
    tracked_engine,
    vec_degree,
    vec_is_zero,
)
from liaison.modules import subquotient, vec_combine
from liaison.ring import make_ring

from tests.oracle import (
    degree_slice_rank,
    hf_of_quotient,
    monomials_of_degree,
    random_homogeneous,
)


def _random_matrix(ctx, rows, cols, col_degs, seed):
    """Columns of homogeneous vectors with prescribed column degrees."""
    out = []
    state = seed
    for j in range(cols):
        col = []
        for i in range(rows):
            state += 17
            col.append(random_homogeneous(ctx, col_degs[j], state))
        out.append(tuple(col))
    return out


def _syzygy_slice_dim(ctx, syz, width, shifts, d):
    """Dimension of the degree-d slice of the syzygy submodule of R^width."""
    if not syz:
        return 0
    base = degree_slice_rank(ctx, width, shifts, [], d)  # J*F only
    full = degree_slice_rank(ctx, width, shifts, syz, d)
    return full - base


def _kernel_slice_dim(ctx, cols, rank, shifts, col_degs, d):
    """dim ker(A_d) = dim (source slice) - dim (image slice), all mod J."""
    src = 0
    for cd in col_degs:
        src += hf_of_quotient(ctx, 1, (0,), [], d - cd)
    im_full = degree_slice_rank(ctx, rank, shifts, cols, d)
    im_base = degree_slice_rank(ctx, rank, shifts, [], d)
    return src - (im_full - im_base)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(1, 2**20), quotient=st.booleans())
def test_syzygies_are_complete(seed, quotient):
    defining = ["x*y"] if quotient else []
    ctx = make_ring(101, ["x", "y"], defining)
    col_degs = [1, 2, 2]
    cols = _random_matrix(ctx, 1, 3, col_degs, seed)
    cols = [c for c in cols if not vec_is_zero(c)]
    if not cols:
        return
    degs = [c[0].homogeneous_degree() for c in cols]
    syz = syzygies(cols, ctx, 1, (0,))
    # soundness: every generator annihilates the matrix mod J
    for u in syz:
        acc = vec_combine(cols, u, ctx, 1)
        gb = __import__("liaison.groebner", fromlist=["buchberger"]).buchberger(
            [], ctx, 1
        )
        assert gb.contains(acc)
    # completeness: the generated submodule fills the kernel degreewise
    for d in range(max(degs), max(degs) + 4):
        got = _syzygy_slice_dim(ctx, syz, len(cols), tuple(degs), d)
        want = _kernel_slice_dim(ctx, cols, 1, (0,), degs, d)
        assert got == want, (d, got, want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(1, 2**20), quotient=st.booleans())
def test_lift_recovers_planted_solutions(seed, quotient):
    defining = ["x^2 - y^2"] if quotient else []
    ctx = make_ring(101, ["x", "y"], defining)
    A = _random_matrix(ctx, 2, 2, [1, 2], seed)
    X0 = [random_homogeneous(ctx, 2, seed + 3), random_homogeneous(ctx, 1, seed + 5)]
    B = [vec_combine(A, X0, ctx, 2)]
    if vec_is_zero(B[0]):
        return
    sol, bad = lift_through(A, B, ctx, 2, (0, 0))
    assert bad is None
    recomposed = vec_combine(A, sol[0], ctx, 2)
    diff = tuple(a - b for a, b in zip(recomposed, B[0]))
    gb = __import__("liaison.groebner", fromlist=["buchberger"]).buchberger(
        [], ctx, 2
    )
    assert gb.contains(diff)


def test_syzygy_of_koszul_over_three_variables():
    # the full Koszul relations of (x, y, z): three generators, no more
    ctx = make_ring(101, ["x", "y", "z"])
    cols = [(ctx.var(0),), (ctx.var(1),), (ctx.var(2),)]
    syz = syzygies(cols, ctx, 1, (0,))
    assert len(syz) == 3
    for d in range(2, 6):
        got = _syzygy_slice_dim(ctx, syz, 3, (1, 1, 1), d)
        want = _kernel_slice_dim(ctx, cols, 1, (0,), [1, 1, 1], d)
        assert got == want


# -- lifts from engines completed only up to the degree of B ------------------

LIFT_RINGS = [
    make_ring(101, ["x", "y", "z"]),
    make_ring(101, ["x", "y", "z"], ["x*z - y^2"]),
    make_ring(101, ["x", "y", "z"], ["x*z - y^2"], weights=[1, 2, 3]),
]
LIFT_SHIFTS = (0, 1)


@contextmanager
def _treated_pair_degrees():
    """Collect the degree of every pair a tracked engine treats."""
    degrees = []
    s_vector = ModuleGB._s_vector

    def counted(self, i, j, lcm):
        if self.track:
            pos = self.leads[i][0]
            degrees.append((lcm >> self.ctx._pk.shift) + self.shifts[pos])
        return s_vector(self, i, j, lcm)

    ModuleGB._s_vector = counted
    try:
        yield degrees
    finally:
        ModuleGB._s_vector = s_vector


def _full_lift(a_cols, b_cols, ctx, extra):
    """lift_through's answer read from a fully completed tracked engine."""
    eng = tracked_engine(ctx, a_cols, 2, LIFT_SHIFTS, extra)
    out = []
    for j, col in enumerate(b_cols):
        rem, coeffs = eng.reduce_with_certificate(col)
        if not vec_is_zero(rem):
            return None, j
        out.append(coeffs)
    return out, None


def _vector(ctx, degree, seed):
    return tuple(random_homogeneous(ctx, degree - s, seed + 7 * s) for s in LIFT_SHIFTS)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_truncated_lift_matches_full_engine(data):
    ctx = data.draw(st.sampled_from(LIFT_RINGS))
    seed = data.draw(st.integers(1, 2**20))
    a_degs = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    a_cols = [_vector(ctx, d, seed + 31 * k) for k, d in enumerate(a_degs)]
    extra = [_vector(ctx, d, seed + 97 * k)
             for k, d in enumerate(data.draw(st.lists(st.integers(2, 4), max_size=1)))]
    zero = (ctx.zero(),) * len(LIFT_SHIFTS)
    b_cols = []
    for k, kind in enumerate(data.draw(st.lists(
            st.sampled_from(["span", "zero", "outside"]), min_size=1, max_size=4))):
        d = data.draw(st.integers(1, 5))
        if kind == "zero":
            b_cols.append(zero)
        elif kind == "outside":
            b_cols.append(_vector(ctx, d, seed + 13 * k + 5))
        else:
            coeffs = [random_homogeneous(ctx, d - a, seed + 11 * k + a) if d >= a
                      else ctx.zero() for a in a_degs]
            b_cols.append(vec_combine(a_cols, coeffs, ctx, 2))
    with _treated_pair_degrees() as treated:
        got = lift_through(a_cols, b_cols, ctx, 2, LIFT_SHIFTS, extra)
    assert got == _full_lift(a_cols, b_cols, ctx, extra)
    top = max((vec_degree(c, LIFT_SHIFTS) for c in b_cols if not vec_is_zero(c)),
              default=None)
    assert all(top is not None and d <= top for d in treated), (treated, top)


def test_lift_treats_no_pair_above_the_degree_of_b():
    # the coprime leads x and y pair in degree 2; B lives in degree 1
    ctx = LIFT_RINGS[0]
    x, y, z = (ctx.var(k) for k in range(3))
    with _treated_pair_degrees() as treated:
        sol, bad = lift_through([(x,), (y,)], [(x - y,), (ctx.zero(),)], ctx, 1, (0,))
    assert bad is None and sol == [(ctx.one(), -ctx.one()), (ctx.zero(), ctx.zero())]
    assert treated == []
    with _treated_pair_degrees() as treated:
        assert lift_through([(x,), (y,)], [(z,)], ctx, 1, (0,)) == (None, 0)
        assert lift_through([(x,), (y,)], [], ctx, 1, (0,)) == ([], None)
    assert treated == []
    # an engine complete up to degree 1 cannot decide degree 2
    eng = tracked_engine(ctx, [(x,), (y,)], 1, (0,), limit=1)
    with pytest.raises(InternalConsistencyError):
        eng.reduce_with_certificate((x * y,))


# -- module lifts read from the module's one fully completed engine ----------

# (ring, degrees of generators and relations, degrees of test vectors)
MODULE_RINGS = [
    (LIFT_RINGS[0], range(1, 4), range(0, 6)),
    (LIFT_RINGS[1], range(1, 4), range(0, 6)),
    (make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
               weights=[3, 4, 5]), range(3, 9), range(3, 13)),
]


def _random_module(data):
    """A random subquotient of rank 2 and a list of test vectors: elements
    of the module, vectors that may lie outside it, and the zero vector."""
    ctx, gen_range, vec_range = data.draw(st.sampled_from(MODULE_RINGS))
    seed = data.draw(st.integers(1, 2**20))
    gen_degs = data.draw(st.lists(st.sampled_from(gen_range), min_size=1, max_size=3))
    rel_degs = data.draw(st.lists(st.sampled_from(gen_range), max_size=2))
    gens = [_vector(ctx, d, seed + 31 * k) for k, d in enumerate(gen_degs)]
    rels = [_vector(ctx, d, seed + 97 * k) for k, d in enumerate(rel_degs)]
    M = subquotient(ctx, gens, rels, LIFT_SHIFTS)
    vectors = [(ctx.zero(),) * len(LIFT_SHIFTS)]
    for k, d in enumerate(data.draw(st.lists(st.sampled_from(vec_range), max_size=4))):
        if data.draw(st.booleans()):
            cols = list(M.gens) + list(M.rels)
            coeffs = [random_homogeneous(ctx, d - vec_degree(c, LIFT_SHIFTS),
                                         seed + 11 * k + j)
                      for j, c in enumerate(cols)]
            vectors.append(vec_combine(cols, coeffs, ctx, 2))
        else:
            vectors.append(_vector(ctx, d, seed + 13 * k + 5))
    return M, vectors


def _lift_or_none(M, vec):
    try:
        return M.express_in_gens(vec)
    except InvalidInput:
        return None


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_module_lifts_match_per_call_lifts(data):
    M, vectors = _random_module(data)
    if not M.gens:
        return
    by_degree = sorted(vectors, key=lambda v: vec_degree(v, LIFT_SHIFTS) or 0)
    for vec in by_degree + by_degree[::-1]:
        sol, _ = lift_through(list(M.gens), [vec], M.ctx, M.rank, M.shifts,
                              extra=M.rels)
        assert _lift_or_none(M, vec) == (sol and sol[0])
    assert M.column_relations() == syzygies(list(M.gens), M.ctx, M.rank, M.shifts,
                                            extra=M.rels)


def test_module_lifts_and_relations_build_one_tracked_engine():
    ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    M = subquotient(ctx, [(x, ctx.zero()), (y, z), (z, x)], [(y * y, x * z)], (0, 0))
    built = []
    init = ModuleGB.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.track:
            built.append(self)

    ModuleGB.__init__ = counted
    try:
        for vec in [(x, ctx.zero()), (y, z), (x + y, z), (x * x, x * z), (x * y, y * z)]:
            M.express_in_gens(vec)
        M.column_relations()
    finally:
        ModuleGB.__init__ = init
    assert len(built) == 1 and built[0] is M.gens_engine()
