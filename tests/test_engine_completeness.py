"""Dual-route checks of the engine core: syzygy completeness and lift
correctness against degree-by-degree linear algebra, and the module lifts
read from one stored engine against membership in the module's bases."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from liaison.errors import InternalConsistencyError, InvalidInput
from liaison.groebner import ModuleGB, _to_internal, buchberger
from liaison.homalg import free_resolution, level_module, lift_chain_map
from liaison.linkage import canonical_module
from liaison.modules import (
    cyclic_module,
    free_module,
    identity_map,
    image,
    kernel,
    minimize,
    subquotient,
    zero_module,
)
from liaison.ring import make_ring, parse_poly

from tests.polyref import (
    column_relations,
    contains,
    express,
    greedy_kept,
    module,
    poly_map,
    raw_syzygies,
    syzygy_vectors,
    tracked_engine,
    vec_combine,
    vec_degree,
    vec_is_zero,
)
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
    degs = [vec_degree(c, (0,)) for c in cols]
    syz = column_relations(module(ctx, 1, (0,), cols, ()))
    # soundness: every generator annihilates the matrix mod J
    for u in syz:
        acc = vec_combine(cols, u, ctx, 1)
        assert contains(buchberger([], ctx, 1), acc)
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
    sol = express(module(ctx, 2, (0, 0), A, ()), B[0])
    recomposed = vec_combine(A, sol, ctx, 2)
    diff = tuple(a - b for a, b in zip(recomposed, B[0]))
    assert contains(buchberger([], ctx, 2), diff)


def test_syzygy_of_koszul_over_three_variables():
    # the full Koszul relations of (x, y, z): three generators, no more
    ctx = make_ring(101, ["x", "y", "z"])
    cols = [(ctx.var(0),), (ctx.var(1),), (ctx.var(2),)]
    syz = column_relations(module(ctx, 1, (0,), cols, ()))
    assert len(syz) == 3
    for d in range(2, 6):
        got = _syzygy_slice_dim(ctx, syz, 3, (1, 1, 1), d)
        want = _kernel_slice_dim(ctx, cols, 1, (0,), [1, 1, 1], d)
        assert got == want


# -- a truncated engine --------------------------------------------------------


def test_truncated_engine_refuses_a_vector_above_its_limit():
    # an engine complete up to degree 1 cannot decide degree 2
    ctx = make_ring(101, ["x", "y", "z"])
    x, y = ctx.var(0), ctx.var(1)
    eng = ModuleGB(ctx, 1, (0,), track=2, track_shifts=(1, 1))
    # the first two vectors fed are the tracked columns
    cols = [_to_internal(ctx, (x,), 1), _to_internal(ctx, (y,), 1)]
    eng.add_generators(cols, limit=1)
    with pytest.raises(InternalConsistencyError):
        eng.reduce_with_certificate(_to_internal(ctx, (x * y,), 1))


# -- module lifts read from the module's one fully completed engine ----------

SHIFTS = (0, 1)

# (ring, degrees of generators and relations, degrees of test vectors)
MODULE_RINGS = [
    (make_ring(101, ["x", "y", "z"]), range(1, 4), range(0, 6)),
    (make_ring(101, ["x", "y", "z"], ["x*z - y^2"]), range(1, 4), range(0, 6)),
    (make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
               weights=[3, 4, 5]), range(3, 9), range(3, 13)),
]


def _vector(ctx, degree, seed):
    return tuple(random_homogeneous(ctx, degree - s, seed + 7 * s) for s in SHIFTS)


def _random_module(data):
    """A random subquotient of rank 2 and a list of test vectors: elements
    of the module, vectors that may lie outside it, and the zero vector."""
    ctx, gen_range, vec_range = data.draw(st.sampled_from(MODULE_RINGS))
    seed = data.draw(st.integers(1, 2**20))
    gen_degs = data.draw(st.lists(st.sampled_from(gen_range), min_size=1, max_size=3))
    rel_degs = data.draw(st.lists(st.sampled_from(gen_range), max_size=2))
    gens = [_vector(ctx, d, seed + 31 * k) for k, d in enumerate(gen_degs)]
    rels = [_vector(ctx, d, seed + 97 * k) for k, d in enumerate(rel_degs)]
    M = subquotient(ctx, gens, rels, SHIFTS)
    vectors = [(ctx.zero(),) * len(SHIFTS)]
    for k, d in enumerate(data.draw(st.lists(st.sampled_from(vec_range), max_size=4))):
        if data.draw(st.booleans()):
            cols = list(M.gens) + list(M.rels)
            coeffs = [random_homogeneous(ctx, d - vec_degree(c, SHIFTS),
                                         seed + 11 * k + j)
                      for j, c in enumerate(cols)]
            vectors.append(vec_combine(cols, coeffs, ctx, 2))
        else:
            vectors.append(_vector(ctx, d, seed + 13 * k + 5))
    return M, vectors


def _lift_or_none(M, vec):
    try:
        return express(M, vec)
    except InvalidInput:
        return None


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_module_lifts_match_per_call_lifts(data):
    # a lift recombines to the vector modulo the relations, and a vector has
    # none exactly when the basis of generators and relations leaves it out
    M, vectors = _random_module(data)
    by_degree = sorted(vectors, key=lambda v: vec_degree(v, SHIFTS) or 0)
    for vec in by_degree + by_degree[::-1]:
        coeffs = _lift_or_none(M, vec)
        assert (coeffs is None) == (not contains(M.full_gb(), vec))
        if coeffs is not None:
            combined = vec_combine(M.gens, coeffs, M.ctx, M.rank)
            assert contains(M.rels_gb(), tuple(a - b for a, b in zip(combined, vec)))
    fresh = tracked_engine(M.ctx, list(M.gens), M.rank, M.shifts, M.rels)
    assert column_relations(M) == syzygy_vectors(fresh)


@pytest.mark.parametrize("which", ["canonical", "subquotient"])
def test_stored_engine_keeps_only_the_minimal_syzygies(which):
    # over the ring of (t^3, t^4, t^5) the engines of the canonical module
    # and of a rank-2 subquotient find more syzygies than generate: the
    # stored engine holds the minimal ones, those the greedy selection keeps
    ctx = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                    weights=[3, 4, 5])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    if which == "canonical":
        M = canonical_module(ctx)
    else:
        M = module(ctx, 2, (0, 1), [(y, x), (z, y), (x * x, z)], [(x * y, x * x)])
    gens, rels = list(M.gens), list(M.rels)
    syz = raw_syzygies(ctx, gens, M.rank, M.shifts, rels)
    kept = [syz[k] for k in greedy_kept(syz, [], ctx, M.gen_degrees())]
    assert len(kept) < len(syz)
    assert syzygy_vectors(M.gens_engine()) == column_relations(M) == kept


def test_modules_without_generators_lift_only_their_zero_vectors():
    ctx = MODULE_RINGS[1][0]
    x, y, zero = ctx.var(0), ctx.var(1), ctx.zero()
    Z = zero_module(ctx)
    assert express(Z, (zero,)) == ()
    with pytest.raises(InvalidInput, match="does not lie in the module"):
        express(Z, (x,))
    M = subquotient(ctx, [], [(x, zero)], SHIFTS)
    assert express(M, (zero, zero)) == ()
    assert express(M, (x * y, zero)) == ()
    with pytest.raises(InvalidInput, match="does not lie in the module"):
        express(M, (y, zero))


@contextmanager
def _tracked_engines():
    """Collect every tracked engine built inside the block."""
    built = []
    init = ModuleGB.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.track:
            built.append(self)

    ModuleGB.__init__ = counted
    try:
        yield built
    finally:
        ModuleGB.__init__ = init


def test_module_lifts_and_relations_build_one_tracked_engine():
    ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    M = subquotient(ctx, [(x, ctx.zero()), (y, z), (z, x)], [(y * y, x * z)], (0, 0))
    with _tracked_engines() as built:
        for vec in [(x, ctx.zero()), (y, z), (x + y, z), (x * x, x * z), (x * y, y * z)]:
            express(M, vec)
        column_relations(M)
    assert len(built) == 1 and built[0] is M.gens_engine()


def test_minimize_and_level_zero_chain_lift_build_one_tracked_engine():
    ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    # the third generator is x times the first, so minimize drops it
    M = subquotient(ctx, [(x, y), (z, x), (x * x, x * y)], [(y * y, x * z)], (0, 0))
    with _tracked_engines() as built:
        Mmin, _, _ = minimize(M)
        maps = lift_chain_map(identity_map(M), 0)
    assert len(Mmin.gens) == 2
    assert maps == [list(identity_map(Mmin).cols)]
    assert len(built) == 1 and built[0] is Mmin.gens_engine()


@pytest.mark.parametrize("quotient", [False, True])
def test_resolution_levels_and_chain_lifts_share_one_engine_per_level(quotient):
    # level k's engine gives level k + 1 and lifts chain maps through level
    # k.  Over S the twisted cubic's resolution stops at level 2, so resolving
    # to length 3 builds the engine of every nonzero level; over the quotient
    # ring resolutions do not stop, and resolving to length 4 builds the
    # engines of levels 0 to 3.
    if quotient:
        ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])  # a cold cache
        M, length, engines = cyclic_module(ctx, [ctx.var(0), ctx.var(1)]), 4, 4
    else:
        ctx = make_ring(101, ["x", "y", "z", "w"])  # a cold cache
        cubic = [parse_poly(ctx, f) for f in ("x*z - y^2", "y*w - z^2", "x*w - y*z")]
        M, length, engines = cyclic_module(ctx, cubic), 3, 3
    with _tracked_engines() as resolving:
        res = free_resolution(M, length)
    assert len(resolving) == engines
    assert all(eng is level_module(M, res, k).gens_engine()
               for k, eng in enumerate(resolving))
    with _tracked_engines() as lifting:
        maps = lift_chain_map(identity_map(M), 3)
    assert lifting == [] and len(maps) == 4


def test_kernel_reads_the_engine_of_its_image():
    ctx = make_ring(101, ["x", "y", "z"], ["x*z - y^2"])  # a cold cache
    x, y, z = (ctx.var(k) for k in range(3))
    f = poly_map(free_module(ctx, 3, (1, 1, 1)), cyclic_module(ctx, [x * x]),
                 [(x,), (y,), (z,)])
    relations = column_relations(image(f))
    with _tracked_engines() as built:
        K, incl = kernel(f)
    assert built == []
    # over a free source the kernel's generators are the relations themselves
    assert list(K.gens) == relations and len(relations) == 5
