"""Poly-level forms of the engine-vector API, for tests written with Poly.

Modules, maps, ideals and engines take and give ``Vec``s (see
``liaison.groebner``); these helpers flatten Poly columns with
``_to_internal`` and read results back with ``_polys``, the two conversions
the package keeps for parsing and printing.  An ideal is a tuple of Vecs of
rank 1, whose keys are the monomials: ``ideal`` makes one from Poly
generators, and ``ideal_polys`` and ``ideal_strings`` read one back.  ``vec_combine`` here is the Poly product sum the package used
before its vectors were engine vectors, and ``PolyMap`` with the functions
after it is the map layer as it was before a map's columns were Vecs: the
reference the Vec map layer is tested against.
"""

from liaison import groebner, modules
from liaison.errors import InhomogeneousInput
from liaison.groebner import _polys, _to_ideal, _to_internal
from liaison.modules import GradedModule, ModuleMap
from liaison.ring import Poly, mono_from_exponents, render_poly


def one(ctx):
    return Poly(ctx, {0: 1})


def monomial(ctx, exps, coeff=1):
    """coeff * x^exps, refused at the monomial limit unless coeff is 0 mod p."""
    coeff %= ctx.p
    return Poly(ctx, {mono_from_exponents(exps, ctx.weights): coeff} if coeff else {})


# ---------------------------------------------------------------------------
# ideals: tuples of Vecs of rank 1


def ideal(ctx, polys):
    """The ideal of these Poly generators, as the package holds it."""
    return _to_ideal(ctx, polys)


def ideal_polys(ctx, gens):
    return [Poly(ctx, dict(f)) for f in gens]


def ideal_strings(ctx, gens):
    return [render_poly(f) for f in ideal_polys(ctx, gens)]


def vec_is_zero(vec):
    return all(not f for f in vec)


def vec_degree(vec, shifts):
    """Common homogeneous degree of a Poly column, or None if zero."""
    deg = None
    for pos, f in enumerate(vec):
        if not f:
            continue
        if not f.is_homogeneous():
            raise InhomogeneousInput("vector component is not homogeneous")
        d = f.degree() + shifts[pos]
        if deg is None:
            deg = d
        elif deg != d:
            raise InhomogeneousInput("vector components have mixed degrees")
    return deg


def vec_combine(columns, coeffs, ctx, rank):
    """Sum of coeffs[j] * columns[j] over Poly columns, by Poly products."""
    acc = [ctx.zero()] * rank
    for u, col in zip(coeffs, columns):
        if u:
            for pos, f in enumerate(col):
                if f:
                    acc[pos] = acc[pos] + u * f
    return tuple(acc)


def flat(ctx, cols, rank):
    return [_to_internal(ctx, col, rank) for col in cols]


def buchberger(cols, ctx, rank, shifts=None):
    return groebner.buchberger(flat(ctx, cols, rank), ctx, rank, shifts)


def tracked_engine(ctx, cols, rank, shifts, extra=()):
    degrees = [vec_degree(col, shifts) or 0 for col in cols]
    return groebner.tracked_engine(ctx, flat(ctx, cols, rank), rank, shifts, degrees,
                                   flat(ctx, extra, rank))


def raw_syzygies(ctx, cols, rank, shifts, extra=()):
    """Every syzygy the engine of ``tracked_engine`` finds, before it keeps a
    minimal subset: a bare ``ModuleGB`` fed as ``groebner.tracked_engine``
    feeds one."""
    degrees = [vec_degree(col, shifts) or 0 for col in cols]
    eng = groebner.ModuleGB(ctx, rank, shifts, track=len(cols), track_shifts=degrees)
    eng.add_generators(flat(ctx, cols, rank) + flat(ctx, extra, rank)
                       + groebner._ring_columns(ctx, rank))
    return syzygy_vectors(eng)


def greedy_kept(cols, rels, ctx, shifts):
    """Reference for ``minimal_generator_indices``, one basis from scratch per
    column: in ascending degree, keep a column outside what is kept so far."""
    order = sorted(range(len(cols)), key=lambda i: (vec_degree(cols[i], shifts) or 0, i))
    kept = []
    for i in order:
        gb = buchberger([cols[j] for j in kept] + rels, ctx, len(shifts), shifts)
        if not contains(gb, cols[i]):
            kept.append(i)
    return sorted(kept)


def vectors(eng):
    return [_polys(eng.ctx, vec, eng.rank) for vec in eng.basis]


def syzygy_vectors(eng):
    return [_polys(eng.ctx, syz, eng.track) for syz in eng.syzygies]


def normal_form(eng, vec):
    return _polys(eng.ctx, eng.normal_form(_to_internal(eng.ctx, vec, eng.rank)), eng.rank)


def contains(eng, vec):
    return eng.contains(_to_internal(eng.ctx, vec, eng.rank))


def reduce_with_certificate(eng, vec):
    rem, coeffs = eng.reduce_with_certificate(_to_internal(eng.ctx, vec, eng.rank))
    return _polys(eng.ctx, rem, eng.rank), _polys(eng.ctx, coeffs, eng.track)


def module(ctx, rank, shifts, gens, rels):
    """GradedModule(...) of Poly columns, stored as given."""
    return GradedModule(ctx, rank, shifts, flat(ctx, gens, rank), flat(ctx, rels, rank))


def express(M, vec):
    """The Poly coordinates over M's generators of a Poly column."""
    return _polys(M.ctx, M.express_in_gens(_to_internal(M.ctx, vec, M.rank)), len(M._gens))


def column_relations(M):
    """``M.syzygies()`` as Poly coordinate tuples."""
    return [_polys(M.ctx, u, len(M._gens)) for u in M.syzygies()]


def diffs(ctx, res, k):
    """The k-th differential of a resolution as Poly columns."""
    return [_polys(ctx, u, res.rank(k - 1)) for u in res.diffs[k - 1]]


# ---------------------------------------------------------------------------
# maps of Poly coordinate columns


def coords(ctx, col, count):
    """A Poly coordinate tuple as a Vec of rank ``count``."""
    return _to_internal(ctx, col, count)


def poly_map(source, target, mat, degree=0, check=True):
    """ModuleMap(...) of Poly coordinate columns over the target's generators."""
    count = len(target._gens)
    return ModuleMap(source, target, [coords(target.ctx, col, count) for col in mat],
                     degree, check)


def matrix(f):
    """A map's columns as Poly coordinate tuples."""
    return [_polys(f.target.ctx, col, len(f.target._gens)) for col in f.cols]


def unit(ctx, n, i):
    """The Poly coordinates of generator i of n."""
    return tuple(one(ctx) if k == i else ctx.zero() for k in range(n))


class PolyMap:
    """A map as the package held it before: ``mat[j]`` the Poly coordinates
    of the image of source generator j over the target's generators."""

    def __init__(self, source, target, mat, degree=0):
        self.source, self.target, self.degree = source, target, degree
        self.mat = tuple(tuple(col) for col in mat)

    @classmethod
    def of(cls, f):
        return cls(f.source, f.target, matrix(f), f.degree)

    def apply_coords(self, coords):
        out = [self.target.ctx.zero()] * len(self.target._gens)
        for j, u in enumerate(coords):
            if not u:
                continue
            for i, entry in enumerate(self.mat[j]):
                if entry:
                    out[i] = out[i] + u * entry
        return tuple(out)

    def image_columns_ambient(self):
        T = self.target
        return [vec_combine(T.gens, col, T.ctx, T.rank) for col in self.mat]

    def compose(self, other):
        mat = [self.apply_coords(col) for col in other.mat]
        return PolyMap(other.source, self.target, mat, self.degree + other.degree)

    def to_map(self):
        return poly_map(self.source, self.target, self.mat, self.degree, check=False)


def kernel_matrix(f):
    """The columns of the kernel's inclusion of a PolyMap: the column
    relations of its image, less those that vanish in the source."""
    src, tgt = f.source, f.target
    if not tgt._gens or not src._gens:
        return [unit(src.ctx, len(src._gens), j) for j in range(len(src._gens))]
    I = module(src.ctx, tgt.rank, tgt.shifts, f.image_columns_ambient(), tgt.rels)
    return [u for u in column_relations(I)
            if not vec_is_zero(vec_combine(src.gens, u, src.ctx, src.rank))]


def dual_map(N, src_degs, tgt_degs, rows):
    """Hom(d, N) for d given by its rows of Poly entries."""
    gn = len(N._gens)
    mat = []
    for entries in rows:
        for a in range(gn):
            col = [N.ctx.zero()] * (len(tgt_degs) * gn)
            for k, c in enumerate(entries):
                if c:
                    col[k * gn + a] = c
            mat.append(col)
    return PolyMap(modules._hom_sum(N, src_degs), modules._hom_sum(N, tgt_degs), mat)


def tensor_map(f, N):
    """f (x) id_N for a PolyMap f."""
    src = modules.tensor(f.source, N)
    tgt = modules.tensor(f.target, N)
    gn = len(N._gens)
    mat = []
    for j in range(len(f.source._gens)):
        for b in range(gn):
            col = [f.target.ctx.zero()] * (len(f.target._gens) * gn)
            for i, entry in enumerate(f.mat[j]):
                if entry:
                    col[i * gn + b] = entry
            mat.append(col)
    return PolyMap(src, tgt, mat, f.degree)


def hom_converter(M, N, incl=None):
    """Hom elements (Poly coordinates over H's generators) as PolyMaps, for
    ``incl`` the PolyMap of H into ⊕ N(d_j)."""
    gm, gn = len(M._gens), len(N._gens)

    def element_as_map(coords, degree=0):
        flat = incl.apply_coords(coords) if incl is not None else coords
        mat = [tuple(flat[j * gn + a] for a in range(gn)) for j in range(gm)]
        return PolyMap(M, N, mat, degree)

    return element_as_map


def hom_module(M, N):
    """Hom(M, N) as the kernel of Hom(F0, N) -> Hom(F1, N), with the
    reference converter; M has generators."""
    dm = M.gen_degrees()
    colrels = column_relations(M)
    if not colrels:
        return modules._hom_sum(N, dm), hom_converter(M, N)
    degs = [vec_degree(u, dm) for u in colrels]
    rows = [tuple(u[i] for u in colrels) for i in range(len(dm))]
    H, incl = modules.kernel(dual_map(N, dm, degs, rows).to_map())
    return H, hom_converter(M, N, PolyMap.of(incl))


def hom_induced_post(f, K):
    """Hom(K, f) for a PolyMap f whose source and K have generators."""
    HS, conv_s = hom_module(K, f.source)
    HT, _ = hom_module(K, f.target)
    mat = []
    for j, d in enumerate(HS.gen_degrees()):
        comp = f.compose(conv_s(unit(HS.ctx, len(HS._gens), j), degree=d))
        T = f.target
        stacked = sum((vec_combine(T.gens, col, T.ctx, T.rank) for col in comp.mat), ())
        mat.append(express(HT, stacked))
    return PolyMap(HS, HT, mat, f.degree)


def chain_matrices(ctx, maps, res):
    """``lift_chain_map``'s matrices as Poly columns, over the target's
    resolution ``res``."""
    return [[_polys(ctx, col, res.rank(k)) for col in level] for k, level in enumerate(maps)]
