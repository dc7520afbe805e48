"""Finitely generated graded R-modules as subquotients of free modules.

A module is (im gens + im rels)/(im rels) inside R^rank with degree shifts.
Generators are stored exactly as passed (after homogeneity validation), so
matrix indices of maps stay stable; ``minimize`` produces the pruned copy
together with the comparison maps.  All values are immutable after
construction and safe to share between threads.  Modules are values: equal
(with equal hashes) exactly when ring object, rank, shifts, generators and
relations agree, and what is derived from a module is cached in its ring
under that value (``ring._memo``).
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import groebner
from .errors import (
    IllDefinedMap,
    InhomogeneousInput,
    InternalConsistencyError,
    InvalidInput,
    RingMismatch,
)
from .groebner import vec_degree, vec_is_zero
from .ring import _memo, render_poly


def zero_vec(ctx, rank):
    return (ctx.zero(),) * rank


def vec_combine(columns, coeffs, ctx, rank):
    """Sum of coeffs[j] * columns[j]."""
    return _combine(_entries(columns), coeffs, ctx, rank)


def _entries(columns):
    """Each column as its nonzero entries, ((position, entry), ...)."""
    return tuple(
        tuple((pos, f) for pos, f in enumerate(col) if f.terms) for col in columns
    )


def _combine(entries, coeffs, ctx, rank):
    """vec_combine over columns given by ``_entries``."""
    acc = list(zero_vec(ctx, rank))
    for u, col in zip(coeffs, entries):
        if u.terms:
            for pos, f in col:
                acc[pos] = acc[pos] + u * f
    return tuple(acc)


class GradedModule:
    __slots__ = ("ctx", "rank", "shifts", "gens", "rels", "_hash", "_entries")

    def __init__(self, ctx, rank, shifts, gens, rels):
        self.ctx = ctx
        self.rank = rank
        self.shifts = tuple(shifts)
        self.gens = tuple(tuple(col) for col in gens)
        self.rels = tuple(tuple(col) for col in rels)
        self._hash = None
        self._entries = None

    def _value(self):
        # the ring compares (and hashes) by identity
        return (self.ctx, self.rank, self.shifts, self.gens, self.rels)

    def __eq__(self, other):
        return isinstance(other, GradedModule) and self._value() == other._value()

    def __hash__(self):
        # computed once: hashing a Poly builds a frozenset of its terms
        if self._hash is None:
            self._hash = hash(self._value())
        return self._hash

    # -- basic structure ---------------------------------------------------

    def gen_degrees(self):
        def compute():
            degs = (vec_degree(col, self.shifts) for col in self.gens)
            return tuple(0 if d is None else d for d in degs)

        return _memo(self, "gen_degrees", compute)

    def rels_gb(self):
        return _memo(self, "rels_gb", lambda: groebner.buchberger(
            self.rels, self.ctx, self.rank, self.shifts))

    def full_gb(self):
        return _memo(self, "full_gb", lambda: groebner.buchberger(
            list(self.gens) + list(self.rels), self.ctx, self.rank, self.shifts))

    def is_zero(self):
        return _memo(self, "is_zero", lambda: all(
            self.rels_gb().contains(col) for col in self.gens))

    def coords_to_ambient(self, coords):
        """vec_combine(gens, coords), over the gens' once-computed entries.

        The entries sit on the object, not in the ring's cache: a cache key
        would hash the module's whole value, and most modules combined here
        (the direct sums of a Hom or tensor complex) are built, used once
        and dropped.
        """
        if self._entries is None:
            self._entries = _entries(self.gens)
        return _combine(self._entries, coords, self.ctx, self.rank)

    def element_is_zero(self, coords):
        return self.rels_gb().contains(self.coords_to_ambient(coords))

    def gens_engine(self):
        """The tracked engine of the generators modulo the relations,
        complete in every degree.  It is only read: it is never
        interreduced, and each reduction works on a copy of its vector."""
        return _memo(self, "gens_engine", lambda: groebner.tracked_engine(
            self.ctx, list(self.gens), self.rank, self.shifts, self.rels))

    def express_in_gens(self, vec):
        """Coordinates of an ambient vector over the generators, mod rels."""
        if self.gens:
            rem, coeffs = self.gens_engine().reduce_with_certificate(vec)
        else:
            rem, coeffs = self.rels_gb().normal_form(vec), ()
        if not vec_is_zero(rem):
            raise InvalidInput("vector does not lie in the module")
        return coeffs

    def column_relations(self):
        """Minimal generators of {u : gens*u = 0 in the module} over R."""
        if not self.gens:
            return []
        return list(_memo(self, "colrels", lambda: tuple(
            groebner.engine_syzygies(self.gens_engine()))))

    # -- numerical data ------------------------------------------------------

    def hilbert(self):
        def compute():
            bot = groebner.leadterm_hilbert(self.rels_gb(), self.rank, self.shifts)
            top = groebner.leadterm_hilbert(self.full_gb(), self.rank, self.shifts)
            num = dict(bot.numerator)
            groebner._add_series(num, top.numerator, sign=-1)
            return groebner.HilbertData(self.ctx, num)

        return _memo(self, "hilbert", compute)

    def hf(self, d):
        return self.hilbert().hf(d)

    def hf_window(self, lo, hi):
        return self.hilbert().hf_window(lo, hi)

    def dim(self):
        return self.hilbert().dim

    def __repr__(self):
        return (
            f"GradedModule(rank={self.rank}, gens={len(self.gens)}, "
            f"rels={len(self.rels)} over {self.ctx!r})"
        )

    def to_json(self):
        return {
            "ambient_rank": self.rank,
            "shifts": list(self.shifts),
            "gens": [[render_poly(f) for f in col] for col in self.gens],
            "rels": [[render_poly(f) for f in col] for col in self.rels],
        }


# ---------------------------------------------------------------------------
# constructors


def _validated_columns(ctx, cols, rank, shifts, drop_zero=False):
    out = []
    for col in cols:
        col = tuple(ctx.lift_poly(f) for f in col)
        if len(col) != rank:
            raise InvalidInput("column length does not match ambient rank")
        vec_degree(col, shifts)  # raises InhomogeneousInput on bad input
        if drop_zero and vec_is_zero(col):
            continue
        out.append(col)
    return out


def subquotient(ctx, gens, rels, shifts=None, rank=None):
    """The module (<gens> + <rels>)/<rels> in R^rank, canonicalized.

    Relations are replaced by their reduced Groebner basis; identically zero
    generator columns are dropped.
    """
    if not ctx.is_graded():
        raise InhomogeneousInput("module layer needs a graded ring context")
    if rank is None:
        rank = len(shifts) if shifts is not None else (len(gens[0]) if gens else 1)
    shifts = tuple(shifts) if shifts is not None else (0,) * rank
    gens = _validated_columns(ctx, gens, rank, shifts, drop_zero=True)
    rels = _validated_columns(ctx, rels, rank, shifts, drop_zero=True)
    gb = groebner.buchberger(rels, ctx, rank, shifts)
    mod = GradedModule(ctx, rank, shifts, gens, gb.vectors())
    _memo(mod, "rels_gb", lambda: gb)
    return mod


def free_module(ctx, rank, shifts=None):
    shifts = tuple(shifts) if shifts is not None else (0,) * rank
    gens = []
    for i in range(rank):
        col = [ctx.zero()] * rank
        col[i] = ctx.one()
        gens.append(tuple(col))
    return subquotient(ctx, gens, [], shifts, rank)


def cyclic_module(ctx, ideal_gens, twist_by=0):
    """R/I as a rank-1 subquotient."""
    gens = [(ctx.one(),)]
    rels = [(ctx.lift_poly(f),) for f in ideal_gens if f]
    return subquotient(ctx, gens, rels, (-twist_by,), 1)


def zero_module(ctx):
    return subquotient(ctx, [], [], (0,), 1)


def twist(M, a):
    """M(a): degrees shift down by a, HF_{M(a)}(d) = HF_M(d + a)."""
    return GradedModule(
        M.ctx, M.rank, tuple(s - a for s in M.shifts), M.gens, M.rels
    )


# ---------------------------------------------------------------------------
# maps


class ModuleMap:
    """Graded homomorphism given by images of source generators.

    ``mat[j]`` holds the coordinates of f(source gen j) over target gens.
    """

    __slots__ = ("source", "target", "mat", "degree")

    def __init__(self, source, target, mat, degree=0, check=True):
        if source.ctx is not target.ctx:
            if not source.ctx.same_polynomial_ring(target.ctx):
                raise RingMismatch("map between modules over different rings")
        self.source = source
        self.target = target
        self.mat = tuple(tuple(row) for row in mat)
        self.degree = degree
        if len(self.mat) != len(source.gens):
            raise IllDefinedMap("matrix width does not match source generators")
        for col in self.mat:
            if len(col) != len(target.gens):
                raise IllDefinedMap("matrix height does not match target generators")
        if check:
            self._check_well_defined()

    def _check_well_defined(self):
        src_deg = self.source.gen_degrees()
        tgt_deg = self.target.gen_degrees()
        for j, col in enumerate(self.mat):
            for i, entry in enumerate(col):
                if not entry:
                    continue
                if not entry.is_homogeneous():
                    raise IllDefinedMap("map entry is inhomogeneous")
                if entry.degree() != src_deg[j] + self.degree - tgt_deg[i]:
                    raise IllDefinedMap(
                        f"entry ({i},{j}) has degree {entry.degree()}, expected "
                        f"{src_deg[j] + self.degree - tgt_deg[i]}"
                    )
        for u in self.source.column_relations():
            w = self.apply_coords(u)
            if not self.target.element_is_zero(w):
                raise IllDefinedMap("source relation does not map to zero")

    def apply_coords(self, coords):
        """Image of an element given in source generator coordinates."""
        out = [self.target.ctx.zero()] * len(self.target.gens)
        for j, u in enumerate(coords):
            if not u:
                continue
            for i, entry in enumerate(self.mat[j]):
                if entry:
                    out[i] = out[i] + u * entry
        return tuple(out)

    def image_columns_ambient(self):
        return [self.target.coords_to_ambient(col) for col in self.mat]

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target is not self.source:
            if other.target.gens != self.source.gens:
                raise IllDefinedMap("maps are not composable")
        mat = [self.apply_coords(col) for col in other.mat]
        return ModuleMap(
            other.source, self.target, mat, self.degree + other.degree, check=False
        )


def identity_map(M):
    n = len(M.gens)
    mat = []
    for j in range(n):
        col = [M.ctx.zero()] * n
        col[j] = M.ctx.one()
        mat.append(col)
    return ModuleMap(M, M, mat, check=False)


def zero_map(M, N):
    return ModuleMap(M, N, [[N.ctx.zero()] * len(N.gens) for _ in M.gens], check=False)


def kernel(f):
    """Kernel of f, with its inclusion into the source."""
    src, tgt = f.source, f.target
    ctx = src.ctx
    if not tgt.gens or not src.gens:
        return src, identity_map(src)
    syz = image(f)[0].column_relations()
    # syzygy coordinates are over the source generators; a coordinate vector
    # whose ambient image vanishes identically is the zero element of the
    # source (a column relation), so it contributes nothing to the kernel
    kept, ker_cols = [], []
    for u in syz:
        amb = src.coords_to_ambient(u)
        if vec_is_zero(amb):
            continue
        kept.append(u)
        ker_cols.append(amb)
    K = GradedModule(ctx, src.rank, src.shifts, ker_cols, src.rels)
    _memo(K, "rels_gb", src.rels_gb)
    incl = ModuleMap(K, src, kept, check=False)
    return K, incl


def cokernel(f):
    """Cokernel of f, with the projection from the target."""
    tgt = f.target
    rels = list(tgt.rels) + f.image_columns_ambient()
    gb = groebner.buchberger(rels, tgt.ctx, tgt.rank, tgt.shifts)
    C = GradedModule(tgt.ctx, tgt.rank, tgt.shifts, tgt.gens, gb.vectors())
    _memo(C, "rels_gb", lambda: gb)
    proj = ModuleMap(tgt, C, identity_map(tgt).mat, check=False)
    return C, proj


def image(f):
    """Image of f as a submodule of the target, with its inclusion."""
    tgt = f.target
    cols = f.image_columns_ambient()
    I = GradedModule(tgt.ctx, tgt.rank, tgt.shifts, cols, tgt.rels)
    incl = ModuleMap(I, tgt, list(f.mat), check=False)
    return I, incl


def is_iso(f):
    """True iff the given degree-0 map has zero kernel and zero cokernel."""
    K, _ = kernel(f)
    if not K.is_zero():
        return False
    C, _ = cokernel(f)
    return C.is_zero()


# ---------------------------------------------------------------------------
# direct sums, tensor, Hom


def _block_sum(mods):
    """The block sum of modules over one ring, without the maps."""
    ctx = mods[0].ctx
    rank = sum(M.rank for M in mods)
    shifts = tuple(s for M in mods for s in M.shifts)
    gens, rels = [], []
    pos = 0
    for M in mods:
        before, after = (ctx.zero(),) * pos, (ctx.zero(),) * (rank - pos - M.rank)
        gens.extend(before + col + after for col in M.gens)
        rels.extend(before + col + after for col in M.rels)
        pos += M.rank
    return GradedModule(ctx, rank, shifts, gens, rels)


def direct_sum(*mods):
    """Block sum, with injections and projections."""
    S = _block_sum(mods)
    ctx = S.ctx

    def unit(n, pos):
        return [ctx.one() if p == pos else ctx.zero() for p in range(n)]

    total = len(S.gens)
    injections, projections = [], []
    start = 0
    for M in mods:
        g = len(M.gens)
        inj = [unit(total, start + j) for j in range(g)]
        proj = [unit(g, k - start) for k in range(total)]
        injections.append(ModuleMap(M, S, inj, check=False))
        projections.append(ModuleMap(S, M, proj, check=False))
        start += g
    return S, injections, projections


def tensor(M, N):
    """M (x) N presented by the block matrix (A (x) 1 | 1 (x) B)."""
    if M.ctx is not N.ctx:
        raise RingMismatch("tensor over different rings")
    ctx = M.ctx
    A = M.column_relations()
    B = N.column_relations()
    gm, gn = len(M.gens), len(N.gens)
    dm, dn = M.gen_degrees(), N.gen_degrees()
    rank = gm * gn
    shifts = tuple(dm[i] + dn[j] for i in range(gm) for j in range(gn))
    gens = []
    for k in range(rank):
        col = [ctx.zero()] * rank
        col[k] = ctx.one()
        gens.append(tuple(col))
    rels = []
    for u in A:  # u over M gens; u (x) e_j
        for j in range(gn):
            col = [ctx.zero()] * rank
            for i in range(gm):
                if u[i]:
                    col[i * gn + j] = u[i]
            rels.append(tuple(col))
    for v in B:
        for i in range(gm):
            col = [ctx.zero()] * rank
            for j in range(gn):
                if v[j]:
                    col[i * gn + j] = v[j]
            rels.append(tuple(col))
    T = subquotient(ctx, gens, rels, shifts, rank)
    return T


def tensor_map(f, N):
    """f (x) id_N for f a ModuleMap."""
    src = tensor(f.source, N)
    tgt = tensor(f.target, N)
    gn = len(N.gens)
    mat = []
    for j in range(len(f.source.gens)):
        for b in range(gn):
            col = [f.target.ctx.zero()] * (len(f.target.gens) * gn)
            for i, entry in enumerate(f.mat[j]):
                if entry:
                    col[i * gn + b] = entry
            mat.append(col)
    return ModuleMap(src, tgt, mat, f.degree, check=False), src, tgt


def _hom_sum(N, degs):
    """⊕_j N(d_j) = Hom(⊕ R(-d_j), N), block j at positions j * N.rank on."""
    parts = [twist(N, d) for d in degs]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return _block_sum(parts)


def _dual_map(N, src_degs, tgt_degs, rows):
    """Hom(d, N) for the matrix d: F' -> F given by its rows, one per basis
    element of F, each over the basis of F': the map ⊕ N(src) -> ⊕ N(tgt),
    phi -> phi o d."""
    ctx = N.ctx
    gn = len(N.gens)
    H0 = _hom_sum(N, src_degs)
    H1 = _hom_sum(N, tgt_degs)
    mat = []
    for row in rows:
        for a in range(gn):
            col = [ctx.zero()] * (len(tgt_degs) * gn)
            for k, c in enumerate(row):
                if c:
                    col[k * gn + a] = c
            mat.append(col)
    return ModuleMap(H0, H1, mat, check=False), H0, H1


def hom_module(M, N):
    """Hom_R(M, N) and a converter from its elements to ModuleMaps (cached).

    Computed as the kernel of Hom(F0, N) -> Hom(F1, N) for a presentation
    F1 -> F0 -> M (F0 on the stored generators, F1 on the column relations).
    """
    if M.ctx is not N.ctx:
        raise RingMismatch("Hom over different rings")
    return _memo(M, ("hom", N), lambda: _hom_module(M, N))


def _hom_module(M, N):
    if not M.gens:
        return zero_module(M.ctx), lambda coords, degree=0: zero_map(M, N)
    dm = M.gen_degrees()
    colrels = M.column_relations()
    if not colrels:
        return _hom_sum(N, dm), _hom_converter(M, N)
    degs = [vec_degree(u, dm) for u in colrels]
    h, _, _ = _dual_map(N, dm, degs, list(zip(*colrels)))
    H, incl = kernel(h)
    return H, _hom_converter(M, N, incl)


def _hom_converter(M, N, incl=None):
    gm, gn = len(M.gens), len(N.gens)

    def element_as_map(coords, degree=0):
        """Rebuild a Hom element (coordinates over H's generators) as a map."""
        if incl is not None:
            flat = incl.apply_coords(coords)
        else:
            flat = coords
        mat = []
        for j in range(gm):
            mat.append(tuple(flat[j * gn + a] for a in range(gn)))
        return ModuleMap(M, N, mat, degree, check=False)

    return element_as_map


def _hom_element(N, mat):
    """Ambient vector of the element of Hom(-, N) whose map has matrix mat
    (one column of N-generator coordinates per source generator)."""
    return tuple(f for col in mat for f in N.coords_to_ambient(col))


def hom_induced_post(f, K):
    """Hom(K, f): Hom(K, source) -> Hom(K, target) by postcomposition."""
    HS, conv_s = hom_module(K, f.source)
    HT, _ = hom_module(K, f.target)
    mat = []
    for j in range(len(HS.gens)):
        coords = [HS.ctx.zero()] * len(HS.gens)
        coords[j] = HS.ctx.one()
        phi = conv_s(coords, degree=HS.gen_degrees()[j])
        comp = f.compose(phi)  # K -> target
        mat.append(HT.express_in_gens(_hom_element(f.target, comp.mat)))
    return ModuleMap(HS, HT, mat, f.degree, check=False), HS, HT


# ---------------------------------------------------------------------------
# minimization


def minimize(M):
    """Minimal-generator copy of M with the comparison maps (proj, incl)."""
    ctx = M.ctx
    if not M.gens:
        return M, identity_map(M), identity_map(M)
    from . import homalg

    res = homalg.free_resolution(M, 0)
    Mmin = homalg.level_module(M, res, 0)
    incl_mat = []
    for i in res.kept:
        col = [ctx.zero()] * len(M.gens)
        col[i] = ctx.one()
        incl_mat.append(col)
    incl = ModuleMap(Mmin, M, incl_mat, check=False)
    sols, _ = lift_columns(Mmin, M.gens)
    if sols is None:
        raise InternalConsistencyError("minimization lost a generator")
    proj = ModuleMap(M, Mmin, sols, check=False)
    return Mmin, proj, incl


def lift_columns(M, vectors):
    """Each vector's coordinates over M's generators, by ``express_in_gens``:
    (coordinates, None), or (None, j) for the first vector j outside M."""
    out = []
    for j, vec in enumerate(vectors):
        try:
            out.append(M.express_in_gens(vec))
        except InvalidInput:
            return None, j
    return out, None


# ---------------------------------------------------------------------------
# annihilators and invariants


def annihilator(M):
    """ann(M) as a reduced Groebner basis (cached): the column relations of
    the one element v = (g_1, ..., g_n) of ⊕_j M(deg g_j), homogeneous of
    degree 0, since r*v = 0 exactly when r kills every generator."""
    return list(_memo(M, "annihilator", lambda: tuple(_annihilator(M))))


def _annihilator(M):
    ctx = M.ctx
    if not M.gens:
        return groebner.reduced_ideal_gb(ctx, [ctx.one()])
    B = _hom_sum(M, M.gen_degrees())
    v = tuple(f for col in M.gens for f in col)
    # the raw syzygies: the reduced basis is the same from any generating set
    eng = GradedModule(ctx, B.rank, B.shifts, [v], B.rels).gens_engine()
    return groebner.reduced_ideal_gb(ctx, [u[0] for u in eng.syzygy_vectors()])


def colon(i_gens, j_gens, ctx):
    """(I : J) = ann((I + J)/I) as a reduced Groebner basis over R (cached
    by value, with the annihilator)."""
    gens = [(f,) for f in j_gens if f]
    rels = [(f,) for f in i_gens if f]
    return annihilator(GradedModule(ctx, 1, (0,), gens, rels))


def _num(v):
    return "infinite" if v is math.inf else v


class InvariantReport(
    namedtuple("InvariantReport", "dim depth grade pd cod pd_ambient")
):
    __slots__ = ()

    def to_json(self):
        return {
            "dim": self.dim,
            "depth": self.depth,
            "grade": _num(self.grade),
            "pd": _num(self.pd),
            "cod": self.cod,
        }


def ring_module(ctx):
    return _memo(ctx, "ring_module", lambda: free_module(ctx, 1))


def ring_dim(ctx):
    return _memo(ctx, "ring_dim", lambda: ring_module(ctx).dim())


def ring_depth(ctx):
    from . import homalg

    return _memo(ctx, "ring_depth", lambda: homalg.depth(ring_module(ctx)))


def ring_is_cm(ctx):
    return ring_dim(ctx) == ring_depth(ctx)


def grade(M):
    """grade(M) = min{i : Ext^i(M, R) != 0}; +inf for the zero module.

    Over a Cohen-Macaulay context this equals dim R - dim M (Rees), which is
    how it is computed there; the Ext search is the general fallback.
    """
    if M.is_zero():
        return math.inf
    return _memo(M, "grade", lambda: _grade(M))


def _grade(M):
    ctx = M.ctx
    if ring_is_cm(ctx):
        return ring_dim(ctx) - M.dim()
    from . import homalg

    R1 = ring_module(ctx)
    for i in range(ring_dim(ctx) + 1):
        if not homalg.ext_vanishes(i, M, R1):
            return i
    raise InternalConsistencyError("grade exceeded dim R on a nonzero module")


def is_regular_sequence(ctx, seq):
    """Prefix test: grade(f_1..f_k) = k for every k."""
    for k in range(1, len(seq) + 1):
        Q = cyclic_module(ctx, seq[:k])
        if Q.is_zero():
            return False
        if grade(Q) != k:
            return False
    return True


def transport(M, ctx2):
    """Reinterpret a module annihilated by the new defining ideal (cached)."""
    return _memo(M, ("transport", ctx2), lambda: _transport(M, ctx2))


def _transport(M, ctx2):
    gens = [tuple(ctx2.lift_poly(f) for f in col) for col in M.gens]
    rels = [tuple(ctx2.lift_poly(f) for f in col) for col in M.rels]
    return subquotient(ctx2, gens, rels, M.shifts, M.rank)


def invariants(M):
    """dim/depth/grade/pd/cod, with the Auslander-Buchsbaum cross-check."""
    from . import homalg

    if M.is_zero():
        return InvariantReport(None, None, math.inf, None, None, 0)
    ctx = M.ctx
    d = M.dim()
    dep = homalg.depth(M)
    pd_amb = homalg.ambient_pd(M)
    m = ctx.m
    if pd_amb + dep != m:
        raise InternalConsistencyError(
            f"Auslander-Buchsbaum violated: pd_S={pd_amb}, depth={dep}, m={m}"
        )
    gr = grade(M)
    if ctx.defining:
        pd = homalg.projective_dimension(M)
    else:
        pd = pd_amb
    cod = ring_dim(ctx) - d
    if pd is not math.inf and gr > pd:
        raise InternalConsistencyError("grade exceeds finite projective dimension")
    return InvariantReport(d, dep, gr, pd, cod, pd_amb)
