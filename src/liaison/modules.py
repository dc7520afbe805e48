"""Finitely generated graded R-modules as subquotients of free modules.

A module is (im gens + im rels)/(im rels) inside R^rank with degree shifts,
its generators and relations ``Vec``s of its rank (see ``groebner``), as is
every ambient vector: ``subquotient`` parses ``Poly`` columns once, and
``gens``, ``rels`` and ``to_json`` print them back.  An ideal is a tuple of
Vecs of rank 1 (``annihilator`` and ``colon`` give one, ``_cyclic_module``
takes one); the exported ``cyclic_module`` takes ``Poly`` generators.  A
block of a direct sum is a key shift.  Coordinates over n generators (a
map's columns, the ``syzygies`` that are a resolution's differentials, the
lifts of ``express_in_gens``) are Vecs of rank n, generator j under the key
prefix n - 1 - j, so a tensor, Hom or dual map is built by moving keys
(``_spread``, ``_split``) and applied by ``vec_combine``; no ``Poly``
product is formed.  Generators are stored exactly as passed, so the column
indices of maps stay stable; ``minimize`` produces the pruned copy with the
comparison maps.  Values are immutable and safe to share between threads.
Modules are values: equal (with equal hashes) exactly when ring object,
rank, shifts, generators and relations agree, and what is derived from a
module is cached in its ring under that value (``ring._memo``).
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
from .groebner import (
    Vec, _axpy, _lead_degree, _poly_mul_1mt, _polys, _to_ideal, _to_internal,
)
from .ring import _LIMIT, _memo, _overflow, render_poly


def vec_combine(columns, coords, ctx):
    """Sum of u_j * columns[j] for the coordinate Vec u of rank
    ``len(columns)`` (entry j under the key prefix ``len(columns) - 1 - j``,
    as ``syzygies`` are keyed), the columns Vecs of one rank, by ``_axpy``;
    per column, a product at the monomial limit is refused, as by
    ``Poly.__mul__``, before a key could carry into the position."""
    pk, p = ctx._pk, ctx.p
    span, mask = pk.span, pk.top - 1
    last = len(columns) - 1
    parts = {}
    for key, c in coords.items():
        parts.setdefault(last - (key >> span), {})[key & mask] = c
    acc = Vec()
    for j in sorted(parts):
        col, u = columns[j], parts[j]
        if col:
            deg = (max(u) >> pk.shift) + (max(k & mask for k in col) >> pk.shift)
            if deg >= _LIMIT:
                raise _overflow(deg)
            for mono, c in u.items():
                _axpy(acc, p - c, mono, col, p)
    return acc


def _moved(vec, up):
    """The Vec with every key moved up by ``up``, a multiple of ``1 << span``."""
    return Vec(zip(map(up.__add__, vec), vec.values()))


def _stacked(vecs, rank, span):
    """The vectors of rank ``rank`` one after the other, as one Vec of rank
    ``len(vecs) * rank``."""
    out = Vec()
    for j, vec in enumerate(vecs):
        up = ((len(vecs) - 1 - j) * rank) << span
        out.update({key + up: c for key, c in vec.items()})
    return out


def _transpose(cols, count, span):
    """The ``count`` rows, Vecs of rank ``len(cols)``, of the matrix whose
    columns are the Vecs ``cols`` of rank ``count``; no columns, no rows."""
    if not cols:
        return []
    mask = (1 << span) - 1
    rows = [Vec() for _ in range(count)]
    for j, col in enumerate(cols):
        prefix = (len(cols) - 1 - j) << span
        for key, c in col.items():
            rows[count - 1 - (key >> span)][prefix | (key & mask)] = c
    return rows


def _spread(vec, n, i, span):
    """The Vec whose entry k * n + i is entry k of ``vec``, the others zero:
    ``n`` times its rank."""
    mask = (1 << span) - 1
    low = n - 1 - i
    return Vec({(((key >> span) * n + low) << span) | (key & mask): c
                for key, c in vec.items()})


def _split(vec, count, r, span):
    """The ``count`` blocks, Vecs of rank ``r``, of a Vec of rank ``count * r``."""
    mask = (1 << span) - 1
    blocks = [Vec() for _ in range(count)]
    for key, c in vec.items():
        pre = key >> span
        blocks[count - 1 - pre // r][((pre % r) << span) | (key & mask)] = c
    return blocks


class GradedModule:
    __slots__ = ("ctx", "rank", "shifts", "_gens", "_rels", "_hash", "_degs")

    def __init__(self, ctx, rank, shifts, gens, rels):
        """Generators and relations are Vecs of rank ``rank``, homogeneous."""
        self.ctx = ctx
        self.rank = rank
        self.shifts = tuple(shifts)
        self._gens = tuple(gens)
        self._rels = tuple(rels)
        self._hash = None
        self._degs = None

    # the generators and relations as columns of Poly, built on every read
    gens = property(lambda self: tuple(_polys(self.ctx, v, self.rank) for v in self._gens))
    rels = property(lambda self: tuple(_polys(self.ctx, v, self.rank) for v in self._rels))

    def _value(self):
        # the ring compares (and hashes) by identity
        return (self.ctx, self.rank, self.shifts, self._gens, self._rels)

    def __eq__(self, other):
        return isinstance(other, GradedModule) and self._value() == other._value()

    def __hash__(self):
        # computed once, from the hash each Vec keeps
        if self._hash is None:
            self._hash = hash(self._value())
        return self._hash

    # -- basic structure ---------------------------------------------------

    def gen_degrees(self):
        """The degree of each generator (0 for a zero one), read once."""
        if self._degs is None:
            self._degs = tuple(_lead_degree(self.ctx, vec, self.shifts) or 0
                               for vec in self._gens)
        return self._degs

    def rels_gb(self):
        return groebner.buchberger(self._rels, self.ctx, self.rank, self.shifts)

    def full_gb(self):
        return groebner.buchberger(self._gens, self.ctx, self.rank, self.shifts, self._rels)

    def is_zero(self):
        return _memo(self, "is_zero", lambda: all(
            self.rels_gb().contains(vec) for vec in self._gens))

    def coords_to_ambient(self, coords):
        """The ambient Vec of the element with this coordinate Vec."""
        return vec_combine(self._gens, coords, self.ctx)

    def element_is_zero(self, coords):
        return self.rels_gb().contains(self.coords_to_ambient(coords))

    def gens_engine(self):
        """The tracked engine of the generators modulo the relations,
        complete in every degree, holding its minimal syzygies alone; only read."""
        return _memo(self, "gens_engine", lambda: groebner.tracked_engine(
            self.ctx, self._gens, self.rank, self.shifts, self.gen_degrees(),
            self._rels))

    def express_in_gens(self, vec):
        """The coordinates over the generators of an ambient Vec, mod rels: a
        Vec of rank ``len(_gens)``, the certificate as
        ``reduce_with_certificate`` gives it."""
        if self._gens:
            rem, coords = self.gens_engine().reduce_with_certificate(vec)
        else:
            rem, coords = self.rels_gb().normal_form(vec), Vec()
        if rem:
            raise InvalidInput("vector does not lie in the module")
        return coords

    def syzygies(self):
        """Minimal generators of {u : gens*u = 0 in the module} over R, as
        Vecs of rank ``len(gens)``: the next differential of a resolution."""
        return self.gens_engine().syzygies if self._gens else ()

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
            f"GradedModule(rank={self.rank}, gens={len(self._gens)}, "
            f"rels={len(self._rels)} over {self.ctx!r})"
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


def _check_homogeneous(ctx, vec, shifts):
    """Refuse a Vec of rank ``len(shifts)`` with terms of two degrees."""
    pk = ctx._pk
    mask, last = pk.top - 1, len(shifts) - 1
    if len({((key & mask) >> pk.shift) + shifts[last - (key >> pk.span)] for key in vec}) > 1:
        raise InhomogeneousInput("column is not homogeneous")


def _validated_columns(ctx, cols, rank, shifts):
    """Poly columns as nonzero Vecs, checked for length and homogeneity."""
    out = []
    for col in cols:
        if len(col) != rank:
            raise InvalidInput("column length does not match ambient rank")
        vec = _to_internal(ctx, col, rank)
        _check_homogeneous(ctx, vec, shifts)
        if vec:
            out.append(vec)
    return out


def subquotient(ctx, gens, rels, shifts=None, rank=None):
    """The module (<gens> + <rels>)/<rels> in R^rank, canonicalized, from
    columns of Poly.

    Relations are replaced by their reduced Groebner basis; identically zero
    generator columns are dropped.
    """
    if rank is None:
        rank = len(shifts) if shifts is not None else (len(gens[0]) if gens else 1)
    shifts = tuple(shifts) if shifts is not None else (0,) * rank
    return _subquotient(ctx, rank, shifts, _validated_columns(ctx, gens, rank, shifts),
                        _validated_columns(ctx, rels, rank, shifts))


def _subquotient(ctx, rank, shifts, gens, rels):
    """``subquotient`` of homogeneous Vecs."""
    if not ctx.is_graded():
        raise InhomogeneousInput("module layer needs a graded ring context")
    gb = groebner.buchberger([vec for vec in rels if vec], ctx, rank, shifts)
    return GradedModule(ctx, rank, shifts, [vec for vec in gens if vec], gb.basis)


def _units(ctx, rank):
    """The basis vectors e_0, ..., e_{rank-1} of R^rank."""
    return [Vec({(rank - 1 - i) << ctx._pk.span: 1}) for i in range(rank)]


def free_module(ctx, rank, shifts=None):
    shifts = tuple(shifts) if shifts is not None else (0,) * rank
    return _subquotient(ctx, rank, shifts, _units(ctx, rank), [])


def cyclic_module(ctx, ideal_gens, twist_by=0):
    """R/I as a rank-1 subquotient, for I given by Poly generators."""
    return _cyclic_module(ctx, _to_ideal(ctx, ideal_gens), twist_by)


def _cyclic_module(ctx, ideal, twist_by=0):
    """``cyclic_module`` of an ideal of Vecs, each checked to be homogeneous."""
    for f in ideal:
        _check_homogeneous(ctx, f, (0,))
    return _subquotient(ctx, 1, (-twist_by,), _units(ctx, 1), ideal)


def zero_module(ctx):
    return _subquotient(ctx, 1, (0,), [], [])


def twist(M, a):
    """M(a): degrees shift down by a, HF_{M(a)}(d) = HF_M(d + a)."""
    return GradedModule(
        M.ctx, M.rank, tuple(s - a for s in M.shifts), M._gens, M._rels
    )


# ---------------------------------------------------------------------------
# maps


class ModuleMap:
    """Graded homomorphism given by images of source generators.

    ``cols[j]`` holds the coordinates of f(source gen j) over the target's
    generators: a Vec of rank ``len(target._gens)``, keyed as ``syzygies``
    are, and never written once the map is built.
    """

    __slots__ = ("source", "target", "cols", "degree")

    def __init__(self, source, target, cols, degree=0, check=True):
        if source.ctx is not target.ctx:
            if not source.ctx.same_polynomial_ring(target.ctx):
                raise RingMismatch("map between modules over different rings")
        self.source = source
        self.target = target
        self.cols = tuple(cols)
        self.degree = degree
        if len(self.cols) != len(source._gens):
            raise IllDefinedMap("matrix width does not match source generators")
        span = target.ctx._pk.span
        if any(col and max(col) >> span >= len(target._gens) for col in self.cols):
            raise IllDefinedMap("matrix height does not match target generators")
        if check:
            self._check_well_defined()

    def _check_well_defined(self):
        src_deg = self.source.gen_degrees()
        tgt_deg = self.target.gen_degrees()
        pk = self.target.ctx._pk
        mask, last = pk.top - 1, len(tgt_deg) - 1
        for j, col in enumerate(self.cols):
            for key in col:
                i, deg = last - (key >> pk.span), (key & mask) >> pk.shift
                want = src_deg[j] + self.degree - tgt_deg[i]
                if deg != want:
                    raise IllDefinedMap(
                        f"entry ({i},{j}) has a term of degree {deg}, expected {want}"
                    )
        for u in self.source.syzygies():
            if not self.target.element_is_zero(self.apply_coords(u)):
                raise IllDefinedMap("source relation does not map to zero")

    def apply_coords(self, coords):
        """Image of an element given by its coordinate Vec over the source
        generators, as a coordinate Vec over the target generators."""
        return vec_combine(self.cols, coords, self.target.ctx)

    def image_columns_ambient(self):
        return [self.target.coords_to_ambient(col) for col in self.cols]

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target is not self.source:
            if other.target._gens != self.source._gens:
                raise IllDefinedMap("maps are not composable")
        cols = [self.apply_coords(col) for col in other.cols]
        return ModuleMap(
            other.source, self.target, cols, self.degree + other.degree, check=False
        )


def identity_map(M):
    return ModuleMap(M, M, _units(M.ctx, len(M._gens)), check=False)


def zero_map(M, N):
    return ModuleMap(M, N, [Vec()] * len(M._gens), check=False)


def kernel(f):
    """Kernel of f, with its inclusion into the source."""
    src = f.source
    syz = image(f).syzygies()
    # syzygy coordinates are over the source generators; a coordinate vector
    # whose ambient image vanishes identically is the zero element of the
    # source (a column relation), so it contributes nothing to the kernel
    kept, ker_cols = [], []
    for u in syz:
        amb = src.coords_to_ambient(u)
        if not amb:
            continue
        kept.append(u)
        ker_cols.append(amb)
    K = GradedModule(src.ctx, src.rank, src.shifts, ker_cols, src._rels)
    return K, ModuleMap(K, src, kept, check=False)


def cokernel(f):
    """Cokernel of f, with the projection from the target."""
    tgt = f.target
    # the relations im f + rels: the basis ``is_injective`` reads too
    C = GradedModule(tgt.ctx, tgt.rank, tgt.shifts, tgt._gens, image(f).full_gb().basis)
    proj = ModuleMap(tgt, C, _units(tgt.ctx, len(tgt._gens)), check=False)
    return C, proj


def image(f):
    """Image of f as a submodule of the target."""
    tgt = f.target
    return GradedModule(tgt.ctx, tgt.rank, tgt.shifts, f.image_columns_ambient(), tgt._rels)


def is_injective(f):
    """Whether f: M -> N of degree a has zero kernel, from Hilbert series:
    M_d -> (im f)_{d+a} is onto with kernel (ker f)_d, so HS(im f) = t^a
    (HS(M) - HS(ker f)), and a graded module is zero exactly when its series
    is.  Both series lie over one S, so the numerators compare."""
    shifted = {d + f.degree: c for d, c in f.source.hilbert().numerator.items()}
    return image(f).hilbert().numerator == shifted


def is_iso(f):
    """True iff the map, of any degree, has zero cokernel and zero kernel."""
    return cokernel(f)[0].is_zero() and is_injective(f)


# ---------------------------------------------------------------------------
# direct sums, tensor, Hom


def _block_sum(mods):
    """The block sum of modules over one ring, without the maps: each
    block's keys move up past the positions after it."""
    ctx = mods[0].ctx
    span = ctx._pk.span
    rank = sum(M.rank for M in mods)
    shifts = tuple(s for M in mods for s in M.shifts)
    gens, rels = [], []
    pos = 0
    for M in mods:
        up = (rank - pos - M.rank) << span
        gens.extend(_moved(vec, up) for vec in M._gens)
        rels.extend(_moved(vec, up) for vec in M._rels)
        pos += M.rank
    return GradedModule(ctx, rank, shifts, gens, rels)


def direct_sum(*mods):
    """Block sum, with injections and projections."""
    S = _block_sum(mods)
    ctx = S.ctx
    total = len(S._gens)
    units = _units(ctx, total)
    injections, projections = [], []
    start = 0
    for M in mods:
        g = len(M._gens)
        proj = [Vec()] * start + _units(ctx, g) + [Vec()] * (total - start - g)
        injections.append(ModuleMap(M, S, units[start:start + g], check=False))
        projections.append(ModuleMap(S, M, proj, check=False))
        start += g
    return S, injections, projections


def tensor(M, N):
    """M (x) N presented by the block matrix (A (x) 1 | 1 (x) B)."""
    if M.ctx is not N.ctx:
        raise RingMismatch("tensor over different rings")
    ctx = M.ctx
    span = ctx._pk.span
    gm, gn = len(M._gens), len(N._gens)
    dm, dn = M.gen_degrees(), N.gen_degrees()
    rank = gm * gn
    shifts = tuple(dm[i] + dn[j] for i in range(gm) for j in range(gn))
    # u (x) e_j: u_i at position i * gn + j
    rels = [_spread(u, gn, j, span) for u in M.syzygies() for j in range(gn)]
    for v in N.syzygies():  # e_i (x) v: v_j at position i * gn + j
        for i in range(gm):
            rels.append(_moved(v, ((gm - 1 - i) * gn) << span))
    return _subquotient(ctx, rank, shifts, _units(ctx, rank), rels)


def tensor_map(f, N):
    """f (x) id_N for f a ModuleMap."""
    gn, span = len(N._gens), N.ctx._pk.span
    # source generator (j, b) goes to f's column j (x) e_b
    cols = [_spread(col, gn, b, span) for col in f.cols for b in range(gn)]
    return ModuleMap(tensor(f.source, N), tensor(f.target, N), cols, f.degree, check=False)


def _hom_sum(N, degs):
    """⊕_j N(d_j) = Hom(⊕ R(-d_j), N), block j at positions j * N.rank on."""
    parts = [twist(N, d) for d in degs]
    if len(parts) == 1:
        return parts[0]
    return _block_sum(parts)


def _dual_map(N, src_degs, tgt_degs, rows):
    """Hom(d, N) for the matrix d: F' -> F given by its rows, Vecs over the
    basis of F', one per basis element of F: the map ⊕ N(src) -> ⊕ N(tgt),
    phi -> phi o d."""
    gn, span = len(N._gens), N.ctx._pk.span
    # generator a of block b goes to generator a of each block k, times row b's entry k
    cols = [_spread(row, gn, a, span) for row in rows for a in range(gn)]
    return ModuleMap(_hom_sum(N, src_degs), _hom_sum(N, tgt_degs), cols, check=False)


def hom_module(M, N):
    """Hom_R(M, N) and a converter from its elements to ModuleMaps (cached).

    Computed as the kernel of Hom(F0, N) -> Hom(F1, N) for a presentation
    F1 -> F0 -> M (F0 on the stored generators, F1 on the column relations).
    """
    if M.ctx is not N.ctx:
        raise RingMismatch("Hom over different rings")
    return _memo(M, ("hom", N), lambda: _hom_module(M, N))


def _hom_module(M, N):
    if not M._gens:
        return zero_module(M.ctx), lambda coords, degree=0: zero_map(M, N)
    dm = M.gen_degrees()
    colrels = M.syzygies()
    if not colrels:
        return _hom_sum(N, dm), _hom_converter(M, N)
    degs = [_lead_degree(M.ctx, u, dm) for u in colrels]
    rows = _transpose(colrels, len(dm), M.ctx._pk.span)
    H, incl = kernel(_dual_map(N, dm, degs, rows))
    return H, _hom_converter(M, N, incl)


def _hom_converter(M, N, incl=None):
    gm, gn, span = len(M._gens), len(N._gens), M.ctx._pk.span

    def element_as_map(coords, degree=0):
        """Rebuild a Hom element (coordinates over H's generators) as a map:
        block j of its coordinates over ⊕ N(d_j) is column j."""
        flat = incl.apply_coords(coords) if incl is not None else coords
        return ModuleMap(M, N, _split(flat, gm, gn, span), degree, check=False)

    return element_as_map


def _hom_element(N, cols):
    """Ambient Vec of the element of Hom(-, N) whose map has these columns
    (one coordinate Vec over N's generators per source generator)."""
    return _stacked([N.coords_to_ambient(col) for col in cols], N.rank, N.ctx._pk.span)


def hom_induced_post(f, K):
    """Hom(K, f): Hom(K, source) -> Hom(K, target) by postcomposition."""
    HS, conv_s = hom_module(K, f.source)
    HT, _ = hom_module(K, f.target)
    cols = []
    for unit, d in zip(_units(HS.ctx, len(HS._gens)), HS.gen_degrees()):
        comp = f.compose(conv_s(unit, degree=d))  # K -> target
        cols.append(HT.express_in_gens(_hom_element(f.target, comp.cols)))
    return ModuleMap(HS, HT, cols, f.degree, check=False)


# ---------------------------------------------------------------------------
# minimization


def minimize(M):
    """Minimal-generator copy of M with the comparison maps (proj, incl);
    for M without generators, a module equal to M and maps without columns."""
    from . import homalg

    res = homalg.free_resolution(M, 0)
    Mmin = homalg.level_module(M, res, 0)
    units = _units(M.ctx, len(M._gens))
    incl = ModuleMap(Mmin, M, [units[i] for i in res.kept], check=False)
    sols, _ = lift_columns(Mmin, M._gens)
    if sols is None:
        raise InternalConsistencyError("minimization lost a generator")
    proj = ModuleMap(M, Mmin, sols, check=False)
    return Mmin, proj, incl


def lift_columns(M, vectors):
    """Each ambient Vec's coordinate Vec over M's generators, by
    ``express_in_gens``: (coordinates, None), or (None, j) for the first
    vector j outside M."""
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
    """ann(M), an ideal of Vecs forming its reduced Groebner basis (cached):
    the column relations of the one element v = (g_1, ..., g_n) of
    ⊕_j M(deg g_j), homogeneous of degree 0, since r*v = 0 exactly when r
    kills every generator."""
    return _memo(M, "annihilator", lambda: _annihilator(M))


def _annihilator(M):
    ctx = M.ctx
    if not M._gens:
        return tuple(groebner.buchberger(_units(ctx, 1), ctx, 1).basis)
    B = _hom_sum(M, M.gen_degrees())
    v = _stacked(M._gens, M.rank, ctx._pk.span)
    # the engine's minimal syzygies, of rank 1: any generating set gives the reduced basis
    syz = GradedModule(ctx, B.rank, B.shifts, [v], B._rels).syzygies()
    return tuple(groebner.buchberger(syz, ctx, 1).basis)


def colon(i_gens, j_gens, ctx):
    """(I : J) = ann((I + J)/I) for ideals of Vecs, as ``annihilator`` gives
    it (cached by value, with the annihilator)."""
    return annihilator(GradedModule(ctx, 1, (0,), j_gens, i_gens))


def _num(v):
    return "infinite" if v is math.inf else v


class InvariantReport(
    namedtuple("InvariantReport", "dim depth grade pd cod")
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


def ring_dim(ctx):
    """dim R, from the lead words of the reduced basis ``ctx.defining``,
    which minimally generate the initial ideal: no engine is built."""
    def compute():
        words = tuple(max(g.terms) & ctx._pk.low for g in ctx.defining)
        return groebner.HilbertData(ctx, groebner._kpoly(words, ctx)).dim

    return _memo(ctx, "ring_dim", compute)


def ring_depth(ctx):
    from . import homalg

    return _memo(ctx, "ring_depth", lambda: homalg.depth(free_module(ctx, 1)))


def ring_is_cm(ctx):
    return ring_dim(ctx) == ring_depth(ctx)


def grade(M):
    """grade(M) = min{i : Ext^i(M, R) != 0}; +inf for the zero module.

    Over a Cohen-Macaulay context this equals dim R - dim M (Rees), which is
    how it is computed there; the Ext search is the general fallback.
    """
    if M.is_zero():
        return math.inf
    ctx = M.ctx
    if ring_is_cm(ctx):
        return ring_dim(ctx) - M.dim()
    from . import homalg

    R1 = free_module(ctx, 1)
    for i in range(ring_dim(ctx) + 1):
        if not homalg.ext_vanishes(i, M, R1):
            return i
    raise InternalConsistencyError("grade exceeded dim R on a nonzero module")


def regular_on(L, L_mod_x, d):
    """Whether x of degree d is regular on a nonzero L, given L/xL (None
    for a zero x).  HS(L/xL) = (1 - t^d) HS(L) + t^d HS(0 :_L x), and for
    d > 0 Nakayama keeps L/xL nonzero, so exactly when d > 0 and HS(L/xL) =
    (1 - t^d) HS(L).  Both modules lie over one S, so the numerators
    compare.  This is the package's one regularity test."""
    return d is not None and d > 0 and (
        L_mod_x.hilbert().numerator == _poly_mul_1mt(L.hilbert().numerator, d))


def is_regular_sequence(ctx, seq):
    """Whether the Vecs f_1..f_n are a regular sequence on R: ``regular_on``
    for each step from R/(f_1..f_{k-1}) to R/(f_1..f_k)."""
    return all(regular_on(_cyclic_module(ctx, seq[:k - 1]), _cyclic_module(ctx, seq[:k]),
                          _lead_degree(ctx, seq[k - 1], (0,)))
               for k in range(1, len(seq) + 1))


def transport(M, ctx2):
    """M (x) R' over a quotient R' = ``ctx2`` of M's ring, on the same
    polynomial ring: M itself when R''s defining ideal J' kills M.

    Over R' the relations take in J'F, which is all of M's relations need
    when M's generators are F's unit vectors: F/(Rel + J'F) = M/J'M.  Other
    generators G would leave (G + Rel + J'F)/(Rel + J'F), which drops
    G ∩ J'F, so M moves as the cokernel of its minimal presentation d_1."""
    # one polynomial ring packs its monomials one way: the keys carry over
    if not ctx2.same_polynomial_ring(M.ctx):
        raise RingMismatch("polynomial from an incompatible ring")
    if M._gens == tuple(_units(M.ctx, M.rank)):
        return _subquotient(ctx2, M.rank, M.shifts, M._gens, M._rels)
    from . import homalg

    res = homalg.free_resolution(M, 1)
    n, d_1 = len(res.kept), res.diffs[0] if res.diffs else ()
    return _subquotient(ctx2, n, res.level_shifts[0], _units(ctx2, n), d_1)


def invariants(M):
    """dim/depth/grade/pd/cod, with the Auslander-Buchsbaum cross-check."""
    from . import homalg

    if M.is_zero():
        return InvariantReport(None, None, math.inf, None, None)
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
    pd = homalg.projective_dimension(M)
    cod = ring_dim(ctx) - d
    if pd is not math.inf and gr > pd:
        raise InternalConsistencyError("grade exceeds finite projective dimension")
    return InvariantReport(d, dep, gr, pd, cod)
