"""Minimal graded free resolutions, Ext and Tor, transposes and the
obstructions to the double Ext-dual comparison map.

Resolutions are built level by level: level k + 1 holds the minimal
syzygies, Vecs, of ``level_module(M, res, k)`` (M on its minimal
generators, or the image of d_k, whose generators they are), read from that
module's one stored engine, which also lifts chain maps.  A lifted chain
map's columns are coordinate Vecs like the differentials' (see
``modules``), so a lift and ``ext_induced`` convert nothing to ``Poly``.
Differentials land in the maximal ideal, so Betti numbers read off
directly.  Over R = S/J resolutions may be infinite; every operation takes
the finite length it needs and records the truncation.  Each length is its
own immutable memo entry, one level longer than the entry below it, so
what a length gives never depends on what was resolved before, and threads
share resolutions without a lock.

``tor_vanishes`` and ``ext_hilbert`` read Tor_i and Ext^i as Hilbert
series without building them: the middle term's series less those of the
incoming and outgoing images, each image's from the lead terms of an
untracked Groebner basis, which ``_image_engine`` builds with no direct sum
or map: it seeds an engine with block copies of N's relation basis, one per
summand N(±d) of the target, and reduces only the image columns.  Over
positive weights a graded module is zero exactly when its series is, so
``ext_vanishes`` is ``ext_hilbert(...).is_zero()``.  Depth, Bass numbers,
local cohomology, the bidual obstructions and the depth-formula,
even-liaison, grade and horizontal-linkage checks read Ext only so.

``_series`` alone picks the ring for Ext and Tor, by the first of routes
1-4 that applies (w is the sum of the weights, c the codimension of M's
ring, R/(x) in route 2); ``graded_betti`` picks it for Betti numbers read
alone, by route 5:

1. Ext into the canonical module ω_R of a Cohen-Macaulay R = S/J goes over
   S as t^w HS(Ext^{i+c}_S(M, S)): Ext^q_S(R, ω_S) is ω_R for q = c and
   zero otherwise, so the change-of-rings spectral sequence collapses to
   Ext^i_R(M, ω_R) = Ext^{i+c}_S(M, ω_S) (Bruns-Herzog 3.3), ω_S = S(-w).
   Over S resolutions stop within dim S steps, where over a non-Gorenstein
   R they need not stop at all.  ω_R is the module
   ``linkage.canonical_module`` stored for R once R passed the CM check.
   ``dual_hilbert`` gives the Ext_S term, as it gives local cohomology.
2. Ext into an N with an x of route 3 and N/xN = ω/xω goes over S as
   t^{w + deg x} HS(Ext^{i+c}_S((M/xM)_S, S)): R/(x) is Cohen-Macaulay and
   ω/xω = ω_{R/(x)}(-deg x) (Bruns-Herzog 3.3.5, graded 3.6.12).
3. Any other Ext with an x goes over R/(x): when x is regular on R and on
   M and xN = 0, Ext^i_R(M, N) = Ext^i_{R/(x)}(M/xM, N) as graded modules
   (Bruns-Herzog, Lemma 3.1.16), as F/xF resolves M/xM for a minimal
   resolution F of M and Hom_R(F, N) = Hom_{R/(x)}(F/xF, N).  x is the
   lowest-degree element of N's annihilator basis regular on R and on M,
   chosen once per (N, M), where a maximal Cohen-Macaulay M over a
   non-Gorenstein R resolves with far shorter vectors, and regular as
   ``modules.regular_on`` decides from Hilbert series.  R without defining
   ideal or Artinian, M of dimension 0 and N of dimension dim R have none.
4. Everything else, Tor included, goes over R: Tor_i(M, ω) resolves M,
   which route 3 would trade for ω/xω, whose Betti numbers grow as ω's do.
5. The graded Betti numbers of M go over R/(x), as those of M/xM, for the
   first x regular on R that ``regular_sequence_in_ideal`` finds among the
   variables, when x is regular on M too; over R otherwise.  The Bass
   numbers of a Cohen-Macaulay R are read so, from ω
   (``cohomology.ring_bass_numbers``), where Ext^i(k, R) over a
   non-Gorenstein R resolves k ever longer.  Modules built from the
   differentials resolve over R.

``quotient_ring`` builds R/(x) for a regular sequence x of Vecs, which
``ring._make_ring`` files under its reduced basis, so the Ext route, the
quotient route of the bidual obstructions and ``cohomology.schenzel_check``
(both through ``change_of_rings``, which also moves K to Ext^n(R/(x), K))
share one ring per quotient, and every result cached over it.  Modules
move there with ``modules.transport``.

Both complexes follow one degree convention, Hom(R(-d), N) = N(d) and
R(-d) (x) N = N(-d), so every term is a block sum ⊕ N(d_b) and
``_induced`` gives the shape of every map between terms: d (x) N is Hom of
the transpose of d, with the degrees negated.  ``ext`` and ``tor`` share
``_homology``: its cycles are the kernel of the map out of the middle term
(the whole middle term, less zero columns, when there is none) and its
relations the image engine of the map into it, filed under its basis.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import partial

from . import groebner, modules
from .errors import (
    GradeMismatch,
    InternalConsistencyError,
    InvalidInput,
    LiftFailed,
    NotRegularSequence,
    RegularSequenceNotFound,
    RingMismatch,
)
from .groebner import HilbertData, Vec, _add_series, _axpy, _lead_degree
from .ring import _LIMIT, _make_ring, _memo, _memoized, _overflow
from .modules import (
    GradedModule,
    ModuleMap,
    _cyclic_module,
    _dual_map,
    _hom_sum,
    _split,
    _stacked,
    _subquotient,
    _transpose,
    annihilator,
    cokernel,
    free_module,
    image,
    kernel,
    ring_dim,
    transport,
    vec_combine,
    zero_module,
)

# ---------------------------------------------------------------------------
# resolutions


class Resolution(namedtuple("Resolution", "kept level_shifts diffs complete")):
    """An initial segment of the minimal graded free resolution of a module.

    ``diffs[k]`` is the matrix of F_{k+1} -> F_k, stored as columns, Vecs
    of rank F_k (``GradedModule.syzygies``); ``level_shifts[k]`` are the generator
    degrees of F_k.  ``kept`` indexes the minimal generators inside the
    module's gens, giving the augmentation F_0 -> M.  ``complete`` says that
    some F_k with k at most the requested length was seen to be zero, so
    the resolution stops there; it depends on the length asked for alone,
    never on what was resolved before.  Every field is a tuple.
    """

    __slots__ = ()

    def rank(self, i):
        if i < 0 or i >= len(self.level_shifts):
            return 0
        return len(self.level_shifts[i])

    def length(self):
        return max((i for i in range(len(self.level_shifts)) if self.rank(i)), default=0)

    def betti(self):
        table = {}
        for i, shifts in enumerate(self.level_shifts):
            for d in shifts:
                table[(i, d)] = table.get((i, d), 0) + 1
        return table

    def betti_numbers(self):
        return [self.rank(i) for i in range(len(self.level_shifts))]


def free_resolution(M, length):
    """Minimal free resolution of M to the requested length (cached).

    Each length has its own memo entry, built by ``_next_level`` from the
    entry one level shorter; past the first complete entry every length
    gets that entry.
    """
    if length < 0:
        raise InvalidInput(f"resolution length must be at least 0, got {length}")
    res = _memo(M, ("res", 0), lambda: _resolution_start(M))
    for k in range(1, length + 1):
        if res.complete:
            break
        res = _memo(M, ("res", k), partial(_next_level, M, res))
    return res


def _resolution_start(M):
    """Level 0: the minimal generators of M, F_0 -> M."""
    degs = M.gen_degrees()
    kept = tuple(groebner.minimal_generator_indices(
        M._gens, M.ctx, M.rank, M.shifts, M.rels_gb().basis
    ))
    return Resolution(kept, (tuple(degs[i] for i in kept),), (), not kept)


def _next_level(M, prev):
    """The resolution one level longer than ``prev``, which is incomplete:
    the minimal column relations of its last level module."""
    syz = level_module(M, prev, len(prev.level_shifts) - 1).syzygies()
    if not syz:
        return prev._replace(complete=True)
    mask = M.ctx._pk.top - 1
    if any(not key & mask for u in syz for key in u):
        raise InternalConsistencyError("non-minimal differential: unit entry survived")
    shifts_k = tuple(_lead_degree(M.ctx, u, prev.level_shifts[-1]) for u in syz)
    return prev._replace(
        level_shifts=prev.level_shifts + (shifts_k,), diffs=prev.diffs + (tuple(syz),)
    )


def level_module(M, res, k):
    """The module F_k of ``res`` minimally generates: M on its minimal
    generators for k = 0, the image of d_k in F_{k-1} for k >= 1.  Its
    engine gives level k + 1, the chain lifts through level k and
    ``modules.minimize``.  For k >= 1 it has no relations, so it lacks the
    J*F that ``restrict_scalars`` needs; ``syzygy`` is the module value."""
    if k == 0:
        gens = [M._gens[i] for i in res.kept]
        return GradedModule(M.ctx, M.rank, M.shifts, gens, M._rels)
    return GradedModule(
        M.ctx, res.rank(k - 1), res.level_shifts[k - 1], res.diffs[k - 1], ()
    )


def restrict_scalars(M):
    """The same module viewed over the ambient polynomial ring S.

    The stored relations already contain J times the ambient basis (they are
    a reduced basis of rels + J), so only the context changes.
    """
    return GradedModule(M.ctx.ambient(), M.rank, M.shifts, M._gens, M._rels)


def _variables(ctx):
    """The variables of R as an ideal of Vecs, in their order."""
    return tuple(Vec({unit: 1}) for unit in ctx._pk.units)


def residue_field(ctx):
    return _cyclic_module(ctx, _variables(ctx))


def ambient_pd(M):
    """Projective dimension over the ambient polynomial ring (always finite)."""
    MS = restrict_scalars(M)
    res = free_resolution(MS, MS.ctx.m + 1)
    if not res.complete:
        raise InternalConsistencyError("Hilbert syzygy bound exceeded over S")
    return res.length()


def projective_dimension(M):
    """pd over R, or math.inf when the minimal resolution does not stop
    within dim S + 1 steps (sound in the graded local setting)."""
    cap = M.ctx.m + 1
    res = free_resolution(M, cap)
    return res.length() if res.complete else math.inf


def graded_betti(M, length):
    """The level shifts and ``complete`` of M's minimal resolution to the
    requested length, read over R/(x) for the first x that
    ``regular_sequence_in_ideal`` finds among the variables, when x is also
    regular on M: then F/xF resolves M/xM minimally over R/(x), with the
    same graded Betti numbers, since Tor^R_i(M, R/(x)) = 0 for i > 0 and
    the differentials stay in m.  Without such an x (an Artinian R, M of
    depth 0) M resolves over R.  It stores nothing: the resolution over the
    ring it takes is the entry."""
    ctx = M.ctx
    try:
        (x,) = regular_sequence_in_ideal(ctx, _variables(ctx), 1)
    except RegularSequenceNotFound:
        pass
    else:
        moved = transport(M, quotient_ring(ctx, (x,)))
        if modules.regular_on(M, moved, _lead_degree(ctx, x, (0,))):
            M = moved
    res = free_resolution(M, length)
    return res.level_shifts, res.complete


def syzygy(M, n):
    """The n-th syzygy module (n = 0: M): for n >= 1 the submodule of the
    free module F_{n-1} generated by the columns of the n-th differential,
    as a subquotient, so its relations hold J*F's basis."""
    if n < 0:
        raise InvalidInput(f"syzygy index must be at least 0, got {n}")
    if n == 0:
        return M
    res = free_resolution(M, n)
    if n >= len(res.level_shifts) or not res.rank(n):
        return zero_module(M.ctx)
    return _subquotient(
        M.ctx, res.rank(n - 1), res.level_shifts[n - 1], res.diffs[n - 1], []
    )


# ---------------------------------------------------------------------------
# the Hom and tensor complexes, Ext and Tor


def _induced(functor, k, res, ctx):
    """The shape of the map d_k: F_k -> F_{k-1} induces on the complex of
    F(M) with N: (source degrees, target degrees, rows).  It maps
    ⊕_b N(src[b]) -> ⊕_c N(tgt[c]), block b's x to ⊕_c rows[b][c] x, under
    Hom(R(-d), N) = N(d) and R(-d) (x) N = N(-d); row b is a Vec of rank
    len(tgt).  For "tor" it is d_k (x) N: F_k (x) N -> F_{k-1} (x) N, rows
    the columns of d_k; for "ext" Hom(d_k, N): Hom(F_{k-1}, N) -> Hom(F_k,
    N), rows the rows of d_k.  Without d_k (k = 0, or F_k = 0) there are no
    rows."""

    def degs(j):
        return res.level_shifts[j] if 0 <= j < len(res.level_shifts) else ()

    d = res.diffs[k - 1] if 0 < k <= len(res.diffs) else ()
    if functor == "tor":
        return [-e for e in degs(k)], [-e for e in degs(k - 1)], list(d)
    return list(degs(k - 1)), list(degs(k)), _transpose(d, len(degs(k - 1)), ctx._pk.span)


def ext(i, M, N):
    """Ext^i_R(M, N) from a minimal resolution of M of length i+1."""
    if i < 0:
        raise InvalidInput(f"Ext index must be at least 0, got {i}")
    return _memo(M, ("ext", i, N), lambda: _homology("ext", i, M, N))


def tor(i, M, N):
    """Tor_i^R(M, N) from a minimal resolution of M of length i+1."""
    if i < 0:
        raise InvalidInput(f"Tor index must be at least 0, got {i}")
    return _memo(M, ("tor", i, N), lambda: _homology("tor", i, M, N))


def _homology(functor, i, M, N):
    """Homology at index i of the tensor ("tor") or Hom ("ext") complex of
    F(M) with N.  Its generators are the cycles: the kernel of the map out
    of the middle term, or the middle term ⊕ N(±d) itself when there is
    none; its relations are the incoming image with the middle term's
    relations, from ``_image_engine``, filed by ``reduced_engine``."""
    ctx = M.ctx
    if M.is_zero() or N.is_zero():
        return zero_module(ctx)
    res = free_resolution(M, i + 1)
    if not res.rank(i):
        return zero_module(ctx)
    out_k, in_k = (i + 1, i) if functor == "ext" else (i, i + 1)
    src, tgt, rows = _induced(functor, out_k, res, ctx)
    if rows:
        cycles = kernel(_dual_map(N, src, tgt, rows))[0]._gens
    else:
        cycles = [vec for vec in _hom_sum(N, src)._gens if vec]
    eng = groebner.reduced_engine(_image_engine(functor, in_k, M, N, res))
    # the middle term's shifts: a filed engine's may be another twist's
    shifts = tuple(s - d for d in src for s in N.shifts)
    return GradedModule(ctx, eng.rank, shifts, cycles, eng.basis)


# ---------------------------------------------------------------------------
# vanishing of Ext and Tor from Hilbert series


def tor_vanishes(i, M, N):
    """Whether Tor_i^R(M, N) = 0, decided without building the module."""
    if i < 0:
        raise InvalidInput(f"Tor index must be at least 0, got {i}")
    return _memo(M, ("tor_vanishes", i, N), lambda: not _series("tor", i, M, N))


def ext_vanishes(i, M, N):
    """Whether Ext^i_R(M, N) = 0: whether its Hilbert series is zero."""
    return ext_hilbert(i, M, N).is_zero()


def ext_hilbert(i, M, N):
    """The HilbertData of Ext^i_R(M, N), without building the module."""
    if i < 0:
        raise InvalidInput(f"Ext index must be at least 0, got {i}")
    return _memo(
        M, ("ext_hilbert", i, N), lambda: HilbertData(M.ctx, _series("ext", i, M, N))
    )


def _series(functor, i, M, N):
    """Hilbert numerator of Tor_i(M, N) or Ext^i(M, N), over the ring of
    the first route of the module docstring that applies."""
    if M.is_zero() or N.is_zero():
        return {}
    if functor == "tor":
        return _ring_series("tor", i, M, N)
    omega = _memoized(N.ctx, "canonical_module")
    w = sum(M.ctx.weights)
    if N != omega:
        x = _memo(N, ("ext_route", M), lambda: _regular_annihilator(M, N))  # chosen once
        if x is None:
            return _ring_series("ext", i, M, N)
        w += _lead_degree(M.ctx, x, (0,))
        ctx2 = quotient_ring(M.ctx, (x,))
        M, N = transport(M, ctx2), transport(N, ctx2)
        if omega is None or N != transport(omega, ctx2):
            return _ring_series("ext", i, M, N)
        # N = ω/xω, which is ω_{R/(x)}(-deg x)
    # Ext^i_R(M, ω_R) is the Ext_S term at j = i + c, c = dim S - dim R
    data = dual_hilbert(i + M.ctx.m - ring_dim(M.ctx), M)
    return {d + w: v for d, v in data.numerator.items()}


def dual_hilbert(j, M):
    """The HilbertData of Ext^j_S(M, S), M taken over the polynomial ring S
    under its ring; zero for j < 0.  By local duality it is that of the
    graded dual of H^{dim S - j}_m(M), twisted by the sum of the weights."""
    MS = restrict_scalars(M)
    if j < 0:
        return HilbertData(MS.ctx, {})
    return ext_hilbert(j, MS, free_module(MS.ctx, 1))


def _ring_series(functor, i, M, N):
    """Hilbert numerator of the homology at the middle of B_in -> B -> B_out
    of the tensor ("tor") or dual ("ext") complex of F(M) with N over M's
    ring, where B = F_i (x) N or Hom(F_i, N): HS(B) - HS(image in B) -
    HS(image in B_out), for M and N nonzero."""
    res = free_resolution(M, i + 1)
    if not res.rank(i):
        return {}
    series = {}
    hs_n = N.hilbert().numerator
    # the middle term is the source of the map out of it: Hom(d_{i+1}, N)
    # or d_i (x) N
    for d in _induced(functor, i + 1 if functor == "ext" else i, res, M.ctx)[0]:
        _add_series(series, hs_n, -d)
    # the Tor differential d_k (x) N lands in level k - 1, Hom(d_k, N) in level k
    for k in (i, i + 1):
        _add_series(series, _image_series(functor, k, M, N, res), sign=-1)
    return series


def _regular_annihilator(M, N):
    """The lowest-degree element x of N's annihilator basis that is regular
    on R and on M, or None.  A ring without defining ideal, an Artinian
    ring, an N of R's dimension (which no regular element kills) and an M
    of dimension 0 have none, decided before any search."""
    ctx = M.ctx
    dim_r = ring_dim(ctx) if ctx.defining else 0
    if not dim_r or N.dim() == dim_r or not M.dim():
        return None
    for x in sorted(annihilator(N), key=lambda f: _lead_degree(ctx, f, (0,))):
        if modules.is_regular_sequence(ctx, (x,)) and modules.regular_on(
            M, transport(M, quotient_ring(ctx, (x,))), _lead_degree(ctx, x, (0,))
        ):
            return x
    return None


def _image_series(functor, k, M, N, res):
    """Hilbert numerator of the image of the complex's map induced by d_k,
    inside its target ⊕ N(±d): HS(F/R) - HS(F/(R + image)), both from
    lead terms.  Shared by the indices on either side of it; ``res`` is M's
    resolution to length k or more."""

    def compute():
        if k == 0 or not res.rank(k):
            return {}
        eng = _image_engine(functor, k, M, N, res)
        series = {}
        free_n = groebner.leadterm_hilbert(N.rels_gb(), N.rank, N.shifts).numerator
        for d in _induced(functor, k, res, M.ctx)[1]:
            _add_series(series, free_n, -d)
        # the lead terms need not be minimal: leadterm_hilbert minimalizes
        quotient = groebner.leadterm_hilbert(eng, eng.rank, eng.shifts).numerator
        _add_series(series, quotient, sign=-1)
        return series

    return _memo(M, (functor + "_level", k, N), compute)


def _image_engine(functor, k, M, N, res):
    """Untracked engine for R + image, where image is that of the map
    induced by d_k and R are the relations of its target ⊕_b N(tgt[b])
    (see ``_induced``), block b at positions b * N.rank on.

    Block copies of N's reduced relation basis form a reduced basis of R
    (J*B included) and seed the engine.  The image columns are fed one at
    a time, each added up by ``_axpy`` from the rows' terms and N's
    generators, once no such product reaches the monomial limit (refused as
    by Poly.__mul__).  Without d_k the engine holds R alone.  Not
    interreduced.
    """
    r = N.rank
    pk = M.ctx._pk
    span, mask = pk.span, pk.top - 1
    _, tgt, rows = _induced(functor, k, res, M.ctx)
    shifts = tuple(s - d for d in tgt for s in N.shifts)
    eng = groebner.ModuleGB(M.ctx, len(tgt) * r, shifts)
    # a row key of prefix c = len(tgt) - 1 - b is in block b, whose keys sit
    # c * r positions further from the last one than in N's own engine
    moves = [(c * r) << span for c in range(len(tgt))]
    eng._seed([{key + up: c for key, c in vec.items()}
               for up in reversed(moves) for vec in N.rels_gb().basis])
    gens = N._gens
    row_top = max((key & mask for row in rows for key in row), default=None)
    if row_top is not None and any(gens):
        deg = (row_top >> pk.shift) + (max(key & mask for v in gens for key in v) >> pk.shift)
        if deg >= _LIMIT:
            raise _overflow(deg)
    p = M.ctx.p

    def columns():
        for row in rows:
            for vec in gens:
                data = {}
                for key, coeff in row.items():
                    _axpy(data, p - coeff, moves[key >> span] + (key & mask), vec, p)
                if data:
                    yield data

    eng.add_generators(columns())
    return eng


# ---------------------------------------------------------------------------
# chain maps and induced maps on Ext


def lift_chain_map(f, length):
    """Lift f: M -> M' to chain maps F_k(M) -> F_k(M'), k <= length.

    Returns a list of matrices, each a list of columns: coordinate Vecs
    over the F_k(M') basis, which are also the ambient vectors of F_k(M').
    Squares commute by construction; failure to lift is an internal error.
    A column of d_k is the coordinate Vec that combines f_{k-1}'s columns.
    """
    M, Mp = f.source, f.target
    ctx = M.ctx
    res = free_resolution(M, length)
    resp = free_resolution(Mp, length)
    # f_0: the image of each minimal generator of M, over Mp's minimal ones
    images = [Mp.coords_to_ambient(f.cols[i]) for i in res.kept]
    sol, bad = modules.lift_columns(level_module(Mp, resp, 0), images)
    if sol is None:
        raise LiftFailed(f"cannot express image of generator {bad}")
    maps = [sol]
    for k in range(1, length + 1):
        if not res.rank(k):
            maps.append([])
            continue
        if not resp.rank(k):
            raise LiftFailed("target resolution too short for a nonzero source level")
        # f_{k-1}(d_k(e_b)) in F_{k-1}(M'), whose basis generates level k of M'
        targets = [vec_combine(maps[k - 1], u, ctx) for u in res.diffs[k - 1]]
        sol, bad = modules.lift_columns(level_module(Mp, resp, k), targets)
        if sol is None:
            raise LiftFailed(f"chain lift failed at level {k}, column {bad}")
        maps.append(sol)
    return maps


def ext_induced(i, f, N):
    """The contravariant induced map Ext^i(M', N) -> Ext^i(M, N)."""
    M, Mp = f.source, f.target
    ctx = M.ctx
    E_tgt = ext(i, M, N)  # Ext^i(M, N)
    E_src = ext(i, Mp, N)  # Ext^i(M', N)
    f_i = lift_chain_map(f, i)[i]
    # a generator of Ext^i(M', N) is phi in Hom(F_i(M'), N), one block of
    # width N.rank per basis element of F_i(M'); precomposition with f_i
    # gives the block phi(f_i(e_j)) of Hom(F_i(M), N) for each column of f_i
    r, count = N.rank, E_src.rank // N.rank
    span = ctx._pk.span
    cols = []
    for phi in E_src._gens:
        blocks = _split(phi, count, r, span)
        cols.append(_stacked([vec_combine(blocks, col, ctx) for col in f_i], r, span))
    sol, bad = modules.lift_columns(E_tgt, cols)
    if sol is None:
        raise InternalConsistencyError(
            f"induced class escaped the Ext module (column {bad})"
        )
    return ModuleMap(E_src, E_tgt, sol, f.degree, check=False)


# ---------------------------------------------------------------------------
# transpose with respect to a module and the bidual obstructions


def transpose(M, K):
    """Transpose of M with respect to K, from the minimal presentation.

    Returns (Tr, lam): the cokernel and the image of Hom(d, K) for the
    minimal presentation d: P_1 -> P_0 -> M.  Minimality makes both unique.
    """
    if M.ctx is not K.ctx and not M.ctx.same_polynomial_ring(K.ctx):
        raise RingMismatch("transpose needs modules over one ring")
    ctx = M.ctx
    res = free_resolution(M, 1)
    if not res.rank(1):
        return zero_module(ctx), zero_module(ctx)
    h = _dual_map(K, *_induced("ext", 1, res, ctx))
    Tr, _ = cokernel(h)
    return Tr, image(h)


def bidual_obstructions(M, K, n):
    """Hilbert data of the kernel and cokernel of the comparison
    M -> Ext^n(Ext^n(M,K),K), from ``ext_hilbert``.

    The direct formula is the pair (Ext^{n+1}, Ext^{n+2}) of the transpose
    of the n-th syzygy; E1 = 0 iff the comparison is injective, and both
    vanish iff it is an isomorphism.  For n > 0 it mods out a regular
    sequence of length n from the annihilator first (the quotient route of
    ``_obstruction_transpose``), which turns the pair into (Ext^1, Ext^2)
    over the smaller ring and keeps resolution lengths (and hence Betti
    growth over Golod-like quotients) bounded.  Both routes compute the
    same graded vector spaces.
    """
    Tr, KK, j = _obstruction_transpose(M, K, n)
    return ext_hilbert(j, Tr, KK), ext_hilbert(j + 1, Tr, KK)


def kernel_obstruction_vanishes(M, K, n):
    """Whether ``bidual_obstructions(M, K, n)[0]`` is zero, decided by
    ``ext_vanishes`` alone, over the ring ``_series`` picks for it."""
    Tr, KK, j = _obstruction_transpose(M, K, n)
    return ext_vanishes(j, Tr, KK)


def _obstruction_transpose(M, K, n):
    """(Tr, K', j): the obstructions are Ext^j(Tr, K') and Ext^{j+1}(Tr, K').

    For n > 0 the quotient route gives the transpose over R/(x), K's image
    there and 1; for n = 0, or when the annihilator holds no regular
    sequence of length n, the direct route gives the transpose of the n-th
    syzygy, K and n + 1.  Tr may be zero, over the ring of the route taken.
    """
    g = modules.grade(M)
    if g != n:
        raise GradeMismatch(f"module has grade {g}, expected {n}")
    if n > 0:
        try:
            seq = regular_sequence_in_ideal(M.ctx, annihilator(M), n)
        except RegularSequenceNotFound:
            pass
        else:
            ctx2, Kbar = change_of_rings(M.ctx, seq, K)
            Tr, _ = transpose(transport(M, ctx2), Kbar)
            return Tr, Kbar, 1
    Tr, _ = transpose(syzygy(M, n), K)
    return Tr, K, n + 1


_MAX_SCALE = 3


def regular_sequence_in_ideal(ctx, ideal, n):
    """Deterministic search for a regular sequence of length n inside an
    ideal of Vecs, returned as a list of Vecs: each slot takes the first of
    ``_combinations`` that ``modules.regular_on`` finds regular on
    R/(chosen)."""
    if n < 0:
        raise InvalidInput(f"regular sequence length must be at least 0, got {n}")
    if n == 0:  # the empty sequence, even in the zero ideal
        return []
    if not ideal or modules.grade(_cyclic_module(ctx, ideal)) < n:
        raise RegularSequenceNotFound(f"ideal has grade below {n}")
    chosen = []
    for _ in range(n):
        L = _cyclic_module(ctx, chosen)
        found = next((f for f in _combinations(ctx, ideal) if modules.regular_on(
            L, _cyclic_module(ctx, (*chosen, f)), _lead_degree(ctx, f, (0,)))), None)
        if found is None:
            raise RegularSequenceNotFound(
                f"no regular element found for slot {len(chosen) + 1}")
        chosen.append(found)
    return chosen


def _combinations(ctx, ideal):
    """The nonzero scalar combinations of the equal-degree generators of an
    ideal of Vecs, added up by ``_axpy``: coefficients in {0, +-1, ...,
    +-s}, s rising to _MAX_SCALE, then the lowest degree first, then in
    ``itertools.product`` order.  A combination that is a multiple, mod p,
    of one yielded before is skipped: it spans the same ideal, so
    ``regular_on`` gives it the same answer."""
    by_degree = {}
    for f in ideal:
        by_degree.setdefault(_lead_degree(ctx, f, (0,)), []).append(f)
    p = ctx.p
    seen = set()  # each combination made monic
    for s in range(1, _MAX_SCALE + 1):
        coeffs = [0] + [c for k in range(1, s + 1) for c in (k, -k)]
        for d in sorted(by_degree):
            basis = by_degree[d]
            for combo in itertools.product(coeffs, repeat=len(basis)):
                f = Vec()
                for c, g in zip(combo, basis):
                    if c % p:
                        _axpy(f, -c % p, 0, g, p)  # f += c * g
                if f:
                    inv = pow(f[max(f)], -1, p)
                    monic = frozenset((key, c * inv % p) for key, c in f.items())
                    if monic not in seen:
                        seen.add(monic)
                        yield f


def change_of_rings(ctx, x_seq, K):
    """Pass to R/(x) = ``quotient_ring(ctx, x_seq)`` for a regular sequence
    x of Vecs; K moves to Ext^n(R/(x), K)."""
    if not x_seq:
        return ctx, K
    ctx2 = quotient_ring(ctx, x_seq)
    return ctx2, transport(ext(len(x_seq), _cyclic_module(ctx, x_seq), K), ctx2)


def quotient_ring(ctx, x_seq):
    """R/(x) for a regular sequence x of Vecs, storing nothing:
    ``ring._make_ring`` files it in the polynomial ring under its reduced
    basis, so every sequence and every definition that gives that quotient
    finds the same ring.  x is checked on each call, against Hilbert series
    the cache holds after the first."""
    if not modules.is_regular_sequence(ctx, x_seq):
        raise NotRegularSequence("the sequence is not regular")
    return _make_ring(ctx.ambient(), (*(Vec(g.terms) for g in ctx.defining), *x_seq))


# ---------------------------------------------------------------------------
# depth via the ambient Koszul side


def depth(M):
    """depth(M) = min{i : Ext^i_S(k, M_S) != 0}, each index decided by
    ``ext_vanishes``.  That resolves k, not M_S, so it stays independent of
    the S-free resolution route used for pd, which makes Auslander-Buchsbaum
    a real cross-check.  It stores nothing: ``ext_hilbert`` entries serve
    a second call."""
    MS = restrict_scalars(M)
    amb = MS.ctx
    k = residue_field(amb)
    for i in range(amb.m + 1):
        if not ext_vanishes(i, k, MS):
            return i
    raise InternalConsistencyError("depth exceeded the number of variables")


def betti_table_text(res):
    """Macaulay2-style Betti table: rows are twist - homological degree."""
    table = res.betti()
    if not table:
        return "(zero module)"
    cols = sorted({i for (i, _) in table})
    rows = sorted({d - i for (i, d) in table})
    width = max(len(str(v)) for v in table.values())
    width = max(width, max(len(str(i)) for i in cols), 2)
    out = ["     " + " ".join(f"{i:>{width}}" for i in cols)]
    for r in rows:
        cells = []
        for i in cols:
            v = table.get((i, r + i), 0)
            cells.append(f"{v if v else '.':>{width}}")
        out.append(f"{r:>4} " + " ".join(cells))
    return "\n".join(out)
