"""Minimal graded free resolutions, Ext and Tor, transposes and the
obstructions to the double Ext-dual comparison map.

Resolutions are built by iterated syzygy computation with minimal generating
sets at every step, so differentials land in the maximal ideal and Betti
numbers read off directly.  Over R = S/J resolutions may be infinite; every
operation takes the finite length it needs and records the truncation.
Each length is its own immutable memo entry, one level longer than the
entry below it, so what a length gives never depends on what was resolved
before, and threads share resolutions without a lock.

``tor_vanishes`` and ``ext_vanishes`` answer whether Tor_i or Ext^i is zero
without building it: the homology's Hilbert series is that of the middle
term less those of the incoming and outgoing images, each image's from the
lead terms of an untracked Groebner basis.  Over positive weights a graded
module is zero exactly when its Hilbert series is.  ``ext_hilbert`` returns
that series as HilbertData, for the callers that read Ext only as numbers:
depth, Bass numbers, local cohomology, the bidual obstructions and the
depth-formula, even-liaison, grade and horizontal-linkage checks.

That basis comes from ``_image_engine``, which builds no direct sum or map:
it seeds an engine with block copies of N's reduced relation basis, one per
summand N(±d) of the target, and reduces only the image columns, formed
from the differential and N's generators.

Into the canonical module ω_R of a Cohen-Macaulay R = S/J of codimension
c, ``ext_vanishes`` works over S instead: Ext^q_S(R, ω_S) is ω_R for q = c
and zero otherwise, so the change-of-rings spectral sequence collapses to
Ext^i_R(M, ω_R) = Ext^{i+c}_S(M, ω_S) (Bruns-Herzog 3.3), and ω_S is a
twist of S.  Over S resolutions stop within dim S steps, where over a
non-Gorenstein R they need not stop at all.  K is recognized as the module
``linkage.canonical_module`` stored for its ring, which is built only after
R passed the CM check.

``change_of_rings`` is the one change of rings: for a regular sequence x
it builds R/(x) from the polynomials themselves, stores it for R under the
sorted rendered sequence, and moves K to Ext^n(R/(x), K).  The quotient
route of the bidual obstructions and ``cohomology.schenzel_check`` both
call it, so every caller passing to R/(x) with the same x shares one ring
and every result cached over it.

Both complexes follow one degree convention, Hom(R(-d), N) = N(d) and
R(-d) (x) N = N(-d), so every term is a block sum ⊕ N(d_b) and
``_induced`` gives the shape of every map between terms: d (x) N is Hom of
the transpose of d, with the degrees negated.  ``ext`` and ``tor`` share
``_homology``: its cycles are the kernel of the map out of the middle term
(the whole middle term, less zero columns, when there is none) and its
relations the image engine of the map into it, interreduced.
"""

from __future__ import annotations

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
from .groebner import HilbertData, _add_series, vec_degree, vec_is_zero
from .ring import _memo, _memoized, make_ring, render_poly
from .modules import (
    GradedModule,
    ModuleMap,
    _dual_map,
    _hom_sum,
    cokernel,
    cyclic_module,
    free_module,
    image,
    kernel,
    ring_dim,
    subquotient,
    zero_map,
    zero_module,
)

# ---------------------------------------------------------------------------
# resolutions


class Resolution(namedtuple("Resolution", "kept level_shifts diffs complete")):
    """An initial segment of the minimal graded free resolution of a module.

    ``diffs[k]`` is the matrix of F_{k+1} -> F_k, stored as columns of
    coordinates over the basis of F_k; ``level_shifts[k]`` are the generator
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
    kept = tuple(groebner.minimal_generator_indices(
        list(M.gens), M.ctx, M.rank, M.shifts, M.rels_gb().basis
    ))
    degs = M.gen_degrees()
    return Resolution(kept, (tuple(degs[i] for i in kept),), (), not kept)


def _next_level(M, prev):
    """The resolution one level longer than ``prev``, which is incomplete:
    the minimal syzygies of its last differential (of F_0 -> M at level 1)."""
    if len(prev.level_shifts) == 1:
        cols = [M.gens[i] for i in prev.kept]
        rank, shifts, extra = M.rank, M.shifts, M.rels
    else:
        cols, shifts, extra = prev.diffs[-1], prev.level_shifts[-2], ()
        rank = len(shifts)
    syz = groebner.syzygies(cols, M.ctx, rank, shifts, extra=extra)
    if not syz:
        return prev._replace(complete=True)
    for u in syz:
        for entry in u:
            if entry and entry.degree() == 0:
                raise InternalConsistencyError(
                    "non-minimal differential: unit entry survived"
                )
    shifts_k = tuple(vec_degree(u, prev.level_shifts[-1]) for u in syz)
    return prev._replace(
        level_shifts=prev.level_shifts + (shifts_k,), diffs=prev.diffs + (tuple(syz),)
    )


def restrict_scalars(M):
    """The same module viewed over the ambient polynomial ring S.

    The stored relations already contain J times the ambient basis (they are
    a reduced basis of rels + J), so only the context changes.
    """
    ctx = M.ctx
    if not ctx.defining:
        return M
    amb = ctx.ambient()
    gens = [tuple(amb.lift_poly(f) for f in col) for col in M.gens]
    rels = [tuple(amb.lift_poly(f) for f in col) for col in M.rels]
    return GradedModule(amb, M.rank, M.shifts, gens, rels)


def residue_field(ctx):
    return _memo(ctx, "residue_field", lambda: cyclic_module(ctx, ctx.gens()))


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


def syzygy(M, n):
    """The n-th syzygy module: image of the n-th differential (n = 0: M).

    For n >= 1 this is the submodule of the free module F_{n-1} generated by
    the columns of the n-th differential.
    """
    if n < 0:
        raise InvalidInput(f"syzygy index must be at least 0, got {n}")
    if n == 0:
        return M
    res = free_resolution(M, n)
    if n >= len(res.level_shifts) or not res.rank(n):
        return zero_module(M.ctx)
    return subquotient(
        M.ctx, res.diffs[n - 1], [], res.level_shifts[n - 1], res.rank(n - 1)
    )


# ---------------------------------------------------------------------------
# the Hom and tensor complexes, Ext and Tor


def _induced(functor, k, res):
    """The shape of the map d_k: F_k -> F_{k-1} induces on the complex of
    F(M) with N: (source degrees, target degrees, rows).  It maps
    ⊕_b N(src[b]) -> ⊕_c N(tgt[c]), block b's x to ⊕_c rows[b][c] x, under
    Hom(R(-d), N) = N(d) and R(-d) (x) N = N(-d).  For "tor" it is
    d_k (x) N: F_k (x) N -> F_{k-1} (x) N, rows the columns of d_k; for
    "ext" Hom(d_k, N): Hom(F_{k-1}, N) -> Hom(F_k, N), rows the rows of d_k.
    Without d_k (k = 0, or F_k = 0) there are no rows."""

    def degs(j):
        return res.level_shifts[j] if 0 <= j < len(res.level_shifts) else ()

    d = res.diffs[k - 1] if 0 < k <= len(res.diffs) else []
    if functor == "tor":
        return [-e for e in degs(k)], [-e for e in degs(k - 1)], d
    return list(degs(k - 1)), list(degs(k)), list(zip(*d))


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
    relations, from ``_image_engine``, interreduced."""
    ctx = M.ctx
    if M.is_zero() or N.is_zero():
        return zero_module(ctx)
    res = free_resolution(M, i + 1)
    if not res.rank(i):
        return zero_module(ctx)
    out_k, in_k = (i + 1, i) if functor == "ext" else (i, i + 1)
    src, tgt, rows = _induced(functor, out_k, res)
    if rows:
        cycles = kernel(_dual_map(N, src, tgt, rows)[0])[0].gens
    else:
        cycles = [col for col in _hom_sum(N, src).gens if not vec_is_zero(col)]
    eng = _image_engine(functor, in_k, M, N, res)
    eng.interreduce()
    H = GradedModule(ctx, eng.rank, eng.shifts, cycles, eng.vectors())
    _memo(H, "rels_gb", lambda: eng)
    return H


# ---------------------------------------------------------------------------
# vanishing of Ext and Tor from Hilbert series


def tor_vanishes(i, M, N):
    """Whether Tor_i^R(M, N) = 0, decided without building the module."""
    if i < 0:
        raise InvalidInput(f"Tor index must be at least 0, got {i}")
    return _memo(M, ("tor_vanishes", i, N), lambda: _vanishes("tor", i, M, N))


def ext_vanishes(i, M, N):
    """Whether Ext^i_R(M, N) = 0, decided without building the module."""
    if i < 0:
        raise InvalidInput(f"Ext index must be at least 0, got {i}")
    return _memo(M, ("ext_vanishes", i, N), lambda: _vanishes("ext", i, M, N))


def ext_hilbert(i, M, N):
    """The HilbertData of Ext^i_R(M, N), without building the module."""
    if i < 0:
        raise InvalidInput(f"Ext index must be at least 0, got {i}")
    return _memo(
        M, ("ext_hilbert", i, N), lambda: HilbertData(M.ctx, _series("ext", i, M, N))
    )


def _vanishes(functor, i, M, N):
    """Whether the homology is zero: over positive weights a graded module
    is zero exactly when its Hilbert series is."""
    if functor == "ext" and N == _memoized(N.ctx, "canonical_module"):
        # Ext^i_R(M, ω_R) = Ext^{i+c}_S(M, ω_S), c = codim R (module docstring)
        MS = restrict_scalars(M)
        c = MS.ctx.m - ring_dim(N.ctx)
        return ext_vanishes(i + c, MS, free_module(MS.ctx, 1))
    return not _series(functor, i, M, N)


def _series(functor, i, M, N):
    """Hilbert numerator of the homology at the middle of B_in -> B -> B_out
    of the tensor ("tor") or dual ("ext") complex of F(M) with N, where
    B = F_i (x) N or Hom(F_i, N): HS(B) - HS(image in B) - HS(image in
    B_out)."""
    if M.is_zero() or N.is_zero():
        return {}
    res = free_resolution(M, i + 1)
    if not res.rank(i):
        return {}
    series = {}
    hs_n = N.hilbert().numerator
    # the middle term is the source of the map out of it: Hom(d_{i+1}, N)
    # or d_i (x) N
    for d in _induced(functor, i + 1 if functor == "ext" else i, res)[0]:
        _add_series(series, hs_n, -d)
    # the Tor differential d_k (x) N lands in level k - 1, Hom(d_k, N) in level k
    for k in (i, i + 1):
        _add_series(series, _image_series(functor, k, M, N, res), sign=-1)
    return series


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
        for d in _induced(functor, k, res)[1]:
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
    (J*B included), so they seed the engine and only the image columns,
    built here from the rows of the map and N's generators, are reduced.
    Without d_k (k = 0, or F_k = 0) the engine holds R alone.  Not
    interreduced.
    """
    r = N.rank
    _, tgt, rows = _induced(functor, k, res)
    shifts = tuple(s - d for d in tgt for s in N.shifts)
    eng = groebner.ModuleGB(M.ctx, len(tgt) * r, shifts)
    eng._seed(
        [{b * r + q: d for q, d in vec.items()}
         for b in range(len(tgt)) for vec in N.rels_gb().basis]
    )
    gens = [[(q, g) for q, g in enumerate(col) if g] for col in N.gens]
    cols = []
    for row in rows:
        for entries in gens:
            vec = {}
            for b, c in enumerate(row):
                if c:
                    for q, g in entries:
                        vec[b * r + q] = (c * g).terms
            if vec:
                cols.append(vec)
    eng.add_generators(cols)
    return eng


# ---------------------------------------------------------------------------
# chain maps and induced maps on Ext


def lift_chain_map(f, length):
    """Lift f: M -> M' to chain maps F_k(M) -> F_k(M'), k <= length.

    Returns a list of matrices (columns = coords over the F_k(M') basis).
    Squares commute by construction; failure to lift is an internal error.
    """
    M, Mp = f.source, f.target
    ctx = M.ctx
    res = free_resolution(M, length)
    resp = free_resolution(Mp, length)
    f0_cols = [M.gens[i] for i in res.kept]
    fp0_cols = [Mp.gens[i] for i in resp.kept]
    # f_0: image of each minimal generator of M, expressed over Mp's minimal ones
    images = [Mp.coords_to_ambient(f.mat[i]) for i in res.kept]
    sol, bad = groebner.lift_through(
        fp0_cols, images, ctx, Mp.rank, Mp.shifts, extra=Mp.rels
    )
    if sol is None:
        raise LiftFailed(f"cannot express image of generator {bad}")
    maps = [list(sol)]
    for k in range(1, length + 1):
        if not res.rank(k):
            maps.append([])
            continue
        if not resp.rank(k):
            raise LiftFailed("target resolution too short for a nonzero source level")
        dk = res.diffs[k - 1]
        dpk = resp.diffs[k - 1]
        prev = maps[k - 1]
        targets = []
        for u in dk:
            targets.append(
                modules.vec_combine(prev, u, ctx, resp.rank(k - 1))
            )
        sol, bad = groebner.lift_through(
            dpk,
            targets,
            ctx,
            resp.rank(k - 1),
            resp.level_shifts[k - 1],
        )
        if sol is None:
            raise LiftFailed(f"chain lift failed at level {k}, column {bad}")
        maps.append(list(sol))
    return maps


def ext_induced(i, f, N):
    """The contravariant induced map Ext^i(M', N) -> Ext^i(M, N)."""
    M, Mp = f.source, f.target
    ctx = M.ctx
    E_tgt = ext(i, M, N)  # Ext^i(M, N)
    E_src = ext(i, Mp, N)  # Ext^i(M', N)
    if E_src.is_zero() or E_tgt.is_zero():
        return zero_map(E_src, E_tgt)
    f_i = lift_chain_map(f, i)[i]
    # a generator of Ext^i(M', N) is phi in Hom(F_i(M'), N), one block of
    # width N.rank per basis element of F_i(M'); precomposition with f_i
    # gives the block phi(f_i(e_j)) of Hom(F_i(M), N) for each column of f_i
    r = N.rank
    cols = []
    for phi in E_src.gens:
        blocks = [phi[b:b + r] for b in range(0, len(phi), r)]
        cols.append(
            tuple(x for col in f_i for x in modules.vec_combine(blocks, col, ctx, r))
        )
    sol, bad = groebner.lift_through(
        list(E_tgt.gens),
        cols,
        ctx,
        E_tgt.rank,
        E_tgt.shifts,
        extra=E_tgt.rels,
    )
    if sol is None:
        raise InternalConsistencyError(
            f"induced class escaped the Ext module (column {bad})"
        )
    return ModuleMap(E_src, E_tgt, list(sol), f.degree, check=False)


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
    if M.is_zero():
        return zero_module(ctx), zero_module(ctx)
    res = free_resolution(M, 1)
    if not res.rank(1):
        return zero_module(ctx), zero_module(ctx)
    h, _, _ = _dual_map(K, *_induced("ext", 1, res))
    Tr, _ = cokernel(h)
    lam, _ = image(h)
    return Tr, lam


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
    Tr, KK, j = _obstruction_transpose(M, K, n, "auto")
    return ext_hilbert(j, Tr, KK), ext_hilbert(j + 1, Tr, KK)


def kernel_obstruction_vanishes(M, K, n):
    """Whether ``bidual_obstructions(M, K, n)[0]`` is zero, decided by
    ``ext_vanishes`` alone (over S when K' is the canonical module)."""
    Tr, KK, j = _obstruction_transpose(M, K, n, "auto")
    return Tr.is_zero() or ext_vanishes(j, Tr, KK)


def _obstruction_transpose(M, K, n, route):
    """(Tr, K', j): the obstructions are Ext^j(Tr, K') and Ext^{j+1}(Tr, K').

    The direct route gives the transpose of the n-th syzygy, K and n + 1;
    the quotient route (n > 0) the transpose over R/(x), K's image there
    and 1.  Tr may be zero, over the ring of the route taken.
    """
    g = modules.grade(M)
    if g != n:
        raise GradeMismatch(f"module has grade {g}, expected {n}")
    if route == "auto":
        route = "quotient" if n > 0 else "direct"
    if route == "quotient" and n > 0:
        try:
            seq = regular_sequence_in_ideal(M.ctx, modules.annihilator(M), n)
        except RegularSequenceNotFound:
            pass
        else:
            ctx2, Kbar = change_of_rings(M.ctx, seq, K)
            Tr, _ = transpose(modules.transport(M, ctx2), Kbar)
            return Tr, Kbar, 1
    Om = syzygy(M, n)
    if Om.is_zero():
        return Om, K, n + 1
    Tr, _ = transpose(Om, K)
    return Tr, K, n + 1


_MAX_SCALE = 3


def regular_sequence_in_ideal(ctx, i_gens, n):
    """Deterministic search for a regular sequence of length n inside I.

    Scalar combinations of the equal-degree generators are enumerated with
    coefficients in {0, +-1, ..., +-s}, s escalating to _MAX_SCALE; every
    prefix is verified exactly via the grade.
    """
    import itertools

    if n < 0:
        raise InvalidInput(f"regular sequence length must be at least 0, got {n}")
    i_gens = [ctx.lift_poly(f) for f in i_gens if f]
    if not i_gens or modules.grade(cyclic_module(ctx, i_gens)) < n:
        raise RegularSequenceNotFound(f"ideal has grade below {n}", budget=_MAX_SCALE)
    by_degree = {}
    for f in i_gens:
        by_degree.setdefault(f.homogeneous_degree(), []).append(f)
    chosen = []
    for _ in range(n):
        found = None
        for s in range(1, _MAX_SCALE + 1):
            coeffs = [0] + [c for k in range(1, s + 1) for c in (k, -k)]
            for d in sorted(by_degree):
                basis = by_degree[d]
                for combo in itertools.product(coeffs, repeat=len(basis)):
                    if all(c == 0 for c in combo):
                        continue
                    f = ctx.zero()
                    for c, gpol in zip(combo, basis):
                        if c:
                            f = f + gpol.scale(c)
                    if not f:
                        continue
                    if modules.is_regular_sequence(ctx, chosen + [f]):
                        found = f
                        break
                if found:
                    break
            if found:
                break
        if not found:
            raise RegularSequenceNotFound(
                f"no regular element found for slot {len(chosen) + 1}",
                budget=_MAX_SCALE,
            )
        chosen.append(found)
    return chosen


def change_of_rings(ctx, x_seq, K):
    """Pass to R/(x) for a regular sequence x; K moves to Ext^n(R/(x), K).

    R/(x) is stored for R under the sorted rendered sequence, so equal
    sequences share one ring.  x is checked once, when R/(x) is built; a
    homogeneous regular sequence stays regular in any order.
    """
    x_seq = [ctx.lift_poly(f) for f in x_seq if f]
    if not x_seq:
        return ctx, K

    def quotient_ring():
        if not modules.is_regular_sequence(ctx, x_seq):
            raise NotRegularSequence("the sequence is not regular")
        return make_ring(ctx.p, ctx.names, ctx.defining + tuple(x_seq), ctx.weights)

    key = ("quotient_ring",) + tuple(sorted(render_poly(f) for f in x_seq))
    ctx2 = _memo(ctx, key, quotient_ring)
    Rx = cyclic_module(ctx, x_seq)
    return ctx2, modules.transport(ext(len(x_seq), Rx, K), ctx2)


# ---------------------------------------------------------------------------
# depth via the ambient Koszul side


def depth(M):
    """depth(M) = min{i : Ext^i_S(k, M_S) != 0}, each index decided by
    ``ext_vanishes``.  That resolves k, not M_S, so it stays independent of
    the S-free resolution route used for pd, which makes Auslander-Buchsbaum
    a real cross-check."""
    return _memo(M, "depth", lambda: _depth(M))


def _depth(M):
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
