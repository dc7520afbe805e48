"""Graded local cohomology through duality over the ambient polynomial ring.

No Cech complexes: the Hilbert function of H^i_m(M) at degree j is read off
as HF of Ext^{m-i}_S(M, S) at -j-w, where w is the sum of the variable
weights (the ambient canonical twist).  Restriction of scalars makes this
valid for modules over quotient rings as well; ``homalg.dual_hilbert``
gives that Ext.  Every Ext here is read as numbers only, so it comes from
``homalg.ext_hilbert`` or ``ext_vanishes`` and no Ext module is built.
"""

from __future__ import annotations

from collections import namedtuple

from . import modules, verdict
from .errors import InternalConsistencyError, InvalidInput, ZeroDimensional
from .homalg import (
    change_of_rings,
    dual_hilbert,
    ext_hilbert,
    ext_vanishes,
    graded_betti,
    residue_field,
    transpose,
)
from .linkage import canonical_module
from .modules import free_module, invariants, transport


class LocalCohomologyHF(
    namedtuple("LocalCohomologyHF", "index hf finite_length")
):
    __slots__ = ()

    def to_json(self):
        return {
            "index": self.index,
            "finite_length": self.finite_length,
            "hf": [{"degree": d, "value": v} for d, v in sorted(self.hf.items())],
        }


def local_cohomology_hf(M, i, window):
    """Hilbert function table of H^i_m(M) on the window."""
    E = dual_hilbert(M.ctx.m - i, M)
    wsum = sum(M.ctx.weights)
    lo, hi = window
    table = {j: E.hf(-j - wsum) for j in range(lo, hi + 1)}
    finite = E.dim <= 0
    return LocalCohomologyHF(i, table, finite)


def local_cohomology_is_zero(M, i):
    """Exact vanishing of H^i_m(M), window-free (module-level dual test)."""
    return dual_hilbert(M.ctx.m - i, M).is_zero()


def grothendieck_band_check(M):
    """H^i = 0 outside [depth, dim], nonzero at both ends."""
    rep = invariants(M)
    m = M.ctx.m
    for i in range(m + 1):
        nonzero = not local_cohomology_is_zero(M, i)
        expected_possible = rep.depth <= i <= rep.dim
        if nonzero and not expected_possible:
            raise InternalConsistencyError(f"H^{i} nonzero outside the band")
        if i in (rep.depth, rep.dim) and not nonzero:
            raise InternalConsistencyError(f"H^{i} vanished at a band endpoint")
    return verdict.holds(detail=f"band [{rep.depth}, {rep.dim}]")


def serre_st_proxy(M, K, t):
    """Ext^i(Tr_K M, K) = 0 for 1 <= i <= t.

    Under finite K-Gorenstein dimension hypotheses this is equivalent to the
    depth condition min{t, depth R_p} at every prime; otherwise it remains a
    sufficient condition and reports say so.
    """
    if t < 1:
        raise InvalidInput("the torsionfreeness level t must be at least 1")
    Tr, _ = transpose(M, K)
    for i in range(1, t + 1):
        if not ext_vanishes(i, Tr, K):
            return verdict.fails(witness=f"Ext^{i}(Tr M, K) != 0")
    return verdict.holds(detail=f"torsionfree to level {t}")


def is_generalized_cm(M):
    """Finite length of every H^i below the dimension."""
    rep = invariants(M)
    if rep.dim is None or rep.dim < 1:
        raise ZeroDimensional("generalized CM is about positive dimension")
    for i in range(rep.dim):
        if dual_hilbert(M.ctx.m - i, M).dim > 0:
            return False
    return True


def bass_numbers(M, upto):
    """mu^i = total k-dimension of Ext^i_R(k, M) for 0 <= i <= upto; a
    zero Ext has dimension -1 and total length 0."""
    ctx = M.ctx
    k = residue_field(ctx)
    out = []
    for i in range(upto + 1):
        data = ext_hilbert(i, k, M)
        if data.dim > 0:
            raise InternalConsistencyError("Bass-number Ext has positive dimension")
        out.append(data.total_length())
    return out


def ring_bass_numbers(ctx, upto):
    """mu^i(m, R) for 0 <= i <= upto.  For a Cohen-Macaulay R of dimension
    d they are 0 below d and mu^{i+d} = beta_i(ω) (Bruns-Herzog 3.3), read
    from ``graded_betti`` of the canonical module, which over R/(x)
    resolves far faster than Ext^i(k, R) over R; any other R takes
    ``bass_numbers`` of R."""
    if not modules.ring_is_cm(ctx):
        return bass_numbers(free_module(ctx, 1), upto)
    d = modules.ring_dim(ctx)
    shifts, _ = graded_betti(canonical_module(ctx), max(upto - d, 0))
    mu = [0] * d + [len(level) for level in shifts]
    return (mu + [0] * upto)[: upto + 1]


def ring_type(ctx):
    """The Cohen-Macaulay type: mu^{depth R}(R)."""
    dep = modules.ring_depth(ctx)
    return ring_bass_numbers(ctx, dep)[dep]


# ---------------------------------------------------------------------------
# the two theorem-level dual checks on linked pairs


def schenzel_check(M, N, K, c_seq, t):
    """Serre-condition level of M against the cohomology band of N, for c
    a regular sequence of Vecs as long as the common grade of M and N:
    ``change_of_rings`` reads the grade from that length.

    Both sides are evaluated independently: the torsionfreeness proxy of M
    over R/(c) with the moved semidualizing module, and the vanishing of
    H^i_m(N) for dim N - t < i < dim N.  A disagreement is a build-stopping
    consistency failure; agreement yields Holds/Fails per the common answer.
    """
    ctx = M.ctx
    if t < 1:
        raise InvalidInput("t must be at least 1")
    ctx2, Kbar = change_of_rings(ctx, c_seq, K)
    Mbar = transport(M, ctx2)
    left = serre_st_proxy(Mbar, Kbar, t)
    dN = invariants(N).dim
    band = [i for i in range(max(dN - t + 1, 0), dN)]
    right_bad = None
    for i in band:
        if not local_cohomology_is_zero(N, i):
            right_bad = i
            break
    right = (
        verdict.holds(detail=f"H^i(N)=0 for {band}")
        if right_bad is None
        else verdict.fails(witness=f"H^{right_bad}(N) != 0")
    )
    if left.holds() != right.holds():
        raise InternalConsistencyError(
            f"Serre/cohomology biconditional failed at t={t}: "
            f"left={left.status}, right={right.status}"
        )
    if left.holds():
        return verdict.holds(detail=f"both sides hold at t={t}")
    return verdict.fails(
        witness=f"both sides fail at t={t}", detail=f"{left.witness}; {right.witness}"
    )


def duality_check(M, N, i, window):
    """Graded Matlis duality between H^i(M) and H^{d-i}(N) on the window.

    Degrees are matched by HF_{H^i(M)}(j) = HF_{H^{d-i}(N)}(-j), the Matlis
    convention (X^dual)_j = (X_{-j})^*; d is the common dimension.
    """
    dM = invariants(M).dim
    dN = invariants(N).dim
    if dM != dN:
        return verdict.fails(witness=f"dimensions differ: {dM} vs {dN}")
    lo, hi = window
    left = local_cohomology_hf(M, i, window)
    right = local_cohomology_hf(N, dM - i, (-hi, -lo))
    if all(left.hf[j] == right.hf[-j] for j in range(lo, hi + 1)):
        return verdict.holds(detail=f"indices [{i}]")
    return verdict.fails(witness=f"mismatch at H^[{i}]")


def torsionfree_duality_check(M, K, t, window):
    """H^i_m(M) agrees with Ext^{i+1}(Tr_K M, K) for 0 <= i <= t-1.

    Valid for modules passing the level-t torsionfreeness proxy on the
    punctured spectrum; both sides are computed independently and compared
    as graded Hilbert functions on the window.
    """
    Tr, _ = transpose(M, K)
    lo, hi = window
    for i in range(t):
        lhs = local_cohomology_hf(M, i, window)
        E = ext_hilbert(i + 1, Tr, K)
        for j in range(lo, hi + 1):
            if lhs.hf[j] != E.hf(j):
                return verdict.fails(witness=f"index {i}, degree {j}")
    return verdict.holds(detail=f"levels 0..{t - 1}")
