"""Poly-level forms of the engine-vector API, for tests written with Poly.

Modules and engines take and give ``Vec``s (see ``liaison.groebner``);
these helpers flatten Poly columns with ``_to_internal`` and read results
back with ``_polys``, the two conversions the package keeps for parsing and
printing.  ``vec_combine`` here is the Poly product sum the package used
before its vectors were engine vectors.
"""

from liaison import groebner
from liaison.errors import InhomogeneousInput
from liaison.groebner import _polys, _to_internal
from liaison.modules import GradedModule


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


def engine_syzygies(eng):
    return [_polys(eng.ctx, u, eng.track) for u in groebner.engine_syzygies(eng)]


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
    return M.express_in_gens(_to_internal(M.ctx, vec, M.rank))


def diffs(ctx, res, k):
    """The k-th differential of a resolution as Poly columns."""
    return [_polys(ctx, u, res.rank(k - 1)) for u in res.diffs[k - 1]]
