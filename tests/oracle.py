"""Brute-force linear-algebra oracles, independent of the Groebner path.

Everything here works degree by degree: enumerate monomials, build the
coefficient matrix of the generators' multiples, and Gauss-eliminate over
F_p.  Slow but trustworthy; used to freeze expected values in the tests.
"""

from liaison.ring import Poly, mono_exponents, mono_from_exponents


def monomials_of_degree(ctx, d):
    """All exponent tuples of weighted degree exactly d."""
    out = []

    def rec(i, rem, acc):
        if i == ctx.m:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = ctx.weights[i]
        e = 0
        while e * w <= rem:
            rec(i + 1, rem - e * w, acc + [e])
            e += 1

    if d >= 0:
        rec(0, d, [])
    return out


def _basis_of_degree(ctx, rank, shifts, d):
    """Pairs (pos, exps) indexing the degree-d slice of the free module."""
    idx = []
    for pos in range(rank):
        for exps in monomials_of_degree(ctx, d - shifts[pos]):
            idx.append((pos, exps))
    return idx


def _row_of(ctx, col, mult_exps, index_of):
    row = [0] * len(index_of)
    for pos, f in enumerate(col):
        for mono, c in f.terms.items():
            exps = mono_exponents(mono, ctx.m)
            key = (pos, tuple(a + b for a, b in zip(exps, mult_exps)))
            row[index_of[key]] = (row[index_of[key]] + c) % ctx.p
    return row


def _eliminate(rows, p):
    """Row-reduce in place; returns (rank, pivot column list)."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def degree_slice_rank(ctx, rank, shifts, cols, d, include_ring_relations=True):
    """Dimension of the degree-d slice of <cols> (+ J*F) inside the module."""
    cols = list(cols)
    if include_ring_relations:
        for pos in range(rank):
            for g in ctx.defining:
                col = [ctx.zero()] * rank
                col[pos] = g
                cols.append(tuple(col))
    index = _basis_of_degree(ctx, rank, shifts, d)
    index_of = {key: i for i, key in enumerate(index)}
    rows = []
    for col in cols:
        degs = {f.degree() + shifts[pos] for pos, f in enumerate(col) if f}
        if not degs:
            continue
        (cdeg,) = degs
        for mult in monomials_of_degree(ctx, d - cdeg):
            rows.append(_row_of(ctx, col, mult, index_of))
    if not rows:
        return 0
    rank_, _ = _eliminate(rows, ctx.p)
    return rank_


def hf_of_quotient(ctx, rank, shifts, cols, d):
    """Hilbert function of (free module)/(<cols> + J*F) at degree d."""
    total = len(_basis_of_degree(ctx, rank, shifts, d))
    return total - degree_slice_rank(ctx, rank, shifts, cols, d)


def hf_of_subquotient(ctx, rank, shifts, gens, rels, d):
    """Hilbert function of (<gens>+<rels>+J)/(<rels>+J) at degree d."""
    sub = degree_slice_rank(ctx, rank, shifts, list(gens) + list(rels), d)
    bot = degree_slice_rank(ctx, rank, shifts, list(rels), d)
    return sub - bot


def random_homogeneous(ctx, degree, seed):
    """Deterministic pseudo-random homogeneous polynomial of given degree."""
    terms = {}
    state = seed
    for exps in monomials_of_degree(ctx, degree):
        state = (state * 1103515245 + 12345) % (2**31)
        if state % ctx.p:
            terms[mono_from_exponents(exps, ctx.weights)] = state % ctx.p
    return Poly(ctx, terms)


def is_member(ctx, rank, shifts, cols, vec):
    """Membership of vec in <cols> + J*F, decided by rank comparison."""
    degs = {f.degree() + shifts[pos] for pos, f in enumerate(vec) if f}
    if not degs:
        return True
    (d,) = degs
    base = degree_slice_rank(ctx, rank, shifts, cols, d)
    ext = degree_slice_rank(ctx, rank, shifts, list(cols) + [vec], d)
    return base == ext
