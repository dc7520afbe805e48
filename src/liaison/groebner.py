"""Buchberger engine for graded submodules of free modules over S and R = S/J.

Free-module terms are ordered position-over-term (position 0 highest) with
graded reverse lexicographic order on monomials.  Quotient rings are handled
by appending J*e_i to every generating set, so one engine serves both S and R.

An untracked engine can instead be seeded (``ModuleGB._seed``) with vectors
already known to form a reduced basis of a submodule containing J*F: a
module's relation basis, its block copies in a direct sum, or the J*e_i
themselves (``ctx.defining`` is reduced).  Seed vectors are installed as
they are, no pair among them is formed, and only the vectors fed after
them are reduced; ``minimal_generator_indices`` and the image engines of
``homalg`` work this way.

The engine optionally tracks coefficients on a prefix of the input columns.
Tracked runs yield, in one pass, the Groebner basis with expression
certificates, the syzygies of the tracked columns (reductions to zero), and a
division-with-remainder lift for arbitrary vectors.  In tracked runs no pair
is ever discarded: Buchberger's criteria are sound for basis computation but
would lose syzygy generators, so they are applied only to untracked runs.
Every lift and every syzygy the package reads comes from one stored
tracked engine of a presentation's generators modulo its relations,
complete in every degree (``GradedModule.gens_engine``), which
``tracked_engine`` returns holding only a minimal subset of its syzygies,
selected before anyone reads it; resolution levels
(``homalg.level_module``), the images kernels are taken in, and the
one-column presentations whose relations are annihilators and colon
ideals (``modules.annihilator``) are such presentations.  That engine is
only read: it is never interreduced, and each reduction works on a copy of
its vector.  ``buchberger`` likewise computes each reduced basis once per
value of its columns and rank and stores it interreduced, under its input
and under its own basis (``reduced_engine``), so a module whose relations
are that basis, or a twist of them, finds the engine by value.

Completion can stop at a degree: ``minimal_generator_indices`` completes
its engine only up to the degree of the column it reduces next, and feeds
``add_generators`` that column with its own degree as the limit, so no
caller feeds a vector above the limit it gives.  That is exact for
homogeneous input over a graded ring, the only case in which it stops
early: pairs pop by degree, an S-vector is never of lower degree than its
pair, and no basis element can reduce a vector of lower degree.  A
column is kept when its normal form is nonzero, that is when it lies
outside the columns kept before it, and a basis complete up to its degree
decides that.  Such an engine is never stored, and it refuses to reduce a
vector above its bound.

A vector is one dict ``{key: coeff}``, the ring's packed monomial (see
``ring``) with its position packed above it (see ``ModuleGB``): a term
product is one integer addition, a divisor test one mask test, and a normal
form one loop popping keys from a heap (Monagan-Pearce, CASC 2007).  A
certificate rides in its vector's dict, under negative keys, and a syzygy
is a vector of its own rank-``track`` engine, as in a Schreyer frame
(Erocal-Motsak-Schreyer-Steenpass, JSC 2016).  Modules hold such vectors
as ``Vec``s, and an ideal is a tuple of Vecs of rank 1, so engines take and
give nothing else: ``_to_internal`` and ``_polys`` convert ``Poly`` columns
only where they are parsed or printed, and where the exported API takes
``Poly`` generators.
Each pair's and each input's degree is checked against the encoding's limit
less the lowest shift, so for graded input no monomial the engine forms
overflows into the position.
"""

from __future__ import annotations

import heapq

from .errors import (
    DegreeOverflow,
    InternalConsistencyError,
    InvalidInput,
    RingMismatch,
)
from .ring import _FIELD, _LIMIT, _SPAN, Poly, _memo, _memoized, mono_divides, mono_lcm

# ---------------------------------------------------------------------------
# vectors: one dict {key: coeff} per vector, whose keys carry the position
# above the monomial (see ModuleGB); tuples of Poly only at the edges


class Vec(dict):
    """An engine vector as modules and memo keys hold it, never written once
    shared, its hash computed once (racing threads store the same int)."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.items()))
            return h


def _to_internal(ctx, vec, rank):
    """The Vec of rank ``rank`` of a column of Poly, refusing an entry from
    another polynomial ring (``Poly`` equality ignores the ring)."""
    span = ctx._pk.span
    out = Vec()
    for pos, f in enumerate(vec):
        if f.ctx is not ctx and not ctx.same_polynomial_ring(f.ctx):
            raise RingMismatch("generator from a different ring")
        prefix = (rank - 1 - pos) << span
        out.update({prefix | mono: c for mono, c in f.terms.items()})
    return out


def _to_ideal(ctx, polys):
    """An ideal as the package holds it: its nonzero Poly generators as
    Vecs of rank 1, whose keys are the monomials."""
    return tuple(_to_internal(ctx, (f,), 1) for f in polys if f)


def _polys(ctx, vec, count):
    """A vector of rank ``count`` as a column of Poly; zeros share one Poly."""
    pk = ctx._pk
    span, mask = pk.span, pk.top - 1
    parts = {}
    for key, c in vec.items():
        parts.setdefault(count - 1 - (key >> span), {})[key & mask] = c
    zero = Poly(ctx, {})
    return tuple(Poly(ctx, parts[q]) if q in parts else zero for q in range(count))


def _lead_degree(ctx, vec, shifts):
    """The degree of a homogeneous vector of rank ``len(shifts)``, from its
    lead key; None for zero."""
    if not vec:
        return None
    pk = ctx._pk
    head = max(vec)
    return ((head & (pk.top - 1)) >> pk.shift) + shifts[len(shifts) - 1 - (head >> pk.span)]


def _axpy(data, coeff, mult, src, p, heap=None):
    """data -= coeff * t^mult * src, all mod p; each vector key (>= 0) that
    this creates goes on ``heap``, negated, when one is given."""
    c = p - coeff
    get = data.get
    for k, cb in src.items():
        key = mult + k
        old = get(key)
        if old is None:
            data[key] = c * cb % p  # nonzero: p is prime
            if heap is not None and key >= 0:
                heapq.heappush(heap, -key)
        else:
            r = (old + c * cb) % p
            if r:
                data[key] = r
            else:
                del data[key]


def _ring_columns(ctx, rank):
    """The columns J*e_i presenting the quotient ring inside S^rank, as
    internal vectors.  Since ``ctx.defining`` is a reduced basis of J, these
    form a reduced basis of J*S^rank."""
    return [{((rank - 1 - pos) << ctx._pk.span) | mono: c for mono, c in g.terms.items()}
            for pos in range(rank) for g in ctx.defining]


class ModuleGB:
    """A (possibly tracked) Groebner basis of a submodule of a free module.

    ``rank`` counts the free-module positions.  A tracked engine carries an
    expression certificate over its first ``track`` input columns in every
    vector; a reduction to zero leaves a certificate alone, filed as a syzygy,
    of which ``tracked_engine`` keeps a minimal generating subset.

    A vector is one dict ``{key: coeff}`` with ``key = ((rank - 1 - pos) <<
    span) | mono``, where ``span`` is the width of the ring's packed
    monomials (``mono < 1 << span``, see ``ring``).  Plain ``<`` on keys is
    then the position-over-term order with position 0 highest: a vector's
    lead is ``max`` of its keys, a reducer's multiplier is ``key - lead``
    (the position prefix cancels), and ``by_pos`` files the leads under
    their prefix ``key >> span``; at the last position the keys are the
    monomials themselves.  Tracked column ``j`` has the keys ``(-(j + 1)
    << span) | mono``, below every vector key.  Another rank needs the keys
    moved by a multiple of ``1 << span``: a syzygy, moved up by ``track <<
    span``, is a vector of a rank-``track`` engine.
    """

    __slots__ = (
        "ctx",
        "rank",
        "track",
        "shifts",
        "basis",
        "heads",
        "by_pos",
        "pairs",
        "pending",
        "syzygies",
        "fed",
        "use_criteria",
        "room",
        "limit",
    )

    def __init__(self, ctx, rank, shifts, track=0, track_shifts=()):
        if len(shifts) != rank or len(track_shifts) != track:
            raise InvalidInput("shift data does not match rank/track")
        self.ctx = ctx
        self.rank = rank
        self.track = track
        self.shifts = tuple(shifts) + tuple(track_shifts)
        self.basis = []  # internal vectors, certificates included
        self.heads = []  # the lead key of each basis vector
        self.by_pos = {}  # lead prefix -> [(lead exponent word, basis index)]
        self.pairs = []  # heap of (degree, i, j, lcm of the lead monomials)
        self.pending = set()
        self.syzygies = []  # reductions to zero: certificates alone (see tracked_engine)
        self.fed = 0  # input columns fed so far; the first track are tracked
        self.use_criteria = track == 0
        # a vector of degree D holds monomials of degree up to D - min(shifts)
        self.room = _LIMIT + min(self.shifts, default=0)
        # complete in every degree up to this one; None: in every degree
        self.limit = None

    @property
    def leads(self):
        """The lead of each basis vector as (position, monomial)."""
        pk = self.ctx._pk
        mask = pk.top - 1
        last = self.rank - 1
        return [(last - (h >> pk.span), h & mask) for h in self.heads]

    # -- low-level term arithmetic ---------------------------------------

    def _normal_form(self, data, reducers=None):
        """Fully reduce data in place, certificate keys included, against the
        basis, or against the ``(by_pos, heads, basis)`` given; return it.

        A heap of negated keys yields the vector keys in descending order:
        positions ascending, and in one position monomials descending.  A
        term stays when no lead at its position divides it; otherwise the
        first such basis vector reduces it.  Scaled, that vector holds no key
        above the term, so no term already taken changes: only the keys a
        step creates are pushed, and a popped key since cancelled is skipped.
        The leads of a position are looked up at its first term: the keys of
        a position are those from its ``prefix << span`` up.
        """
        by_pos, heads, basis = reducers or (self.by_pos, self.heads, self.basis)
        pk = self.ctx._pk
        low, guard, span = pk.low, pk.guard, pk.span
        p, axpy, pop = self.ctx.p, _axpy, heapq.heappop
        heap = [-key for key in data if key >= 0]
        heapq.heapify(heap)
        floor, bucket = self.rank << span, None  # above every key
        while heap:
            key = -pop(heap)
            coeff = data.get(key)
            if coeff is None:
                continue
            if key < floor:
                prefix = key >> span
                bucket = by_pos.get(prefix)
                floor = prefix << span
            if bucket:
                room = (key & low) | guard
                for lead_exps, idx in bucket:
                    if (room - lead_exps) & guard == guard:
                        axpy(data, coeff, key - heads[idx], basis[idx], p, heap)
                        break
        return data

    def _bucket(self, heads):
        """Lead prefix -> [(exponent word of the lead, basis index)]."""
        pk = self.ctx._pk
        by_pos = {}
        for idx, head in enumerate(heads):
            by_pos.setdefault(head >> pk.span, []).append((head & pk.low, idx))
        return by_pos

    def _degree(self, head):
        """The degree of a vector whose lead key is ``head``."""
        pk = self.ctx._pk
        pos = self.rank - 1 - (head >> pk.span)
        return ((head & (pk.top - 1)) >> pk.shift) + self.shifts[pos]

    # -- basis growth ------------------------------------------------------

    def _push(self, data, head):
        """File a reduced vector led by ``head``, made monic, as a basis vector."""
        c = data[head]
        if c != 1:
            p = self.ctx.p
            inv = pow(c, -1, p)
            for key in data:
                data[key] = (data[key] * inv) % p
        idx = len(self.basis)
        deg = self._degree(head)
        self.basis.append(data)
        self.heads.append(head)
        pk = self.ctx._pk
        mask = pk.top - 1
        mono = head & mask
        shift = deg - (mono >> pk.shift)  # the shift of the lead position
        bucket = self.by_pos.setdefault(head >> pk.span, [])
        for _, j in bucket:
            lcm = mono_lcm(self.heads[j] & mask, mono, self.ctx)
            pair_deg = (lcm >> pk.shift) + shift
            self._check_degree(pair_deg)
            heapq.heappush(self.pairs, (pair_deg, j, idx, lcm))
            self.pending.add((j, idx))
        bucket.append((head & pk.low, idx))

    def _check_degree(self, deg):
        """Refuse a vector degree whose monomials could reach the limit."""
        if deg >= self.room:
            raise DegreeOverflow(
                f"vector degree {deg} with shifts down to {self.room - _LIMIT} "
                f"reaches the monomial limit {_LIMIT}"
            )

    def _seed(self, vectors):
        """Install internal vectors that already form a reduced Groebner basis
        of a submodule containing J*F, as the engine's first basis elements.

        No pair among them is formed: none enters ``pending``, which
        ``_criteria_skip`` reads as treated, and indeed each reduces to zero.
        Pairs with every later element form as usual.  The vectors are
        shared, not copied, and the engine never writes to them.
        """
        if self.basis:
            raise InternalConsistencyError("only an empty engine can be seeded")
        pk = self.ctx._pk
        for data in vectors:
            head = max(data)
            self._check_degree(self._degree(head))
            self.by_pos.setdefault(head >> pk.span, []).append(
                (head & pk.low, len(self.basis))
            )
            self.basis.append(data)
            self.heads.append(head)

    def add_generators(self, vectors, limit=None):
        """Feed internal vectors of this engine's rank, certificates left
        out, into the basis, then complete with Buchberger's algorithm, up
        to degree ``limit`` when one is given.  The first ``track`` vectors
        ever fed are the tracked columns.  A caller that gives a limit feeds
        no vector above it, as ``minimal_generator_indices`` feeds one
        column at that column's degree; a limit is sound only for
        homogeneous input over a graded ring."""
        span = self.ctx._pk.span
        for vec in vectors:
            data = dict(vec)
            column = self.fed
            self.fed += 1
            if data:
                self._check_degree(self._degree(max(data)))
            if column < self.track:
                data[-(column + 1) << span] = 1  # the column's own certificate
            self._absorb(self._normal_form(data))
        self._complete(limit)

    def _absorb(self, data):
        """File a fully reduced vector as basis element, or, when its lead is
        a certificate key, as syzygy, moved to the tracked columns' engine."""
        if data:
            head = max(data)
            if head >= 0:
                # a copy: a reduction's dict keeps room for every key it held
                self._push(dict(data), head)
            else:
                up = self.track << self.ctx._pk.span
                self.syzygies.append({key + up: c for key, c in data.items()})

    def _criteria_skip(self, i, j, lcm):
        pk = self.ctx._pk
        hi = self.heads[i]
        if self.rank == 1:
            mask = pk.top - 1
            if lcm == (hi & mask) + (self.heads[j] & mask):
                return True  # coprime leads; valid for ideals only
        guard = pk.guard
        room = (lcm & pk.low) | guard
        for lead_exps, k in self.by_pos[hi >> pk.span]:
            if k in (i, j) or (room - lead_exps) & guard != guard:
                continue
            a, b = min(i, k), max(i, k)
            c, d = min(j, k), max(j, k)
            if (a, b) not in self.pending and (c, d) not in self.pending:
                return True
        return False

    def _complete(self, limit=None):
        """Treat the pairs of degree up to ``limit`` (all pairs when None).

        Pairs pop by degree, and an S-vector is never of lower degree than
        its pair, so the basis is then complete in every degree <= limit.
        """
        pairs = self.pairs
        while pairs and (limit is None or pairs[0][0] <= limit):
            _, i, j, lcm = heapq.heappop(pairs)
            self.pending.discard((i, j))
            if self.use_criteria and self._criteria_skip(i, j, lcm):
                continue
            self._absorb(self._normal_form(self._s_vector(i, j, lcm)))
        self.limit = limit

    def _s_vector(self, i, j, lcm):
        """t * basis[i] - t' * basis[j], with t * lead_i = t' * lead_j = lcm,
        certificate included."""
        mask = self.ctx._pk.top - 1
        mult = lcm - (self.heads[i] & mask)
        mult_j = lcm - (self.heads[j] & mask)
        data = {mult + k: c for k, c in self.basis[i].items()}
        _axpy(data, 1, mult_j, self.basis[j], self.ctx.p)
        return data

    # -- finishing ---------------------------------------------------------

    def interreduce(self):
        """Auto-reduce an untracked engine to the unique reduced basis
        (monic, sorted).

        Same-degree distinct leads never divide each other, so one ascending
        pass by degree extracts the minimal lead set.
        """
        if self.track:
            raise InvalidInput("a tracked engine is never interreduced")
        span = self.ctx._pk.span
        keep = []
        by_degree = sorted(range(len(self.basis)), key=lambda i: (self._degree(self.heads[i]), i))
        for idx in by_degree:
            head = self.heads[idx]
            if any(
                self.heads[j] >> span == head >> span
                and mono_divides(self.heads[j], head, self.ctx)
                for j in keep
            ):
                continue
            keep.append(idx)
        keep.sort(key=lambda i: -self.heads[i])
        heads = [self.heads[i] for i in keep]
        basis = [self.basis[i] for i in keep]
        reducers = (self._bucket(heads), heads, basis)
        new_basis = []
        for head, vec in zip(heads, basis):
            # Among the kept leads only a vector's own lead divides its lead
            # term, and it divides no smaller term: reduce the tail only.
            data = Vec(vec)
            coeff = data.pop(head)
            data = self._normal_form(data, reducers)
            data[head] = coeff
            new_basis.append(data)
        self.heads = heads
        self.basis = new_basis
        self.by_pos = reducers[0]

    # -- queries -----------------------------------------------------------

    def _reduced(self, vec):
        """The normal form of a copy of a vector, certificate included;
        refused above the degree a truncated engine is complete to."""
        data = dict(vec)
        if self.limit is not None and data:
            deg = self._degree(max(data))
            if deg > self.limit:
                raise InternalConsistencyError(
                    f"vector of degree {deg} reduced by an engine complete "
                    f"only up to degree {self.limit}"
                )
        return self._normal_form(data)

    def normal_form(self, vec):
        """The normal form of a vector of this engine's rank."""
        data = self._reduced(vec)
        return {key: c for key, c in data.items() if key >= 0} if self.track else data

    def reduce_with_certificate(self, vec):
        """Return (remainder, coeffs) with vec = sum(coeffs*tracked) + rem,
        coeffs a Vec of rank ``track``."""
        if not self.track:
            raise InvalidInput("certificates require a tracked engine")
        p, up = self.ctx.p, self.track << self.ctx._pk.span
        rem, coeffs = {}, Vec()
        for key, c in self._reduced(vec).items():
            if key >= 0:
                rem[key] = c
            else:
                coeffs[key + up] = p - c
        return rem, coeffs

    def contains(self, vec):
        return not self.normal_form(vec)


# ---------------------------------------------------------------------------
# high-level entry points


def buchberger(columns, ctx, rank, shifts=None, rels=None):
    """Reduced Groebner basis, of Vecs, of <columns> + J*e_i for Vecs of
    rank ``rank``, computed once per value of the columns and rank (shifts
    order no term, so every shift gives one basis), filed under the basis
    too (``reduced_engine``), and only read afterwards.  With ``rels`` (a
    module's relations) it is the basis of <columns> + <rels> + J*e_i,
    filed under columns + rels, as the reduced basis is unique: the engine
    starts from the reduced basis of <rels> + J*e_i, which ``buchberger``
    holds, and is fed the columns alone.  Inhomogeneous generators are
    tolerated (degree-based pair selection degrades to a heuristic);
    graded arithmetic is one layer up."""
    columns = tuple(columns)
    shifts = (0,) * rank if shifts is None else shifts

    def compute():
        eng = ModuleGB(ctx, rank, shifts)
        if rels is None:
            eng.add_generators(list(columns) + _ring_columns(ctx, rank))
        else:
            eng._seed(buchberger(rels, ctx, rank, shifts).basis)
            eng.add_generators(columns)
        return reduced_engine(eng)

    return _memo(ctx, ("buchberger", rank, columns + tuple(rels or ())), compute)


def reduced_engine(eng):
    """The completed untracked engine, interreduced, as ``buchberger`` of its
    own basis B gives it: filed under (rank, B), the engine filed first
    returned, whose ``shifts`` no reader takes.  B holds the reductions of
    J*e_i, so the reduced basis of <B> + J*F is B."""
    eng.interreduce()
    return _memo(eng.ctx, ("buchberger", eng.rank, tuple(eng.basis)), lambda: eng)


def tracked_engine(ctx, columns, rank, shifts, degrees, extra=()):
    """Engine tracking certificates over the ``columns`` of these degrees,
    complete in every degree; ``extra`` vectors (for example a module's
    relations) and J*e_i ride along untracked.  Its ``syzygies``, Vecs of
    rank ``track``, are a minimal generating subset of the raw ones, which
    are dropped before the engine is returned."""
    eng = ModuleGB(ctx, rank, shifts, track=len(columns), track_shifts=degrees)
    eng.add_generators(list(columns) + list(extra) + _ring_columns(ctx, rank))
    raw = eng.syzygies
    kept = minimal_generator_indices(raw, ctx, eng.track, degrees, _ring_columns(ctx, eng.track))
    eng.syzygies = tuple(Vec(raw[i]) for i in kept)
    return eng


def minimal_generator_indices(columns, ctx, rank, shifts, seed):
    """Indices of a minimal generating subset of ``columns`` modulo the
    submodule whose reduced Groebner basis is ``seed`` (J*F included, for
    example a module's ``rels_gb().basis``), all internal vectors of a
    rank-``rank`` engine over ``shifts``, the columns homogeneous.

    Graded Nakayama: processed in ascending degree, a generator is redundant
    exactly when it lies in the submodule generated by the ones already kept
    (plus the modulus).  One incremental Groebner pass, seeded with the
    modulus, decides all of them.  Over a graded ring it is completed only
    up to the degree of the column about to be reduced, all a column of
    that degree can be reduced by.
    """
    eng = ModuleGB(ctx, rank, tuple(shifts))
    order = sorted((eng._degree(max(col)), i) for i, col in enumerate(columns) if col)
    graded = ctx.is_graded()
    eng._seed(seed)
    kept = []
    for deg, i in order:
        limit = deg if graded else None
        eng._complete(limit)
        # add_generators reduces the column once and pushes it iff nonzero
        size = len(eng.basis)
        eng.add_generators([columns[i]], limit)
        if len(eng.basis) > size:
            kept.append(i)
    kept.sort()
    return kept


# ---------------------------------------------------------------------------
# Hilbert series from lead terms (Macaulay's principle), on exponent words


def _minimal_words(words, guard):
    """The minimal ones, under divisibility, of packed exponent words
    (``key & low``, see ``ring``), ascending.  Ascending order is a linear
    extension of divisibility, so a word is kept unless a word kept before
    it divides it: one guard-bit test each."""
    kept = []
    for w in sorted(words):
        room = w | guard
        if not any((room - k) & guard == guard for k in kept):
            kept.append(w)
    return tuple(kept)


def _kpoly(words, ctx):
    """Numerator of the Hilbert series of S/(monomial ideal) over the full
    denominator prod(1 - t^w_i) (Bayer-Stillman, JSC 1992); the generators
    are packed exponent words, assumed minimal, with e_i in field i.

    Pure powers give it directly; otherwise split on a power v^e, with e
    the smallest positive exponent of v among the mixed generators,
    HS(S/I) = HS(S/(I + v^e)) + t^(e w_v) HS(S/(I : v^e)).  The colon
    subtracts min(field v, e) from field v of each word.  On both sides
    fewer mixed generators involve v, so the split is no deeper than the
    count of variables over the mixed generators, whatever the exponents.
    Memoized per ring under the set of words, looked up first and stored
    last, so that the split takes one stack frame a level.
    """
    key = ("kpoly", frozenset(words))
    res = _memoized(ctx, key)
    if res is not None:
        return res
    if 0 in words:
        return _memo(ctx, key, dict)
    # the shift of each word's highest nonzero field: a pure power has no other
    tops = [(w.bit_length() - 1) // _SPAN * _SPAN for w in words]
    mixed = [w for w, s in zip(words, tops) if w & ((1 << s) - 1)]
    if not mixed:
        res = {0: 1}
        for w, s in zip(words, tops):
            res = _poly_mul_1mt(res, ctx.weights[s // _SPAN] * (w >> s))
    else:
        v = max(
            (s for s in range(0, ctx.m * _SPAN, _SPAN)
             if any((w >> s) & _FIELD for w in mixed)),
            key=lambda s: sum(1 for w in words if (w >> s) & _FIELD),
        )
        e = min((w >> v) & _FIELD for w in mixed if (w >> v) & _FIELD)
        guard = ctx._pk.guard
        plus = _minimal_words([w for w in words if (w >> v) & _FIELD < e] + [e << v], guard)
        col = _minimal_words([w - (min((w >> v) & _FIELD, e) << v) for w in words], guard)
        res = dict(_kpoly(plus, ctx))
        _add_series(res, _kpoly(col, ctx), e * ctx.weights[v // _SPAN])
    return _memo(ctx, key, lambda: res)


def _add_series(acc, num, shift=0, sign=1):
    """acc += sign * t^shift * num for Hilbert numerators {degree: coeff};
    zero coefficients are dropped."""
    for d, c in num.items():
        d += shift
        v = acc.get(d, 0) + sign * c
        if v:
            acc[d] = v
        else:
            acc.pop(d, None)


def _poly_mul_1mt(poly, w):
    out = dict(poly)
    for d, c in poly.items():
        out[d + w] = out.get(d + w, 0) - c
        if not out[d + w]:
            del out[d + w]
    return out


class HilbertData:
    """Hilbert series numerator over prod(1-t^w_i), with dimension,
    multiplicity and Hilbert function values."""

    __slots__ = ("ctx", "numerator", "_reduced", "_drops")

    def __init__(self, ctx, numerator):
        self.ctx = ctx
        self.numerator = {d: c for d, c in numerator.items() if c}
        red = dict(self.numerator)
        drops = 0
        while red and sum(red.values()) == 0:
            lo = min(red)
            hi = max(red)
            q = {}
            acc = 0
            for d in range(lo, hi + 1):
                acc += red.get(d, 0)
                if acc:
                    q[d] = acc
            red = q
            drops += 1
        self._reduced = red
        self._drops = drops

    def is_zero(self):
        return not self.numerator

    @property
    def dim(self):
        if not self.numerator:
            return -1
        return self.ctx.m - self._drops

    @property
    def degree(self):
        """Multiplicity: reduced numerator at t = 1 over the weight product
        (an integer whenever it is one; a Fraction otherwise)."""
        total = sum(self._reduced.values())
        wprod = 1
        for w in self.ctx.weights:
            wprod *= w
        if total % wprod == 0:
            return total // wprod
        from fractions import Fraction

        return Fraction(total, wprod)

    def hf(self, d):
        return self.hf_window(d, d)[d]

    def hf_window(self, lo, hi):
        """{d: HF(d)} for lo <= d <= hi, each value a sum of table lookups."""
        num = self.numerator
        if not num or hi < min(num):
            return {d: 0 for d in range(lo, hi + 1)}
        series = _ambient_series(self.ctx, hi - min(num))
        return {d: sum(c * series[d - j] for j, c in num.items() if d >= j)
                for d in range(lo, hi + 1)}

    def total_length(self):
        """Sum of all Hilbert function values; requires dimension <= 0."""
        if not self.numerator:
            return 0
        if self.dim != 0:
            raise InvalidInput("total_length needs a finite-length module")
        return self.degree


def _ambient_series(ctx, d):
    """The coefficients of t^0..t^(n-1) in prod 1/(1 - t^w_i), for the least
    power of two n > max(d, 63), as one memo tuple per n, by prefix sums with
    stride w_i: a window of D degrees costs O(D + n * m)."""
    n = 1 << max(d, 63).bit_length()

    def compute():
        series = [1] + [0] * (n - 1)
        for w in ctx.weights:
            # multiply by 1/(1 - t^w): prefix sums with stride w
            for i in range(w, n):
                series[i] += series[i - w]
        return tuple(series)

    return _memo(ctx, ("ambient_series", n), compute)


def leadterm_hilbert(gb, rank, shifts):
    """HilbertData of F/N from the lead-term module of a reduced basis."""
    ctx, pk = gb.ctx, gb.ctx._pk
    per_pos = [[] for _ in range(rank)]
    for head in gb.heads:
        per_pos[rank - 1 - (head >> pk.span)].append(head & pk.low)
    num = {}
    for pos in range(rank):
        _add_series(num, _kpoly(_minimal_words(per_pos[pos], pk.guard), ctx), shifts[pos])
    return HilbertData(ctx, num)


# ---------------------------------------------------------------------------
# verification helpers (used by the acceptance suite)


def assert_buchberger(gb):
    """Re-verify the Buchberger criterion on an emitted basis."""
    leads = gb.leads
    for i, (pi, mi) in enumerate(leads):
        for j, (pj, mj) in enumerate(leads[:i]):
            if pi != pj:
                continue
            nf = gb._normal_form(gb._s_vector(i, j, mono_lcm(mi, mj, gb.ctx)))
            if max(nf, default=-1) >= 0:
                raise AssertionError("Buchberger criterion failed")
    return True
