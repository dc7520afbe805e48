"""Exact sparse polynomial arithmetic over prime fields with graded orders.

A monomial with exponents ``e[0..m-1]`` and weighted degree ``wdeg`` is one
Python int, ``key = (order << E) | exps`` (the grevlex packing of
Monagan-Pearce, "Sparse polynomial division using a heap", JSC 2011):

* ``order`` holds ``B``-bit fields, most significant first: ``wdeg``,
  ``wdeg - e[m-1]``, ..., ``wdeg - e[m-1] - ... - e[1]``;
* ``exps`` holds ``e[i]`` in field ``i``, each ``B + 1`` bits wide with a
  guard bit on top, and ``E = m * (B + 1)``.

Every field is linear in the exponents, so plain ``<`` on keys is the
(weighted-)degree reverse lexicographic order, a product is ``a + b``, a
quotient is ``b - a``, the monomial 1 is ``0`` and the degree is
``key >> shift``.  Divisibility is one guard-bit test on the ``exps`` words.
``B`` is fixed (``_BITS``); a weighted degree at or above ``2**B`` raises
``DegreeOverflow`` where degrees grow (monomial construction and products),
and a variable weight there when the ring is built, so fields never carry
into each other.  Every key is below ``top = 1 << span``, so the bits from
``span`` up are free: the Groebner engine packs a free-module position
there, one field above the degree (see ``groebner``).

There is one ring per definition.  ``make_ring`` takes a polynomial ring
from a registry keyed by ``(p, names, weights)`` and files a quotient in
its polynomial ring's cache under the reduced basis of J, so rings built
from equal definitions are one object and share every cached value.  The
registry holds its rings weakly: a ring that nothing holds is freed, and a
quotient keeps its polynomial ring alive.
"""

from __future__ import annotations

import re
import weakref

from .errors import (
    DegreeOverflow,
    LengthMismatch,
    NonPrimeCharacteristic,
    RingMismatch,
)


DEFAULT_CHARACTERISTIC = 32003


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# monomial encoding


_BITS = 20  # B: the width of one order field; degrees stay below 2**_BITS
_SPAN = _BITS + 1  # an exponent field with its guard bit
_FIELD = (1 << _SPAN) - 1
_LIMIT = 1 << _BITS


class _Packing:
    """Layout constants of the packed monomials of one ring.

    A key is valid (all fields in range) exactly when ``key < top``: keys
    are exact sums of non-negative fields, and the top field, the weighted
    degree, bounds every other field.
    """

    __slots__ = ("shift", "span", "low", "guard", "top", "units")

    def __init__(self, weights):
        for w in weights:
            if w >= _LIMIT:  # x_i itself would not fit
                raise _overflow(w)
        m = len(weights)
        self.shift = m * _SPAN + (m - 1) * _BITS
        self.span = self.shift + _BITS
        self.low = (1 << (m * _SPAN)) - 1
        self.guard = sum(1 << (i * _SPAN + _BITS) for i in range(m))
        self.top = 1 << self.span
        # the key of x_i
        self.units = tuple(_pack([int(i == k) for k in range(m)], weights)
                           for i in range(m))


def _pack(exps, weights):
    deg = sum(w * e for w, e in zip(weights, exps))
    key = acc = deg
    for e in reversed(exps[1:]):
        acc -= e
        key = (key << _BITS) | acc
    for e in reversed(exps):
        key = (key << _SPAN) | e
    return key


def _overflow(deg):
    return DegreeOverflow(
        f"weighted degree {deg} reaches the monomial limit {_LIMIT}"
    )


def mono_divides(a, b, ctx):
    """Does a divide b?  (exponentwise a <= b, one guard-bit test)"""
    pk = ctx._pk
    return (((b & pk.low) | pk.guard) - (a & pk.low)) & pk.guard == pk.guard


def mono_lcm(a, b, ctx):
    out = b
    for i, unit in enumerate(ctx._pk.units):
        gap = ((a >> (i * _SPAN)) & _FIELD) - ((b >> (i * _SPAN)) & _FIELD)
        if gap > 0:
            out += gap * unit
    if out >= ctx._pk.top:
        raise _overflow(out >> ctx._pk.shift)
    return out


def mono_exponents(mono, m):
    """Recover the exponent vector (e_0, ..., e_{m-1})."""
    return tuple((mono >> (i * _SPAN)) & _FIELD for i in range(m))


def mono_from_exponents(exps, weights):
    deg = sum(w * e for w, e in zip(weights, exps))
    if deg >= _LIMIT:
        raise _overflow(deg)
    return _pack(exps, weights)


def compare_monomials(ea, eb, weights=None):
    """Graded reverse lexicographic comparison of two exponent vectors.

    Returns -1, 0 or 1.  Degrees are weighted when ``weights`` is given.
    """
    if len(ea) != len(eb):
        raise LengthMismatch(f"exponent vectors of length {len(ea)} vs {len(eb)}")
    w = weights or (1,) * len(ea)
    a = mono_from_exponents(ea, w)
    b = mono_from_exponents(eb, w)
    return (a > b) - (a < b)


# ---------------------------------------------------------------------------
# the memo: one cache per ring


def _memo(obj, key, compute):
    """The value of ``compute()`` cached under ``key`` for a ring or module.

    The ring's ``_cache`` is the only cache: it holds the ring's entries
    under ``key`` and a module's under ``(module, key)``.  Modules compare
    by value and there is one ring per definition (``make_ring``), so equal
    modules share every entry; entries live as long as the ring.
    Resolutions (one entry per length) and the Hilbert-series tables are
    entries like any other.  A value is stored only by the
    function that computes it (a reduced basis under its input and under
    itself, ``groebner.reduced_engine``).  A stored value is never changed
    afterwards, so no lock is needed: racing threads may each compute the
    value, and ``setdefault`` hands every one of them the first value
    stored, so callers never see two.
    """
    if type(obj) is RingCtx:
        cache = obj._cache
    else:
        cache, key = obj.ctx._cache, (obj, key)
    try:
        return cache[key]
    except KeyError:
        return cache.setdefault(key, compute())


def _memoized(ctx, key):
    """The value ``_memo`` holds under ``key`` for the ring ``ctx``, or
    None; never computes one."""
    return ctx._cache.get(key)


# ---------------------------------------------------------------------------
# ring contexts


class RingCtx:
    """An immutable context R = F_p[x_1..x_m]/J with a graded monomial order.

    ``defining`` holds the reduced Groebner basis of J (possibly empty).  All
    variables carry positive integer weights; the default weight is 1
    (standard grading).  Values are safe to share between threads.
    """

    __slots__ = ("p", "names", "weights", "m", "defining", "_pk", "_cache",
                 "_ambient", "__weakref__")

    def __init__(self, p, names, weights, defining=(), ambient=None):
        self.p = p
        self.names = tuple(names)
        self.weights = tuple(weights)
        self.m = len(self.names)
        self.defining = tuple(defining)
        self._pk = _Packing(self.weights)
        self._cache = {}
        self._ambient = ambient

    # -- basic constructors ------------------------------------------------

    def zero(self):
        return Poly(self, {})

    def var(self, i):
        return Poly(self, {self._pk.units[i]: 1})

    def gens(self):
        return [self.var(i) for i in range(self.m)]

    # -- structural helpers --------------------------------------------------

    def ambient(self):
        """The polynomial ring S underneath (J = 0): the registered ring
        whose cache holds this one (``make_ring``)."""
        return self if self._ambient is None else self._ambient

    def same_polynomial_ring(self, other):
        return (
            self.p == other.p
            and self.names == other.names
            and self.weights == other.weights
        )

    def is_graded(self):
        """True when the defining ideal is homogeneous, so R is graded.

        Groebner-level operations tolerate inhomogeneous ideals; the module
        layer requires a graded context and refuses to work otherwise.
        """
        return all(g.is_homogeneous() for g in self.defining)

    def __repr__(self):
        base = f"F_{self.p}[{','.join(self.names)}]"
        if any(w != 1 for w in self.weights):
            base += f" weights={self.weights}"
        if self.defining:
            base += f" / ({', '.join(render_poly(g) for g in self.defining)})"
        return base


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Sparse polynomial: dict from encoded monomial to coefficient in F_p.
    No code writes ``terms`` after a Poly is built, so the first ``__hash__``
    keeps its value; two threads racing there store the same int."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms
        self._hash = None

    def _check(self, other):
        if self.ctx is not other.ctx and not (
            self.ctx.same_polynomial_ring(other.ctx)
            and self.ctx.defining == other.ctx.defining
        ):
            raise RingMismatch("operands live in different rings")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        p = self.ctx.p
        for mono, c in other.terms.items():
            r = (t.get(mono, 0) + c) % p
            if r:
                t[mono] = r
            else:
                t.pop(mono, None)
        return Poly(self.ctx, t)

    def __neg__(self):
        p = self.ctx.p
        return Poly(self.ctx, {mono: p - c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        t = {}
        if not self.terms or not other.terms:
            return Poly(self.ctx, t)
        pk = self.ctx._pk
        if max(self.terms) + max(other.terms) >= pk.top:
            raise _overflow(self.degree() + other.degree())
        p = self.ctx.p
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = ma + mb
                r = (t.get(mono, 0) + ca * cb) % p
                if r:
                    t[mono] = r
                else:
                    t.pop(mono, None)
        return Poly(self.ctx, t)

    __rmul__ = __mul__

    def scale(self, c):
        c %= self.ctx.p
        if not c:
            return self.ctx.zero()
        p = self.ctx.p
        return Poly(self.ctx, {mono: (c * v) % p for mono, v in self.terms.items()})

    def degree(self):
        """Weighted degree of the leading monomial (None for 0)."""
        return max(self.terms) >> self.ctx._pk.shift if self.terms else None

    def is_homogeneous(self):
        sh = self.ctx._pk.shift
        degs = {mono >> sh for mono in self.terms}
        return len(degs) <= 1

    def __repr__(self):
        return render_poly(self)


# ---------------------------------------------------------------------------
# the polynomial literal grammar (shared by CLI, fixtures and tests)

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*\*|\*|\+|-)")


def parse_poly(ctx, text):
    """Parse ``c*x^e*y*... +- ...`` into a Poly; coefficients reduce mod p."""
    pos = 0
    n = len(text)
    tokens = []
    while pos < n:
        mt = _TOKEN.match(text, pos)
        if not mt:
            if text[pos:].strip():
                raise ValueError(f"bad character in polynomial at {text[pos:]!r}")
            break
        tokens.append(mt.group(1))
        pos = mt.end()
    if not tokens:
        return ctx.zero()

    name_index = {nm: i for i, nm in enumerate(ctx.names)}
    terms = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign in polynomial literal")
        coeff = sign
        exps = [0] * ctx.m
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if tok in "+-" and not expect_factor:
                break
            if tok in ("*",):
                i += 1
                expect_factor = True
                continue
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
            elif tok in name_index:
                v = name_index[tok]
                e = 1
                i += 1
                if i < len(tokens) and tokens[i] in ("^", "**"):
                    if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                        raise ValueError("exponent expected after '^'")
                    e = int(tokens[i + 1])
                    i += 2
                exps[v] += e
            else:
                raise ValueError(f"unknown variable {tok!r}")
            expect_factor = False
        coeff %= ctx.p
        if coeff:
            mono = mono_from_exponents(exps, ctx.weights)
            coeff = (terms.get(mono, 0) + coeff) % ctx.p
            if coeff:
                terms[mono] = coeff
            else:
                del terms[mono]
    return Poly(ctx, terms)


def render_poly(f):
    """Canonical rendering: terms descending, coefficients in (-p/2, p/2]."""
    if not f.terms:
        return "0"
    ctx = f.ctx
    parts = []
    for mono in sorted(f.terms, reverse=True):
        c = f.terms[mono]
        if c > ctx.p // 2:
            c -= ctx.p
        sign = "-" if c < 0 else "+"
        c = abs(c)
        exps = mono_exponents(mono, ctx.m)
        factors = []
        for nm, e in zip(ctx.names, exps):
            if e == 1:
                factors.append(nm)
            elif e > 1:
                factors.append(f"{nm}^{e}")
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        else:
            body = f"{c}*" + "*".join(factors)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _ideal_strings(ctx, ideal):
    """An ideal's generators, rank-1 engine vectors keyed by the monomials,
    rendered."""
    return [render_poly(Poly(ctx, dict(f))) for f in ideal]


# ---------------------------------------------------------------------------
# ring construction


# the polynomial rings by (p, names, weights), held weakly
_RINGS = weakref.WeakValueDictionary()


def make_ring(p, names, defining=(), weights=None):
    """R = F_p[names]/(defining); the defining ideal, given by polynomial
    literals or by ``Poly``s of the same polynomial ring, is replaced by its
    reduced Groebner basis.  Equal definitions (p, names, weights and the
    reduced basis) give the same immutable context: the polynomial ring from
    ``_RINGS``, a quotient from its cache (``_make_ring``).  Two threads that
    miss the registry together may each build a ring, which loses only the
    sharing, since every cached value is a function of its key."""
    # the range first: trial division of a huge p would never return
    if not isinstance(p, int) or p >= 2**31 or not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p!r} is not a prime < 2^31")
    names = tuple(names)
    if len(set(names)) != len(names) or not names:
        raise ValueError("variable names must be nonempty and distinct")
    weights = tuple(weights) if weights else (1,) * len(names)
    if len(weights) != len(names) or any(
        not isinstance(w, int) or w < 1 for w in weights
    ):
        raise ValueError("weights must be positive integers, one per variable")
    ctx = _RINGS.get((p, names, weights))
    if ctx is None:
        ctx = _RINGS.setdefault((p, names, weights), RingCtx(p, names, weights))
    from .groebner import _to_ideal

    R = _make_ring(ctx, _to_ideal(ctx, [
        parse_poly(ctx, f) if isinstance(f, str) else f for f in defining]))
    if any(g.degree() == 0 for g in R.defining):
        raise ValueError("defining ideal is the whole ring")
    return R


def _make_ring(ctx, ideal):
    """ctx/(ideal) for a polynomial ring ctx and an ideal of nonzero rank-1
    engine vectors (``groebner.Vec``, keyed by the monomials), stored in
    ctx's cache under the ideal's reduced basis, so ideals with one reduced
    basis give one ring."""
    from . import groebner

    if not ideal:
        return ctx
    basis = tuple(groebner.buchberger(ideal, ctx, 1).basis)
    return _memo(ctx, ("quotient", basis), lambda: RingCtx(
        ctx.p, ctx.names, ctx.weights, [Poly(ctx, dict(f)) for f in basis], ctx))
