"""Modules hold engine vectors: the module layer against the Poly-level
round trip it replaced, resolutions and Ext vanishing that convert nothing,
and Hilbert functions read from prefix-sum tables."""

import sys
import time

from hypothesis import given, settings, strategies as st

from liaison import groebner, homalg
from liaison.errors import InvalidInput
from liaison.groebner import (
    HilbertData,
    ModuleGB,
    _add_series,
    _polys,
    _ring_columns,
    _to_internal,
    leadterm_hilbert,
    minimal_generator_indices,
)
from liaison.linkage import canonical_module
from liaison.modules import cyclic_module, subquotient, vec_combine
from liaison.ring import make_ring, render_poly

from tests.oracle import monomials_of_degree
from tests.polyref import column_relations, coords, express
from tests.polyref import vec_combine as poly_combine
from tests.polyref import monomial, vec_degree, vec_is_zero

SEMIGROUP_345 = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                          weights=[3, 4, 5])
SEMIGROUP_4567 = make_ring(
    101, ["a", "b", "c", "d"],
    ["a*c - b^2", "a*d - b*c", "a^3 - b*d", "b*d - c^2", "a^2*b - c*d", "a^2*c - d^2"],
    weights=[4, 5, 6, 7],
)


# ---------------------------------------------------------------------------
# the reference: modules of Poly columns, flattened into each engine with
# _to_internal and read back with _polys, as the module layer did before


class PolyModule:
    def __init__(self, ctx, gens, rels, shifts):
        self.ctx, self.rank, self.shifts = ctx, len(shifts), tuple(shifts)
        self.gens = [col for col in gens if not vec_is_zero(col)]
        self.rels_gb = self._basis([col for col in rels if not vec_is_zero(col)])
        self.rels = [_polys(ctx, vec, self.rank) for vec in self.rels_gb.basis]

    def _flat(self, cols):
        return [_to_internal(self.ctx, col, self.rank) for col in cols]

    def _basis(self, cols):
        eng = ModuleGB(self.ctx, self.rank, self.shifts)
        eng.add_generators(self._flat(cols) + _ring_columns(self.ctx, self.rank))
        eng.interreduce()
        return eng

    def _engine(self):
        degrees = [vec_degree(col, self.shifts) or 0 for col in self.gens]
        eng = ModuleGB(self.ctx, self.rank, self.shifts, track=len(self.gens),
                       track_shifts=degrees)
        eng.add_generators(self._flat(self.gens) + self._flat(self.rels)
                           + _ring_columns(self.ctx, self.rank))
        return eng

    def to_json(self):
        return {
            "ambient_rank": self.rank,
            "shifts": list(self.shifts),
            "gens": [[render_poly(f) for f in col] for col in self.gens],
            "rels": [[render_poly(f) for f in col] for col in self.rels],
        }

    def column_relations(self):
        if not self.gens:
            return []
        eng = self._engine()
        kept = minimal_generator_indices(eng.syzygies, self.ctx, eng.track,
                                         eng.shifts[eng.rank:],
                                         _ring_columns(self.ctx, eng.track))
        return [_polys(self.ctx, eng.syzygies[i], eng.track) for i in kept]

    def express_in_gens(self, vec):
        flat = _to_internal(self.ctx, vec, self.rank)
        if self.gens:
            rem, coeffs = self._engine().reduce_with_certificate(flat)
        else:
            rem, coeffs = self.rels_gb.normal_form(flat), {}
        if rem:
            raise InvalidInput("vector does not lie in the module")
        return _polys(self.ctx, coeffs, len(self.gens))

    def hilbert_numerator(self):
        full = self._basis(self.gens + self.rels)
        num = dict(leadterm_hilbert(self.rels_gb, self.rank, self.shifts).numerator)
        _add_series(num, leadterm_hilbert(full, self.rank, self.shifts).numerator, sign=-1)
        return {d: c for d, c in num.items() if c}


def _draw_form(data, ctx, degree):
    """A homogeneous polynomial of the given degree, sparse or 0."""
    f = ctx.zero()
    for exps in monomials_of_degree(ctx, degree):
        f = f + monomial(ctx, exps, data.draw(st.sampled_from([0, 0, 0, 1, 3, 100])))
    return f


def _draw_vector(data, ctx, shifts, degree):
    return tuple(_draw_form(data, ctx, degree - s) for s in shifts)


def _draw_nonzero_vector(data, ctx, shifts, degree):
    """``_draw_vector``, with one term put at a drawn position when every
    entry came out 0; some position must have monomials of its degree."""
    vec = _draw_vector(data, ctx, shifts, degree)
    if vec_is_zero(vec):
        pos = data.draw(st.sampled_from(
            [i for i, s in enumerate(shifts) if monomials_of_degree(ctx, degree - s)]))
        exps = data.draw(st.sampled_from(monomials_of_degree(ctx, degree - shifts[pos])))
        term = monomial(ctx, exps, data.draw(st.sampled_from([1, 3, 100])))
        vec = vec[:pos] + (term,) + vec[pos + 1:]
    return vec


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_module_layer_matches_the_poly_round_trip(data):
    ctx = data.draw(st.sampled_from([SEMIGROUP_345, SEMIGROUP_4567]))
    rank = data.draw(st.integers(1, 3))
    shifts = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
    low = min(ctx.weights) + max(shifts)

    def vector():
        return _draw_vector(data, ctx, shifts, data.draw(st.integers(low, low + 5)))

    gens = [vector() for _ in range(data.draw(st.integers(1, 3)))]
    rels = [vector() for _ in range(data.draw(st.integers(0, 2)))]
    M = subquotient(ctx, gens, rels, shifts)
    ref = PolyModule(ctx, gens, rels, shifts)
    assert M.to_json() == ref.to_json()
    assert column_relations(M) == ref.column_relations()
    assert M.hilbert().numerator == ref.hilbert_numerator()
    # elements of the module, and a vector that may lie outside it
    d = low + data.draw(st.integers(3, 8))
    cols = list(M.gens) + list(M.rels)
    for _ in range(2):
        coeffs = [_draw_form(data, ctx, d - vec_degree(col, shifts)) for col in cols]
        member = poly_combine(cols, coeffs, ctx, rank)
        gen_coeffs = coeffs[:len(M.gens)]
        assert _polys(ctx, vec_combine(M._gens, coords(ctx, gen_coeffs, len(M._gens)), ctx),
                      rank) == poly_combine(M.gens, gen_coeffs, ctx, rank)
        for vec in (member, _draw_vector(data, ctx, shifts, d)):
            try:
                want = ref.express_in_gens(vec)
            except InvalidInput:
                want = None
                assert vec is not member
            try:
                got = express(M, vec)
            except InvalidInput:
                got = None
            assert got == want


# ---------------------------------------------------------------------------
# resolutions and Ext vanishing convert nothing


def _count_calls(monkeypatch, names):
    """Count calls of the named groebner functions, in every liaison
    namespace that binds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(groebner, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("liaison") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_resolving_omega_and_deciding_ext_convert_nothing(monkeypatch):
    ctx = make_ring(101, ["x", "y", "z"], ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
                    weights=[3, 4, 5])  # a cold cache
    omega = canonical_module(ctx)
    counts = _count_calls(monkeypatch, ["_to_internal", "_polys"])
    res = homalg.free_resolution(omega, 5)
    decided = [homalg.ext_vanishes(i, omega, omega) for i in range(5)]
    assert res.betti_numbers() == [2, 3, 6, 12, 24, 48]
    assert decided == [False, True, True, True, True]
    assert counts == {"_to_internal": 0, "_polys": 0}
    assert not any(hasattr(module, "vec_degree") for name, module in sys.modules.items()
                   if name.startswith("liaison"))
    # printing is where vectors become Poly
    omega.to_json()
    assert counts["_polys"] == len(omega._gens) + len(omega._rels)


# ---------------------------------------------------------------------------
# Hilbert functions from prefix-sum tables


def _hf_value(ctx, d):
    """The coefficient of t^d in prod 1/(1 - t^w_i), from scratch."""
    series = [0] * (d + 1)
    series[0] = 1
    for w in ctx.weights:
        for i in range(w, d + 1):
            series[i] += series[i - w]
    return series[d]


@settings(max_examples=30, deadline=None)
@given(ring=st.sampled_from([make_ring(101, ["x", "y"]), SEMIGROUP_345, SEMIGROUP_4567]),
       numerator=st.dictionaries(st.integers(-20, 40), st.integers(-3, 3), max_size=5),
       lo=st.integers(-50, 300), width=st.integers(0, 200))
def test_hilbert_windows_match_the_series_from_scratch(ring, numerator, lo, width):
    data = HilbertData(ring, numerator)
    window = data.hf_window(lo, lo + width)
    assert list(window) == list(range(lo, lo + width + 1))
    for d in (lo, lo + width // 2, lo + width):
        want = sum(c * _hf_value(ring, d - j) for j, c in data.numerator.items() if d >= j)
        assert window[d] == data.hf(d) == want


def test_a_long_hilbert_window_takes_linear_time():
    ctx = make_ring(101, ["x", "y"])
    M = cyclic_module(ctx, [ctx.var(0) * ctx.var(0)])
    start = time.monotonic()
    window = M.hf_window(0, 100000)
    assert time.monotonic() - start < 5
    assert window[0] == 1 and set(window.values()) == {1, 2}
    assert window[100000] == _hf_value(ctx, 100000) - _hf_value(ctx, 99998) == 2
