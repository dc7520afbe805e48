"""Experiment runner: parse ring/module specs, execute named operations and
theorem checks, emit deterministic JSON reports.

Spec grammar (INI-like; see README for the full description):

    [ring]            p, vars, weights (optional), defining (optional)
    [ideal NAME]      gens = comma-separated polynomial literals
    [module NAME]     ambient, shifts, gens, rels (columns split by ';')
    [K]               kind = trivial | canonical | explicit, name = ...
    [options]         bound = B, window = lo..hi
    [ops]             one operation per line: VERB ARG...

Operations are registered once, with the ``_operation`` decorator on their
handler; the handler's annotations give the argument kinds: ``int``,
``Ideal`` (the name of an ideal) or none (the name of an ideal or module).

Exit codes: 0 ok, 1 some verdict failed (or an operation raised an error,
reported as ``ok: false`` with its spec ``line``; so are a walk or a
Schenzel check on a pair that c does not link, and an operation that takes
K when an explicit K is not semidualizing), 2 usage or parse error, 3
internal consistency failure or any other unexpected exception in an
operation (also reported as ``ok: false``, naming the exception type; the
later operations still run).  Exit 2 covers: an unreadable spec file, an
unknown gallery, a malformed section or ``key = value`` line, a key its
section does not take or already has, a value that is not an integer (``p``,
``weights``, ``ambient``, ``shifts``, ``bound``, ``window``, integer
operation arguments), a ``bound`` or ``--bound`` below 0, a ``window`` or
``--window`` not of the form lo..hi, with lo above hi or with an end of
absolute value 2^20 or more, an ``ambient`` outside 0..4096, ``shifts``
with neither 1 nor ``ambient`` entries or with an entry of absolute value
2^20 or more, a weight of 2^20 or more, a bad polynomial or column (a
degree reaching 2^20 included), a characteristic not a prime below 2^31
(``p`` or ``--char``), an option before the subcommand or after
``list-galleries``, an unknown operation or wrong argument count, an
undefined name, a module's name where an operation takes an ideal, an
unknown K kind, and a canonical K over a non-Cohen-Macaulay ring.  Each
names its spec line where it has one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from . import cohomology, colinkage, groebner, homalg, linkage, modules, verdict
from .errors import (
    DegreeOverflow,
    InternalConsistencyError,
    InvalidInput,
    LiaisonError,
    NonCMForCanonical,
    NonPrimeCharacteristic,
    SpecSyntaxError,
    UnknownGallery,
    UnknownName,
)
from .groebner import _to_ideal
from .modules import (
    _cyclic_module,
    annihilator,
    free_module,
    invariants,
    minimize,
    subquotient,
)
from .ring import _LIMIT, DEFAULT_CHARACTERISTIC, _ideal_strings, make_ring, parse_poly


# ---------------------------------------------------------------------------
# experiment specs


class ExperimentSpec:
    def __init__(self, ring, ideals, modules, k_kind, k_name, bound, window, ops):
        self.ring = ring
        self.ideals = ideals
        self.modules = modules
        self.k_kind = k_kind
        self.k_name = k_name
        self.bound = bound
        self.window = window
        self.ops = ops

    def stated_K(self):
        """K as the spec states it, semidualizing or not."""
        if self.k_kind == "trivial":
            return free_module(self.ring, 1)
        if self.k_kind == "canonical":
            return linkage.canonical_module(self.ring)
        return self.modules[self.k_name]

    def resolve_K(self):
        """``stated_K``, refused, naming the witness, when it is explicit and
        not semidualizing at the bound (R and a canonical module are)."""
        K = self.stated_K()
        if self.k_kind == "explicit":
            v = linkage.is_semidualizing(K, self.bound).verdict
            if not v.holds():
                raise LiaisonError(f"K is not semidualizing: {v.witness}")
        return K


def _split_sections(text):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise SpecSyntaxError("unterminated section header", lineno)
            sections.append((name[1:-1].strip(), lineno, []))
            current = sections[-1][2]
        else:
            if current is None:
                raise SpecSyntaxError("content before any section", lineno)
            current.append((lineno, line.strip()))
    return sections


def _kv(entries, keys):
    """{key: (value, line)}; a key not in ``keys``, or given a second time,
    names its line."""
    out = {}
    for lineno, line in entries:
        if "=" not in line:
            raise SpecSyntaxError(f"expected key = value, got {line!r}", lineno)
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise SpecSyntaxError(f"unknown key {key!r}, expected {', '.join(keys)}", lineno)
        if key in out:
            raise SpecSyntaxError(f"{key!r} given a second time", lineno)
        out[key] = (val.strip(), lineno)
    return out


def _int(text, lineno):
    try:
        return int(text)
    except ValueError:
        raise SpecSyntaxError(f"integer expected, got {text!r}", lineno) from None


def _literal(ctx, text, lineno):
    """A polynomial literal; a bad one, or one too high, names its line."""
    try:
        return parse_poly(ctx, text)
    except (ValueError, LiaisonError) as exc:
        raise SpecSyntaxError(str(exc), lineno) from None


def _window(text, lineno=None):
    """(lo, hi) from "lo..hi"; shared by ``[options] window`` and --window."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SpecSyntaxError(f"window must be lo..hi, got {text!r}", lineno)
    ends = _int(lo, lineno), _int(hi, lineno)
    if any(abs(e) >= _LIMIT for e in ends):  # hf walks every degree up to an end
        raise SpecSyntaxError(f"|window end| must be below {_LIMIT}", lineno)
    if ends[0] > ends[1]:  # an empty window would compare nothing
        raise SpecSyntaxError("window must have lo <= hi", lineno)
    return ends


def _bound(value, lineno=None):
    """A bound below 0 names its line; shared by ``[options] bound`` and --bound."""
    if value < 0:
        raise SpecSyntaxError(f"bound must be at least 0, got {value}", lineno)
    return value


# operation name -> handler(spec, *args); run looks the handler up on every
# call, so entries may be replaced (for example by a profiler)
HANDLERS = {}
# operation name -> argument kinds, "int", "ideal" or "name"; kept apart from
# HANDLERS so that a replaced handler does not change how specs parse
_ARG_KINDS = {}


class Ideal(str):
    """The annotation of an operation parameter that takes the name of an
    ``[ideal]`` section, and not of a ``[module]``."""


def _operation(handler):
    """Register ``op_NAME`` as operation NAME; parameters after ``spec``
    annotated ``int`` take integers, those annotated ``Ideal`` the names of
    ideals, the others the names of ideals or modules.  The annotations are
    strings (``from __future__ import annotations``)."""
    name = handler.__name__.removeprefix("op_")
    code = handler.__code__
    params = code.co_varnames[1 : code.co_argcount]
    kinds = {"int": "int", "Ideal": "ideal"}
    _ARG_KINDS[name] = [kinds.get(handler.__annotations__.get(p), "name") for p in params]
    HANDLERS[name] = handler
    return handler


def parse_spec(text, p=None):
    """Validated ExperimentSpec, or a SpecSyntaxError with a line number.

    ``p``, when given, replaces the characteristic the spec declares.
    """
    sections = _split_sections(text)
    ring_ctx = None
    ideals, mods = {}, {}
    k_kind, k_name, k_line = "trivial", None, None
    bound, window = None, (-6, 6)
    ops = []
    seen = set()
    for name, header_line, entries in sections:
        # a second [ring] would leave the ideals and modules before it over
        # the first; a second [K], [options] or ideal or module of one name
        # would replace the first unseen
        kind, _, ident = name.partition(" ")
        named = kind in ("ideal", "module")
        key = ("name", ident.strip()) if named else name
        if key in seen and name != "ops":
            raise SpecSyntaxError(
                f"{ident.strip()!r} names a second ideal or module" if named
                else f"a spec has one [{name}] section", header_line)
        seen.add(key)
        if name == "ring":
            kv = _kv(entries, ("p", "vars", "weights", "defining"))
            try:
                var_names = [v.strip() for v in kv["vars"][0].split(",") if v.strip()]
            except KeyError as missing:
                raise SpecSyntaxError(f"[ring] needs {missing}", header_line)
            char = p
            if char is None:
                char = _int(*kv["p"]) if "p" in kv else DEFAULT_CHARACTERISTIC
            weights = None
            if "weights" in kv:
                text_, lineno = kv["weights"]
                weights = [_int(w, lineno) for w in text_.split(",") if w.strip()]
                if weights and (len(weights) != len(var_names) or min(weights) < 1):
                    raise SpecSyntaxError(
                        "weights must be positive integers, one per variable", lineno)
            defining = []
            if "defining" in kv and kv["defining"][0]:
                defining = [s.strip() for s in kv["defining"][0].split(",") if s.strip()]
            poly_ring = None
            try:  # the polynomial ring first: an overflow there is a weight's
                poly_ring = make_ring(char, var_names, (), weights)
                ring_ctx = make_ring(char, var_names, defining, weights)
            except NonPrimeCharacteristic as exc:  # from --char: no spec line
                raise SpecSyntaxError(str(exc), kv["p"][1] if p is None else None)
            except DegreeOverflow as exc:  # a weight, or a defining literal too high
                raise SpecSyntaxError(str(exc), kv["weights"][1] if poly_ring is None else header_line)
            except (LiaisonError, ValueError) as exc:  # names, weights, defining
                raise SpecSyntaxError(str(exc), header_line)
        elif name.startswith("ideal "):
            ident = name.split(None, 1)[1]
            kv = _kv(entries, ("gens",))
            if ring_ctx is None:
                raise SpecSyntaxError("[ring] must come first", header_line)
            gens_text, lineno = kv.get("gens", ("", header_line))
            ideals[ident] = _to_ideal(ring_ctx, [
                _literal(ring_ctx, s, lineno) for s in gens_text.split(",") if s.strip()
            ])
        elif name.startswith("module "):
            ident = name.split(None, 1)[1]
            if ring_ctx is None:
                raise SpecSyntaxError("[ring] must come first", header_line)
            kv = _kv(entries, ("ambient", "shifts", "gens", "rels"))
            rank_text, rank_line = kv.get("ambient", ("1", header_line))
            rank = _int(rank_text, rank_line)
            if not 0 <= rank <= 4096:  # each position is allocated
                raise SpecSyntaxError("ambient must be in 0..4096", rank_line)
            shifts_text, shifts_line = kv.get("shifts", ("0", header_line))
            shifts = [_int(s, shifts_line) for s in shifts_text.split(",")]
            if len(shifts) == 1:
                shifts = shifts * rank
            if len(shifts) != rank:
                raise SpecSyntaxError(f"shifts needs 1 or {rank} entries", shifts_line)
            if any(abs(s) >= _LIMIT for s in shifts):  # a Hilbert function lists 0..-s
                raise SpecSyntaxError(f"|shift| must be below {_LIMIT}", shifts_line)

            def columns(txt, lineno):
                cols = []
                for col in txt.split(";"):
                    entries_ = [e.strip() for e in col.split(",")]
                    if len(entries_) != rank:
                        raise SpecSyntaxError(f"column needs {rank} entries", lineno)
                    cols.append(tuple(_literal(ring_ctx, e, lineno) for e in entries_))
                return cols

            gens = columns(*kv["gens"]) if kv.get("gens", ("", 0))[0] else []
            rels = columns(*kv["rels"]) if kv.get("rels", ("", 0))[0] else []
            try:
                mods[ident] = subquotient(ring_ctx, gens, rels, shifts, rank)
            except LiaisonError as exc:  # inhomogeneous columns
                raise SpecSyntaxError(str(exc), header_line)
        elif name == "K":
            kv = _kv(entries, ("kind", "name"))
            k_kind, kind_line = kv.get("kind", ("trivial", header_line))
            if k_kind not in ("trivial", "canonical", "explicit"):
                raise SpecSyntaxError(f"unknown K kind {k_kind!r}", kind_line)
            k_name, k_line = kv.get("name", (None, header_line))
        elif name == "options":
            kv = _kv(entries, ("bound", "window"))
            if "bound" in kv:
                text_, lineno = kv["bound"]
                bound = _bound(_int(text_, lineno), lineno)
            if "window" in kv:
                window = _window(*kv["window"])
        elif name == "ops":
            for lineno, line in entries:
                parts = line.split()
                if parts[0] not in _ARG_KINDS:
                    raise SpecSyntaxError(f"unknown operation {parts[0]!r}", lineno)
                kinds = _ARG_KINDS[parts[0]]
                if len(parts) - 1 != len(kinds):
                    raise SpecSyntaxError(
                        f"{parts[0]} expects {len(kinds)} arguments", lineno
                    )
                args = [_int(tok, lineno) if kind == "int" else tok
                        for kind, tok in zip(kinds, parts[1:])]
                ops.append((parts[0], args, lineno))
        else:
            raise SpecSyntaxError(f"unknown section [{name}]", header_line)
    if ring_ctx is None:
        raise SpecSyntaxError("spec has no [ring] section", 1)
    names = set(ideals) | set(mods)
    for op, args, lineno in ops:
        for kind, arg in zip(_ARG_KINDS[op], args):
            if kind != "int" and arg not in names:
                raise UnknownName(f"line {lineno}: undefined name {arg!r}")
            if kind == "ideal" and arg not in ideals:
                raise UnknownName(f"line {lineno}: {arg!r} is not an ideal")
    if k_kind == "explicit" and k_name not in mods:
        raise UnknownName(f"line {k_line}: K refers to undefined module {k_name!r}")
    if k_kind == "canonical":
        if ring_ctx.defining and not modules.ring_is_cm(ring_ctx):
            raise NonCMForCanonical(
                f"dim {modules.ring_dim(ring_ctx)} != depth {modules.ring_depth(ring_ctx)}"
            )
    if bound is None:
        bound = linkage.default_bound(ring_ctx)
    return ExperimentSpec(ring_ctx, ideals, mods, k_kind, k_name, bound, window, ops)


# ---------------------------------------------------------------------------
# op handlers


def _as_module(spec, name):
    if name in spec.modules:
        return spec.modules[name]
    return _cyclic_module(spec.ring, spec.ideals[name])


@_operation
def op_invariants(spec, name):
    return invariants(_as_module(spec, name)).to_json()


@_operation
def op_groebner(spec, name: Ideal):
    gb = groebner.buchberger(spec.ideals[name], spec.ring, 1)
    return {"reduced_gb": _ideal_strings(spec.ring, gb.basis)}


@_operation
def op_hilbert(spec, name):
    M = _as_module(spec, name)
    data = M.hilbert()
    lo, hi = spec.window
    return {
        "dim": data.dim,
        "degree": str(data.degree),
        "hf": [{"degree": d, "value": v} for d, v in M.hf_window(lo, hi).items()],
    }


@_operation
def op_betti(spec, name, length: int):
    res = homalg.free_resolution(_as_module(spec, name), length)
    return {
        "betti_numbers": res.betti_numbers(),
        "complete": res.complete,
        "table": homalg.betti_table_text(res),
    }


@_operation
def op_colon(spec, a: Ideal, b: Ideal):
    got = modules.colon(spec.ideals[a], spec.ideals[b], spec.ring)
    return {"colon": _ideal_strings(spec.ring, got)}


@_operation
def op_annihilator(spec, name):
    return {"annihilator": _ideal_strings(spec.ring, annihilator(_as_module(spec, name)))}


@_operation
def op_cyclic_link(spec, iname: Ideal, cname: Ideal):
    K = spec.resolve_K()
    linked = linkage._cyclic_link(
        spec.ring, spec.ideals[iname], spec.ideals[cname], K
    )
    return {"annihilator": _ideal_strings(spec.ring, annihilator(linked))}


def _cyclic_epi(spec, iname, cname):
    K = spec.resolve_K()
    phi = linkage.natural_cyclic_epi(
        spec.ring, spec.ideals[iname], spec.ideals[cname]
    )
    return linkage.reflexive_epi(phi, K, "Pn", spec.bound)


@_operation
def op_link(spec, iname: Ideal, cname: Ideal):
    e = _cyclic_epi(spec, iname, cname)
    L = linkage.link_operator(e).linked_module
    E1, E2 = homalg.bidual_obstructions(e.phi.target, e.K, e.n)
    lo, hi = spec.window
    return {
        "linked_presentation": L.to_json(),
        "annihilator_gb": _ideal_strings(spec.ring, annihilator(L)),
        "betti": {
            f"{i},{d}": v for (i, d), v in homalg.free_resolution(L, 2).betti().items()
        },
        "obstruction_hilbert_functions": {
            "kernel_side": E1.hf_window(lo, hi),
            "cokernel_side": E2.hf_window(lo, hi),
        },
    }


@_operation
def op_double_link(spec, iname: Ideal, cname: Ideal):
    v = linkage.double_link_check(_cyclic_epi(spec, iname, cname), spec.window)
    return {"verdict": v.to_json()}


@_operation
def op_is_linked(spec, iname: Ideal, cname: Ideal):
    return {"linked": linkage.is_linked_by(_cyclic_epi(spec, iname, cname))}


@_operation
def op_walk(spec, iname: Ideal, cname: Ideal, steps: int):
    K = spec.resolve_K()
    epis = linkage.build_cyclic_walk(
        spec.ring, spec.ideals[iname], spec.ideals[cname], K, steps,
        bound=spec.bound,
    )
    return linkage.liaison_walk(epis, spec.window)


@_operation
def op_semidualizing(spec):
    cert = linkage.is_semidualizing(spec.stated_K(), spec.bound)
    return {
        "verdict": cert.verdict.to_json(),
        "homothety_iso": cert.homothety_iso,
        "ext_vanishing": [list(x) for x in cert.ext_vanishing],
    }


@_operation
def op_canonical_info(spec):
    om = linkage.canonical_module(spec.ring)
    omin, _, _ = minimize(om)
    return {
        "min_generators": len(omin._gens),
        "annihilator": _ideal_strings(spec.ring, annihilator(om)),
        "presentation": omin.to_json(),
    }


@_operation
def op_bass_numbers(spec, upto: int):
    if upto < 0:
        raise InvalidInput(f"bass_numbers needs a bound of at least 0, got {upto}")
    return {"bass_numbers": cohomology.ring_bass_numbers(spec.ring, upto),
            "type": cohomology.ring_type(spec.ring)}


@_operation
def op_local_cohomology(spec, name, i: int):
    data = cohomology.local_cohomology_hf(_as_module(spec, name), i, spec.window)
    return data.to_json()


def _linked_pair(spec, iname, cname):
    """(M, N): M = R/I and N = R/ann(L), L the module c links M to over K."""
    I = spec.ideals[iname]
    linked = linkage._cyclic_link(spec.ring, I, spec.ideals[cname], spec.resolve_K())
    return _cyclic_module(spec.ring, I), _cyclic_module(spec.ring, annihilator(linked))


@_operation
def op_schenzel(spec, iname: Ideal, cname: Ideal, t: int):
    M, N = _linked_pair(spec, iname, cname)
    try:
        v = cohomology.schenzel_check(M, N, spec.resolve_K(), spec.ideals[cname], t)
    except InternalConsistencyError:
        # the biconditional holds for linked pairs only
        if not linkage.is_linked_by(_cyclic_epi(spec, iname, cname)):
            raise LiaisonError(f"{cname} does not link {iname}") from None
        raise
    return {"verdict": v.to_json(), "t": t}


@_operation
def op_duality(spec, iname: Ideal, cname: Ideal, i: int):
    M, N = _linked_pair(spec, iname, cname)
    v = cohomology.duality_check(M, N, i, spec.window)
    return {"verdict": v.to_json(), "index": i}


@_operation
def op_depth_formula(spec, iname: Ideal, cname: Ideal):
    v = linkage.depth_formula_check(_cyclic_epi(spec, iname, cname))
    return {"verdict": v.to_json()}


@_operation
def op_self_link_sum(spec, name):
    K = spec.resolve_K()
    M = _as_module(spec, name)
    n = modules.grade(M)
    E = homalg.ext(n, M, K)
    S, _, projections = modules.direct_sum(M, E)
    e = linkage.reflexive_epi(projections[0], K, "Pn", spec.bound)
    res = linkage.link_operator(e)
    lo, hi = spec.window
    return {
        "linked_annihilator": _ideal_strings(spec.ring, annihilator(res.linked_module)),
        "self_link_hf_match": res.linked_module.hf_window(lo, hi) == M.hf_window(lo, hi),
        "is_linked": linkage.is_linked_by(e),
    }


@_operation
def op_foxby_roundtrip(spec, name):
    K = spec.resolve_K()
    M = _as_module(spec, name)
    T, _ = colinkage.foxby_transform("tensorK", M, K)
    H, _ = colinkage.foxby_transform("homK", T, K)
    lo, hi = spec.window
    return {
        "mu_iso": colinkage.mu_is_iso(M, K),
        "roundtrip_hf_match": M.hf_window(lo, hi) == H.hf_window(lo, hi),
        "auslander": colinkage.class_member("Auslander", M, K, spec.bound).to_json(),
        "bass_of_transform": colinkage.class_member("Bass", T, K, spec.bound).to_json(),
    }


@_operation
def op_colink(spec, iname: Ideal, cname: Ideal):
    """Colink through the adjoint transfer and emit the full transcript."""
    K = spec.resolve_K()
    e = _cyclic_epi(spec, iname, cname)
    ce = colinkage.adjoint_transfer_forward(e)
    col, _ = colinkage.colink_operator(ce)
    lo, hi = spec.window
    return {
        "colinked_presentation": col.to_json(),
        "annihilator_gb": _ideal_strings(spec.ring, annihilator(col)),
        "hf": [{"degree": d, "value": col.hf(d)} for d in range(lo, hi + 1)],
        "bass_certificate": colinkage.class_member(
            "Bass", ce.phi.source, K, spec.bound
        ).to_json(),
    }


@_operation
def op_adjoint_transfer(spec, iname: Ideal, cname: Ideal):
    K = spec.resolve_K()
    e = _cyclic_epi(spec, iname, cname)
    ce = colinkage.adjoint_transfer_forward(e)
    back = colinkage.adjoint_transfer_backward(ce)
    lo, hi = spec.window
    M = e.phi.target
    col, _ = colinkage.colink_operator(ce)
    closed = linkage._cyclic_link(
        spec.ring, spec.ideals[iname], spec.ideals[cname], K
    )
    return {
        "forward_tag": ce.category_tag,
        "is_colinked": colinkage.is_colinked_by(ce),
        "colink_matches_closed_form": annihilator(col) == annihilator(closed),
        "roundtrip_hf_match": back.phi.target.hf_window(lo, hi) == M.hf_window(lo, hi),
        "mu_iso": colinkage.mu_is_iso(M, K),
    }


@_operation
def op_pk_dimension(spec, name):
    K = spec.resolve_K()
    v, val = colinkage.pk_dimension(_as_module(spec, name), K, spec.bound)
    return {"verdict": v.to_json(), "value": modules._num(val)}


@_operation
def op_gk_perfect(spec, name):
    K = spec.resolve_K()
    v = linkage.is_gk_perfect(_as_module(spec, name), K, spec.bound)
    return {"verdict": v.to_json()}


@_operation
def op_horizontal(spec, name):
    M = _as_module(spec, name)
    lam = linkage.horizontal_link(M)
    return {
        "is_horizontally_linked": linkage.is_horizontally_linked(M),
        "lambda_annihilator": _ideal_strings(spec.ring, annihilator(lam)),
    }


@_operation
def op_regular_sequence(spec, name: Ideal, n: int):
    seq = homalg.regular_sequence_in_ideal(spec.ring, spec.ideals[name], n)
    return {"sequence": _ideal_strings(spec.ring, seq)}


def _contains_failed_verdict(data):
    if isinstance(data, dict):
        if data.get("status") == verdict.FAILS:
            return True
        return any(_contains_failed_verdict(v) for v in data.values())
    if isinstance(data, list):
        return any(_contains_failed_verdict(v) for v in data)
    return False


def run(spec):
    """Execute the operations in order; per-op errors do not abort the rest.

    Returns (report dict, exit code).
    """
    results = []
    exit_code = 0
    for op, args, lineno in spec.ops:
        entry = {
            "op": op,
            "args": [str(a) for a in args],
            "provenance": {"bound": spec.bound, "window": list(spec.window)},
        }
        try:
            data = HANDLERS[op](spec, *args)
            entry["ok"] = True
            entry["data"] = data
            if _contains_failed_verdict(data):
                exit_code = max(exit_code, 1)
        except InternalConsistencyError as exc:
            entry["ok"] = False
            entry["error"] = f"internal consistency: {exc}"
            exit_code = 3
        except LiaisonError as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
            exit_code = max(exit_code, 1)
        except Exception as exc:  # a bug: keep the report and the later ops
            import traceback

            traceback.print_exc(file=sys.stderr)
            entry["ok"] = False
            entry["error"] = f"internal error: {type(exc).__name__}: {exc}"
            exit_code = 3
        if not entry["ok"]:
            entry["line"] = lineno
        results.append(entry)
    report = {
        "ring": repr(spec.ring),
        "K": spec.k_kind,
        "bound": spec.bound,
        "window": list(spec.window),
        "results": results,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "exit_code": exit_code,
    }
    return report, exit_code


# ---------------------------------------------------------------------------
# the gallery


GALLERIES = {
    "univariate-link": """
[ring]
p = 101
vars = x

[ideal I]
gens = x

[ideal c]
gens = x^3

[ops]
groebner I
cyclic_link I c
link I c
double_link I c
is_linked I c
invariants I
""",
    "twisted-cubic": """
[ring]
p = 101
vars = x, y, z, w

[ideal I]
gens = x*z - y^2, y*w - z^2, x*w - y*z

[ideal c]
gens = x*z - y^2, y*w - z^2

[ops]
groebner I
betti I 3
colon c I
cyclic_link I c
double_link I c
regular_sequence I 2
invariants I
""",
    "mixed-ideal-negative": """
[ring]
p = 101
vars = x, y

[ideal I]
gens = x^2, x*y

[ideal c]
gens = x^2

[ops]
invariants I
is_linked I c
double_link I c
""",
    "semigroup-345": """
[ring]
p = 101
vars = x, y, z
weights = 3, 4, 5
defining = y^2 - x*z, z^2 - x^2*y, x^3 - y*z

[K]
kind = canonical

[ideal I]
gens = x

[options]
bound = 5

[ops]
canonical_info
semidualizing
bass_numbers 2
invariants I
""",
    "direct-sum-self-link": """
[ring]
p = 101
vars = x, y

[ideal I]
gens = x

[ops]
self_link_sum I
""",
    "foxby-roundtrip": """
[ring]
p = 101
vars = x, y, z
weights = 3, 4, 5
defining = y^2 - x*z, z^2 - x^2*y, x^3 - y*z

[K]
kind = canonical

[ideal I]
gens = x

[options]
bound = 4

[ops]
foxby_roundtrip I
""",
    "adjoint-transfer": """
[ring]
p = 101
vars = x, y, z
weights = 3, 4, 5
defining = y^2 - x*z, z^2 - x^2*y, x^3 - y*z

[K]
kind = canonical

[ideal I]
gens = x

[ideal c]
gens = x^2

[options]
bound = 4

[ops]
adjoint_transfer I c
colink I c
pk_dimension I
""",
    "depth-formula": """
[ring]
p = 101
vars = x, y, z, w

[ideal I]
gens = x*z, x*w, y*z, y*w

[ideal c]
gens = x*z, y*w

[ops]
invariants I
depth_formula I c
""",
    "schenzel": """
[ring]
p = 101
vars = x, y, z, w

[ideal I]
gens = x*z - y^2, y*w - z^2, x*w - y*z

[ideal c]
gens = x*z - y^2, y*w - z^2

[ops]
schenzel I c 1
schenzel I c 2
duality I c 1
""",
    "even-liaison-ext": """
[ring]
p = 101
vars = x, y, z, w

[ideal I]
gens = x*z, x*w, y*z, y*w

[ideal c]
gens = x*z, y*w

[ops]
walk I c 2
local_cohomology I 1
""",
}


def gallery(name, p=None):
    """The spec of a built-in gallery; ``p`` as in ``parse_spec``."""
    if name not in GALLERIES:
        raise UnknownGallery(f"no gallery named {name!r}")
    return parse_spec(GALLERIES[name], p)


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(spec, args):
    if args.bound is not None:
        spec.bound = _bound(args.bound)
    if args.window is not None:
        spec.window = _window(args.window)
    return spec


def main(argv=None):
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--bound", type=int, default=None)
    flags.add_argument("--window", type=str, default=None)
    flags.add_argument("--char", type=int, default=None)
    flags.add_argument("--json-out", type=str, default=None)
    parser = argparse.ArgumentParser(
        prog="liaison",
        description="module linkage experiment runner",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment spec file", parents=[flags])
    run_p.add_argument("file")
    gal_p = sub.add_parser("gallery", help="run a built-in gallery", parents=[flags])
    gal_p.add_argument("name")
    sub.add_parser("list-galleries", help="list built-in galleries")
    args = parser.parse_args(argv)

    if args.command == "list-galleries":
        for name in sorted(GALLERIES):
            print(name)
        return 0
    if args.command == "run":
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        read = partial(parse_spec, text)
    elif args.command == "gallery":
        read = partial(gallery, args.name)
    else:
        parser.print_help()
        return 2

    try:
        spec = _apply_overrides(read(args.char), args)
    except LiaisonError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    report, code = run(spec)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
