"""Linkage of modules by reflexive epimorphisms.

The central construction: from an epimorphism phi: X ->> M with X in an
n-reflexive subcategory and grade(X) = grade(M) = n, the induced injection
Ext^n(M, K) -> Ext^n(X, K) has a grade-unmixed cokernel, the linked module.
Cyclic (classical) linkage, horizontal linkage, liaison walks, the
preservation statements and colinkage all route through this operator.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import groebner, homalg, verdict
from .errors import (
    BrokenChain,
    LiaisonError,
    EqualIdeals,
    GradeMismatch,
    IllDefinedMap,
    InjectivePhi,
    InternalConsistencyError,
    InvalidInput,
    NotCohenMacaulay,
    NotRegularSequence,
    ZeroModule,
)
from .groebner import Vec, _lead_degree, _to_ideal
from .homalg import (
    bidual_obstructions,
    ext,
    ext_hilbert,
    ext_vanishes,
    free_resolution,
    kernel_obstruction_vanishes,
    transpose,
)
from .modules import (
    ModuleMap,
    _cyclic_module,
    _dual_map,
    _hom_element,
    _num,
    _stacked,
    _units,
    annihilator,
    cokernel,
    colon,
    free_module,
    grade,
    hom_module,
    identity_map,
    invariants,
    is_injective,
    is_iso,
    is_regular_sequence,
    kernel,
    ring_depth,
    ring_dim,
    ring_is_cm,
    transport,
    twist,
)
from .ring import _memo


def default_bound(ctx):
    return ctx.m + 2


# ---------------------------------------------------------------------------
# semidualizing and canonical modules


class SemidualizingCert(
    namedtuple("SemidualizingCert", "homothety_iso ext_vanishing verdict")
):
    __slots__ = ()


def canonical_module(ctx):
    """The graded canonical module of a Cohen-Macaulay quotient ring.

    For R = S/J of codimension c this is Ext^c_S(R, S) twisted by minus the
    sum of the variable weights (the ambient canonical twist); for the
    polynomial ring itself it is a twisted free rank-one module.  The
    stored module is what ``homalg._series`` recognizes to answer
    Ext^i_R(M, K) over S.
    """
    wsum = sum(ctx.weights)
    if not ctx.defining:
        return twist(free_module(ctx, 1), -wsum)
    if not ring_is_cm(ctx):
        raise NotCohenMacaulay(
            f"dim R = {ring_dim(ctx)} but depth R = {ring_depth(ctx)}"
        )
    return _memo(ctx, "canonical_module", lambda: _canonical_module(ctx, wsum))


def _canonical_module(ctx, wsum):
    amb = ctx.ambient()
    c = amb.m - ring_dim(ctx)
    R_as_S = _cyclic_module(amb, tuple(Vec(g.terms) for g in ctx.defining))
    E = ext(c, R_as_S, free_module(amb, 1))
    return transport(twist(E, -wsum), ctx)


def homothety_map(K):
    """The homothety R -> Hom(K, K), sending 1 to the identity of K."""
    ctx = K.ctx
    H, _ = hom_module(K, K)
    coords = H.express_in_gens(_hom_element(K, identity_map(K).cols))
    R1 = free_module(ctx, 1)
    return ModuleMap(R1, H, [coords], check=False)


def is_semidualizing(K, bound):
    """Certify the homothety isomorphism and Ext vanishing up to the bound."""
    if K.is_zero():
        return SemidualizingCert(False, (), verdict.fails("zero module"))
    hom_iso = is_iso(homothety_map(K))
    checks = []
    first_bad = None
    for i in range(1, bound + 1):
        z = ext_vanishes(i, K, K)
        checks.append((i, z))
        if not z and first_bad is None:
            first_bad = i
    if not hom_iso:
        v = verdict.fails("homothety not an isomorphism")
    elif first_bad is not None:
        v = verdict.fails(f"Ext^{first_bad}(K,K) != 0")
    else:
        v = verdict.holds(bound=bound)
    return SemidualizingCert(hom_iso, tuple(checks), v)


# ---------------------------------------------------------------------------
# perfection predicates


def is_perfect(M):
    """grade = projective dimension (both computed exactly)."""
    if M.is_zero():
        raise ZeroModule("perfection of the zero module is undefined")
    rep = invariants(M)
    if rep.grade == rep.pd:
        return verdict.holds(detail=f"grade = pd = {rep.grade}")
    return verdict.fails(witness=(rep.grade, rep.pd))


def is_gk_perfect(M, K, bound):
    """Bounded check that grade(M) equals the K-Gorenstein dimension.

    Holds when Ext^i(M,K) vanishes for grade < i <= bound and the double
    Ext-dual comparison is an isomorphism; a nonvanishing Ext or a nonzero
    obstruction is a definite failure.
    """
    if M.is_zero():
        raise ZeroModule("perfection of the zero module is undefined")
    n = grade(M)
    for i in range(0, n):
        if not ext_vanishes(i, M, K):
            raise InternalConsistencyError(
                f"Ext^{i}(M,K) nonzero below the grade {n}"
            )
    for i in range(n + 1, bound + 1):
        if not ext_vanishes(i, M, K):
            return verdict.fails(witness=f"Ext^{i}(M,K) != 0", detail=f"grade {n}")
    E1, E2 = bidual_obstructions(M, K, n)
    if not E1.is_zero() or not E2.is_zero():
        return verdict.fails(
            witness="double-dual comparison not an isomorphism", detail=f"grade {n}"
        )
    return verdict.holds(bound=bound, detail=f"grade {n}")


def is_cm_module(M):
    rep = invariants(M)
    return rep.dim == rep.depth


# ---------------------------------------------------------------------------
# reflexive epimorphisms and the linkage operator


class Epi(namedtuple("Epi", "phi n K category_tag bound")):
    """A certified epimorphism, reflexive or coreflexive for its tag.

    ``_certified_epi`` builds every one, and the operators take what it
    established as given: phi is onto, has a nonzero kernel, its source and
    target have grade n, and its source passes the membership test of the
    tag at the bound (for the coreflexive tags, Bass class membership).
    """
    __slots__ = ()


class LinkResult(namedtuple("LinkResult", "linked_module link_epi")):
    __slots__ = ()


def category_member(tag, X, K, bound):
    """Exact (or soundly bounded) membership test for the tagged category."""
    if tag == "Pn":
        return is_perfect(X).holds()
    if tag == "GKPn":
        return is_gk_perfect(X, K, bound).holds()
    if tag == "CMn":
        return is_cm_module(X)
    if tag == "RefnK":
        n = grade(X)
        E1, E2 = bidual_obstructions(X, K, n)
        return E1.is_zero() and E2.is_zero()
    raise InvalidInput(f"unknown category tag {tag!r}")


def reflexive_epi(phi, K, tag, bound=None, n=None):
    """Certify phi: X ->> M as a reflexive homomorphism for the tag."""
    return _certified_epi(category_member, phi, K, tag, bound, n)


def _certified_epi(member, phi, K, tag, bound, n):
    """``Epi(phi, n, K, tag, bound)`` for an epimorphism phi with a nonzero
    kernel whose source and target have grade n and whose source passes
    ``member`` for the tag."""
    bound = default_bound(phi.source.ctx) if bound is None else bound
    if not cokernel(phi)[0].is_zero():
        raise IllDefinedMap("phi is not surjective")
    if is_injective(phi):
        raise InjectivePhi("phi is injective; linkage needs a nonzero kernel")
    gs = grade(phi.source)
    gt = grade(phi.target)
    if n is None:
        n = gs
    if gs != n or gt != n:
        raise GradeMismatch(f"grades ({gs}, {gt}) differ from n = {n}")
    if not member(tag, phi.source, K, bound):
        raise LiaisonError(f"source module fails the {tag} membership test")
    return Epi(phi, n, K, tag, bound)


def link_operator(e):
    """The linked module of a reflexive epimorphism: the cokernel of the
    induced injection Ext^n(M,K) -> Ext^n(X,K), with its epimorphism,
    cached under what it reads (the map's value, n and K), so equal maps
    certified apart share one link.  Whether phi links M is a separate
    question: ``is_linked_by``, or ``bidual_obstructions`` for both."""
    key = ("link_operator", e.phi.source, e.phi.cols, e.phi.degree, e.n, e.K)
    return _memo(e.phi.target, key, lambda: _link_operator(e))


def _link_operator(e):
    phi, n, K = e.phi, e.n, e.K
    induced = homalg.ext_induced(n, phi, K)
    if not is_injective(induced):
        raise InternalConsistencyError("Ext^n(phi,K) failed to be injective")
    linked, proj = cokernel(induced)
    g = grade(linked)
    if g != n:
        raise InternalConsistencyError(
            f"linked module has grade {g}, expected {n}"
        )
    return LinkResult(linked, proj)


def is_linked_by(e):
    """Linkage criterion: the kernel-side obstruction of im(phi) vanishes."""
    return kernel_obstruction_vanishes(e.phi.target, e.K, e.n)


def double_link_check(e, window=(-6, 6)):
    """Link twice and compare with the start.

    Vanishing kernel-side obstruction certifies the isomorphism (checked by
    Hilbert functions and annihilators); a nonzero cokernel-side obstruction
    is reported but does not obstruct being linked.  The witness and the
    note print Hilbert functions on ``window``; the consistency checks
    compare on -6..6 whatever the window.
    """
    psi = link_operator(e).link_epi
    E1, E2 = bidual_obstructions(e.phi.target, e.K, e.n)
    e2 = reflexive_epi(psi, e.K, e.category_tag, e.bound, n=e.n)
    second = link_operator(e2)
    M = e.phi.target
    M2 = second.linked_module
    hf_match = M.hf_window(-6, 6) == M2.hf_window(-6, 6)
    ann_match = annihilator(M) == annihilator(M2)
    if E1.is_zero():
        if not (hf_match and ann_match):
            raise InternalConsistencyError(
                "double link drifted despite vanishing obstruction"
            )
        note = ""
        if not E2.is_zero():
            note = f"linked but the double-dual comparison is not iso; coker HF {E2.hf_window(*window)}"
        return verdict.holds(detail=note)
    if hf_match and ann_match and any(E1.hf_window(-6, 6).values()):
        # the defect is visible on -6..6, so the modules cannot agree
        raise InternalConsistencyError(
            "nonzero kernel obstruction but the double link returned the start"
        )
    return verdict.fails(witness=f"kernel obstruction HF {E1.hf_window(*window)}")


# ---------------------------------------------------------------------------
# cyclic (classical) linkage


def cyclic_link(ctx, i_gens, c_gens, K):
    """Theorem-backed link of R/I over the complete intersection c <= I,
    for I and c given by Poly generators.

    Returns Kbar/(0 : Ibar) for Kbar = Ext^n(R/c, K).  When K is free of
    rank one the annihilator is additionally checked against the colon ideal
    (c : I) computed independently.
    """
    return _cyclic_link(ctx, _to_ideal(ctx, i_gens), _to_ideal(ctx, c_gens), K)


def _cyclic_link(ctx, i_gens, c_gens, K):
    """``cyclic_link`` of ideals of Vecs, cached by value: I, c and K."""
    key = ("cyclic_link", i_gens, c_gens, K)
    return _memo(ctx, key, lambda: _link_by_ideal(ctx, i_gens, c_gens, K))


def _link_by_ideal(ctx, i_gens, c_gens, K):
    RI = _cyclic_module(ctx, i_gens)
    if not all(RI.rels_gb().contains(v) for v in c_gens):
        raise InvalidInput("c is not contained in I")
    c_gb = groebner.buchberger(c_gens, ctx, 1)
    if all(c_gb.contains(f) for f in i_gens):
        raise EqualIdeals("c equals I; the link would be degenerate")
    n = grade(RI)
    if len(c_gens) != n:
        raise GradeMismatch(
            f"complete intersection has {len(c_gens)} generators, grade of I is {n}"
        )
    if not is_regular_sequence(ctx, c_gens):
        raise NotRegularSequence("the given generators of c are not regular")
    Kbar = ext(n, _cyclic_module(ctx, c_gens), K)
    linked = annihilate_quotient(Kbar, i_gens)
    if len(K._gens) == 1 and annihilator(K) == tuple(groebner.buchberger((), ctx, 1).basis):
        if colon(c_gens, i_gens, ctx) != annihilator(linked):
            raise InternalConsistencyError(
                "annihilator of the cyclic link differs from the colon ideal"
            )
    return linked


def annihilate_quotient(Kbar, i_gens):
    """Kbar / (0 :_Kbar I) for a homogeneous ideal I of Vecs.

    The colon submodule is the kernel of x -> (f*x)_f into the direct sum of
    Kbar twisted up by the generator degrees (so the map has degree zero).
    """
    ctx = Kbar.ctx
    degs = [_lead_degree(ctx, f, (0,)) for f in i_gens]
    # x -> (f*x)_f is Hom(d, Kbar) for the row d = (f_1 .. f_r); its source
    # Hom(R, Kbar) is Kbar itself, kept so that Kbar's cached data is reused
    h = _dual_map(Kbar, [0], degs, [_stacked(i_gens, 1, ctx._pk.span)])
    mult = ModuleMap(Kbar, h.target, h.cols, check=False)
    Kc, incl = kernel(mult)
    Q, _ = cokernel(incl)
    return Q


# ---------------------------------------------------------------------------
# horizontal linkage


def horizontal_link(M):
    """The image of the R-dual of a minimal presentation (lambda of M)."""
    R1 = free_module(M.ctx, 1)
    _, lam = transpose(M, R1)
    return lam


def is_stable(M):
    """No nonzero free direct summand: the trace ideal of M is proper."""
    ctx = M.ctx
    R1 = free_module(ctx, 1)
    H, conv = hom_module(M, R1)
    trace = []
    for vec, d in zip(H._gens, H.gen_degrees()):
        # R has one generator: a column's keys are the monomials of its entry
        trace.extend(col for col in conv(H.express_in_gens(vec), degree=d).cols if col)
    if not trace:
        return True
    gb = groebner.buchberger(trace, ctx, 1)
    return not gb.contains({0: 1})


def is_horizontally_linked(M):
    """Stable with vanishing Ext^1 of the transpose against R."""
    R1 = free_module(M.ctx, 1)
    Tr, _ = transpose(M, R1)
    return is_stable(M) and ext_vanishes(1, Tr, R1)


# ---------------------------------------------------------------------------
# liaison walks


def liaison_walk(epis, window=(-6, 6)):
    """Run a chain of links, asserting the preservation statements (see
    ``_preservation_failed`` for one that fails).

    Consecutive steps must match: the linked module of step k is the image
    module of step k+1 (same annihilator and Hilbert function).  Records the
    endpoint invariants; on even-length walks checks that the higher Ext
    duals agree and that finite projective dimensions agree.
    """
    if not epis:
        raise BrokenChain("empty walk", step=0)
    K = epis[0].K
    n = epis[0].n
    nodes = [epis[0].phi.target]
    results = []
    for k, e in enumerate(epis):
        if e.n != n:
            raise BrokenChain("grade changed along the walk", step=k)
        if k > 0:
            prev_linked = results[-1].linked_module
            cur = e.phi.target
            same_ann = annihilator(prev_linked) == annihilator(cur)
            same_hf = prev_linked.hf_window(*window) == cur.hf_window(*window)
            if not (same_ann and same_hf):
                raise BrokenChain("steps are not compatible", step=k)
        results.append(link_operator(e))
        nodes.append(results[-1].linked_module)
    start, end = nodes[0], nodes[-1]
    bound = epis[0].bound
    gk_start = is_gk_perfect(start, K, bound)
    gk_end = is_gk_perfect(end, K, bound)
    report = {
        "steps": len(epis),
        "invariants": [invariants(N).to_json() for N in nodes],
        # informational statuses; the theorem check is their agreement
        "gk_perfect_start": gk_start.status,
        "gk_perfect_end": gk_end.status,
        "gk_perfect_agree": gk_start.holds() == gk_end.holds(),
    }
    if gk_start.holds() != gk_end.holds():
        raise _preservation_failed(epis, "perfection flipped along the walk")
    if len(epis) % 2 == 0:
        for i in range(n + 1, start.ctx.m + 2):
            A = ext_hilbert(i, start, K).hf_window(*window)
            if A != ext_hilbert(i, end, K).hf_window(*window):
                raise _preservation_failed(epis, "even liaison failed Ext invariance")
        report["even_ext_agree"] = True
        pd_a = invariants(start).pd
        pd_b = invariants(end).pd
        report["pd_pair"] = [_num(pd_a), _num(pd_b)]
        if pd_a is not math.inf and pd_b is not math.inf and pd_a != pd_b:
            raise _preservation_failed(epis, "even liaison changed a finite pd")
    return report


def _preservation_failed(epis, message):
    """A failed preservation statement's error: it holds for links only, so
    ``BrokenChain`` at the first step that does not link, else a theorem
    failure.  Called only on failure: a walk that holds asks no criterion."""
    for k, e in enumerate(epis):
        if not is_linked_by(e):
            return BrokenChain(f"the epimorphism does not link ({message})", step=k)
    return InternalConsistencyError(message)


def natural_cyclic_epi(ctx, i_gens, c_gens, twist_by=0):
    """The natural surjection R/c ->> R/I for Vec ideals c <= I (optionally twisted)."""
    X = _cyclic_module(ctx, c_gens, twist_by)
    M = _cyclic_module(ctx, i_gens, twist_by)
    return ModuleMap(X, M, _units(ctx, 1))


def build_cyclic_walk(ctx, i_gens, c_gens, K, steps=2, bound=None):
    """Chain of cyclic links I ~ (c:I) ~ ... of Vec ideals, with twist-matched steps.

    Linked modules come with a degree shift inherited from Ext^n(R/c, K);
    each subsequent image module is built with the matching twist so the
    walk's exact compatibility checks (annihilator and Hilbert function)
    pass on the nose.
    """
    epis = []
    current = i_gens
    tw = 0
    for k in range(steps):
        e = reflexive_epi(
            natural_cyclic_epi(ctx, current, c_gens, twist_by=tw), K, "Pn", bound
        )
        epis.append(e)
        res = link_operator(e)
        degs = free_resolution(res.linked_module, 0).level_shifts[0]
        if len(degs) != 1:
            raise BrokenChain("cyclic walk produced a non-cyclic link", step=k)
        tw = -degs[0]
        current = annihilator(res.linked_module)
    return epis


def depth_formula_check(e):
    """For a reduced-perfect source: depth M + depth N = dim M + depth of the
    top Ext dual of M (all four integers computed exactly)."""
    res = link_operator(e)
    M = e.phi.target
    N = res.linked_module
    K = e.K
    # the K-Gorenstein dimension: top nonvanishing Ext index
    top = None
    for i in range(e.phi.source.ctx.m + 1, e.n - 1, -1):
        if not ext_vanishes(i, M, K):
            top = i
            break
    if top is None:
        raise InternalConsistencyError("no nonvanishing Ext dual found")
    for i in range(e.n, top + 1):
        if i in (e.n, top):
            continue
        if not ext_vanishes(i, M, K):
            return verdict.fails(
                witness=f"Ext^{i}(M,K) != 0: module is not reduced-perfect"
            )
    lhs = invariants(M).depth + invariants(N).depth
    rhs = invariants(M).dim + invariants(ext(top, M, K)).depth
    if lhs == rhs:
        return verdict.holds(detail=f"{lhs} = {rhs} (top index {top})")
    return verdict.fails(witness=f"{lhs} != {rhs}")
