"""Linkage of modules by reflexive epimorphisms.

The central construction: from an epimorphism phi: X ->> M with X in an
n-reflexive subcategory and grade(X) = grade(M) = n, the induced injection
Ext^n(M, K) -> Ext^n(X, K) has a grade-unmixed cokernel, the linked module.
Cyclic (classical) linkage, horizontal linkage, liaison walks and the
preservation statements all route through this operator.
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
from .homalg import (
    bidual_obstructions,
    change_of_rings,
    ext,
    ext_hilbert,
    ext_vanishes,
    free_resolution,
    kernel_obstruction_vanishes,
    transpose,
)
from .modules import (
    ModuleMap,
    _dual_map,
    _hom_element,
    _num,
    annihilator,
    cokernel,
    cyclic_module,
    free_module,
    grade,
    hom_module,
    invariants,
    is_iso,
    is_regular_sequence,
    kernel,
    ring_depth,
    ring_dim,
    ring_is_cm,
    transport,
    twist,
)
from .ring import _memo, render_poly


def default_bound(ctx):
    return ctx.m + 2


# ---------------------------------------------------------------------------
# semidualizing and canonical modules


class SemidualizingCert(
    namedtuple("SemidualizingCert", "K bound homothety_iso ext_vanishing verdict")
):
    __slots__ = ()


def canonical_module(ctx):
    """The graded canonical module of a Cohen-Macaulay quotient ring.

    For R = S/J of codimension c this is Ext^c_S(R, S) twisted by minus the
    sum of the variable weights (the ambient canonical twist); for the
    polynomial ring itself it is a twisted free rank-one module.  The
    stored module is what ``homalg.ext_vanishes`` recognizes to decide
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
    R_as_S = cyclic_module(amb, list(ctx.defining))
    E = ext(c, R_as_S, free_module(amb, 1))
    return transport(twist(E, -wsum), ctx)


def homothety_map(K):
    """The homothety R -> Hom(K, K), sending 1 to the identity of K."""
    ctx = K.ctx
    H, _ = hom_module(K, K)
    g = len(K.gens)
    identity = [
        [ctx.one() if a == j else ctx.zero() for a in range(g)] for j in range(g)
    ]
    coords = H.express_in_gens(_hom_element(K, identity))
    R1 = free_module(ctx, 1)
    return ModuleMap(R1, H, [coords], check=False)


def is_semidualizing(K, bound):
    """Certify the homothety isomorphism and Ext vanishing up to the bound."""
    if K.is_zero():
        return SemidualizingCert(K, bound, False, (), verdict.fails("zero module"))
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
    return SemidualizingCert(K, bound, hom_iso, tuple(checks), v)


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


CATEGORY_TAGS = ("Pn", "GKPn", "CMn", "RefnK")


class ReflexiveEpi(namedtuple("ReflexiveEpi", "phi n K category_tag bound")):
    __slots__ = ()


class LinkResult(
    namedtuple("LinkResult", "linked_module link_epi obstructions epi")
):
    __slots__ = ()

    def to_json(self):
        E1, E2 = self.obstructions
        lo, hi = -6, 6
        return {
            "linked_presentation": self.linked_module.to_json(),
            "annihilator_gb": [render_poly(g) for g in annihilator(self.linked_module)],
            "betti": {
                f"{i},{d}": v
                for (i, d), v in free_resolution(self.linked_module, 2).betti().items()
            },
            "obstruction_hilbert_functions": {
                "kernel_side": E1.hf_window(lo, hi),
                "cokernel_side": E2.hf_window(lo, hi),
            },
        }


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
    bound = default_bound(phi.source.ctx) if bound is None else bound
    C, _ = cokernel(phi)
    if not C.is_zero():
        raise IllDefinedMap("phi is not surjective")
    gx = grade(phi.source)
    gm = grade(phi.target)
    if n is None:
        n = gx
    if gx != n or gm != n:
        raise GradeMismatch(f"grades ({gx}, {gm}) differ from n = {n}")
    if not category_member(tag, phi.source, K, bound):
        raise LiaisonError(f"source module fails the {tag} membership test")
    return ReflexiveEpi(phi, n, K, tag, bound)


def link_operator(e):
    """The linked module of a reflexive epimorphism: the cokernel of the
    induced injection Ext^n(M,K) -> Ext^n(X,K), with its epimorphism and
    the double-dual obstructions of M attached (cached per epimorphism)."""
    return _memo(e.phi.target, ("link_operator", e), lambda: _link_operator(e))


def _link_operator(e):
    phi, n, K = e.phi, e.n, e.K
    Kphi, _ = kernel(phi)
    if Kphi.is_zero():
        raise InjectivePhi("phi is injective; linkage needs a nonzero kernel")
    induced = homalg.ext_induced(n, phi, K)
    Kind, _ = kernel(induced)
    if not Kind.is_zero():
        raise InternalConsistencyError("Ext^n(phi,K) failed to be injective")
    linked, proj = cokernel(induced)
    obstructions = bidual_obstructions(phi.target, K, n)
    g = grade(linked)
    if g != n:
        raise InternalConsistencyError(
            f"linked module has grade {g}, expected {n}"
        )
    return LinkResult(linked, proj, obstructions, e)


def is_linked_by(e):
    """Linkage criterion: the kernel-side obstruction of im(phi) vanishes."""
    phi = e.phi
    Kphi, _ = kernel(phi)
    if Kphi.is_zero():
        raise InjectivePhi("phi is injective; linkage needs a nonzero kernel")
    return kernel_obstruction_vanishes(phi.target, e.K, e.n)


def double_link_check(e):
    """Link twice and compare with the start.

    Vanishing kernel-side obstruction certifies the isomorphism (checked by
    Hilbert functions and annihilators); a nonzero cokernel-side obstruction
    is reported but does not obstruct being linked.
    """
    first = link_operator(e)
    E1, E2 = first.obstructions
    psi = first.link_epi
    e2 = reflexive_epi(psi, e.K, e.category_tag, e.bound, n=e.n)
    second = link_operator(e2)
    M = e.phi.target
    M2 = second.linked_module
    lo, hi = -6, 6
    hf_match = all(M.hf(d) == M2.hf(d) for d in range(lo, hi + 1))
    ann_match = _ideal_eq(annihilator(M), annihilator(M2), M.ctx)
    if E1.is_zero():
        if not (hf_match and ann_match):
            raise InternalConsistencyError(
                "double link drifted despite vanishing obstruction"
            )
        note = ""
        if not E2.is_zero():
            note = f"linked but the double-dual comparison is not iso; coker HF {E2.hf_window(lo, hi)}"
        return verdict.holds(detail=note)
    delta = E1.hf_window(lo, hi)
    if hf_match and ann_match and any(delta.values()):
        # the defect is visible on the window, so the modules cannot agree
        raise InternalConsistencyError(
            "nonzero kernel obstruction but the double link returned the start"
        )
    return verdict.fails(witness=f"kernel obstruction HF {delta}")


def _ideal_eq(a, b, ctx):
    return [render_poly(g) for g in a] == [render_poly(g) for g in b]


# ---------------------------------------------------------------------------
# cyclic (classical) linkage


def grade_of_ideal(ctx, gens):
    return grade(cyclic_module(ctx, gens))


def cyclic_link(ctx, i_gens, c_gens, K):
    """Theorem-backed link of R/I over the complete intersection c <= I.

    Returns Kbar/(0 : Ibar) for Kbar = Ext^n(R/c, K).  When K is free of
    rank one the annihilator is additionally checked against the colon ideal
    (c : I) computed independently.
    """
    i_gens = [ctx.lift_poly(f) for f in i_gens if f]
    c_gens = [ctx.lift_poly(f) for f in c_gens if f]
    RI = cyclic_module(ctx, i_gens)
    if not all(RI.rels_gb().contains((f,)) for f in c_gens):
        raise InvalidInput("c is not contained in I")
    c_gb = groebner.buchberger([(g,) for g in c_gens], ctx, 1)
    if all(c_gb.contains((f,)) for f in i_gens):
        raise EqualIdeals("c equals I; the link would be degenerate")
    n = grade(RI)
    if len(c_gens) != n:
        raise GradeMismatch(
            f"complete intersection has {len(c_gens)} generators, grade of I is {n}"
        )
    if not is_regular_sequence(ctx, c_gens):
        raise NotRegularSequence("the given generators of c are not regular")
    Rc = cyclic_module(ctx, c_gens)
    Kbar = ext(n, Rc, K)
    linked = annihilate_quotient(Kbar, i_gens)
    if len(K.gens) == 1 and not annihilator(K):
        expected = groebner.colon(c_gens, i_gens, ctx)
        got = annihilator(linked)
        if [render_poly(g) for g in expected] != [render_poly(g) for g in got]:
            raise InternalConsistencyError(
                "annihilator of the cyclic link differs from the colon ideal"
            )
    return linked


def annihilate_quotient(Kbar, i_gens):
    """Kbar / (0 :_Kbar I) for an ideal I.

    The colon submodule is the kernel of x -> (f*x)_f into the direct sum of
    Kbar twisted up by the generator degrees (so the map has degree zero).
    """
    degs = [f.homogeneous_degree() for f in i_gens]
    # x -> (f*x)_f is Hom(d, Kbar) for the row d = (f_1 .. f_r); its source
    # Hom(R, Kbar) is Kbar itself, kept so that Kbar's cached data is reused
    h, _, target = _dual_map(Kbar, [0], degs, [tuple(i_gens)])
    mult = ModuleMap(Kbar, target, h.mat, check=False)
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
    for idx in range(len(H.gens)):
        coords = H.express_in_gens(H.gens[idx])
        f = conv(coords, degree=H.gen_degrees()[idx])
        for col in f.mat:
            if col[0]:
                trace.append(col[0])
    if not trace:
        return True
    gb = groebner.buchberger([(g,) for g in trace], ctx, 1)
    return not gb.contains((ctx.one(),))


def is_horizontally_linked(M):
    """Stable with vanishing Ext^1 of the transpose against R."""
    R1 = free_module(M.ctx, 1)
    Tr, _ = transpose(M, R1)
    return is_stable(M) and ext_vanishes(1, Tr, R1)


# ---------------------------------------------------------------------------
# liaison walks


def liaison_walk(epis, window=(-6, 6)):
    """Run a chain of links, asserting the preservation statements.

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
            same_ann = _ideal_eq(annihilator(prev_linked), annihilator(cur), cur.ctx)
            same_hf = all(
                prev_linked.hf(d) == cur.hf(d)
                for d in range(window[0], window[1] + 1)
            )
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
        raise InternalConsistencyError("perfection flipped along the walk")
    if len(epis) % 2 == 0:
        hi_ext_equal = True
        ctx = start.ctx
        for i in range(n + 1, ctx.m + 2):
            A = ext_hilbert(i, start, K)
            B = ext_hilbert(i, end, K)
            if any(
                A.hf(d) != B.hf(d) for d in range(window[0], window[1] + 1)
            ):
                hi_ext_equal = False
                break
        report["even_ext_agree"] = hi_ext_equal
        if not hi_ext_equal:
            raise InternalConsistencyError("even liaison failed Ext invariance")
        pd_a = invariants(start).pd
        pd_b = invariants(end).pd
        report["pd_pair"] = [_num(pd_a), _num(pd_b)]
        if pd_a is not math.inf and pd_b is not math.inf and pd_a != pd_b:
            raise InternalConsistencyError("even liaison changed a finite pd")
    return report


def natural_cyclic_epi(ctx, i_gens, c_gens, twist_by=0):
    """The natural surjection R/c ->> R/I for c <= I (optionally twisted)."""
    X = cyclic_module(ctx, c_gens, twist_by)
    M = cyclic_module(ctx, i_gens, twist_by)
    return ModuleMap(X, M, [[ctx.one()]])


def build_cyclic_walk(ctx, i_gens, c_gens, K, steps=2, tag="Pn", bound=None):
    """Chain of cyclic links I ~ (c:I) ~ ... with twist-matched steps.

    Linked modules come with a degree shift inherited from Ext^n(R/c, K);
    each subsequent image module is built with the matching twist so the
    walk's exact compatibility checks (annihilator and Hilbert function)
    pass on the nose.
    """
    epis = []
    current = list(i_gens)
    tw = 0
    for k in range(steps):
        e = reflexive_epi(
            natural_cyclic_epi(ctx, current, c_gens, twist_by=tw), K, tag, bound
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
