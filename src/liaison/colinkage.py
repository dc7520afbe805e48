"""Colinkage of modules by coreflexive epimorphisms.

The Hom(K,-) side of the theory: Foxby class certificates, the functor
Ext^n(Hom(K,-),K) with its own double-dual comparison, the colinkage
operator, and the adjoint transfer carrying linked modules to colinked ones
through - (x) K and back through Hom(K, -).  When K = R every construction
collapses to the linkage side.

Callers that need only a class verdict (the K-projective dimension, the
coreflexive categories, the colinkage operator and the adjoint transfer)
ask ``class_verdict``, which checks the natural map first and then stops
at the first nonvanishing Tor or Ext; ``class_member`` lists every check
up to the bound for the report and takes its verdict from there.  The
colinkage criterion decides whether the kernel-side obstruction vanishes
without building it.
"""

from __future__ import annotations

from collections import namedtuple

from . import homalg, linkage, verdict
from .errors import (
    BassMembershipUndecided,
    ClassMembershipUndecided,
    GradeMismatch,
    IllDefinedMap,
    InjectivePhi,
    InternalConsistencyError,
    InvalidInput,
    LiaisonError,
    NuNotIso,
)
from .homalg import (
    bidual_obstructions,
    ext,
    ext_vanishes,
    kernel_obstruction_vanishes,
    projective_dimension,
    tor_vanishes,
)
from .modules import (
    ModuleMap,
    _hom_element,
    cokernel,
    grade,
    hom_induced_post,
    hom_module,
    is_iso,
    kernel,
    tensor,
    tensor_map,
)
from .ring import _memo


# ---------------------------------------------------------------------------
# the natural transformations mu and nu


def tensor_transform(M, K):
    """M (x) K together with the natural map mu: M -> Hom(K, M (x) K) (cached)."""
    return _memo(M, ("tensor_transform", K), lambda: _tensor_transform(M, K))


def _tensor_transform(M, K):
    ctx = M.ctx
    T = tensor(M, K)
    H, _ = hom_module(K, T)
    gk = len(K.gens)
    gt = len(T.gens)
    mat = []
    for j in range(len(M.gens)):
        # the map K -> M (x) K, k_a -> m_j (x) k_a
        cols = [[ctx.zero()] * gt for _ in range(gk)]
        for a in range(gk):
            cols[a][j * gk + a] = ctx.one()
        mat.append(H.express_in_gens(_hom_element(T, cols)))
    mu = ModuleMap(M, H, mat, check=False)
    return T, H, mu


def hom_transform(M, K):
    """Hom(K, M) together with the evaluation nu: K (x) Hom(K,M) -> M (cached)."""
    return _memo(M, ("hom_transform", K), lambda: _hom_transform(M, K))


def _hom_transform(M, K):
    ctx = M.ctx
    H, conv = hom_module(K, M)
    T = tensor(K, H)
    gh = len(H.gens)
    mat = []
    hd = H.gen_degrees()
    for a in range(len(K.gens)):
        for l in range(gh):
            h = conv(H.express_in_gens(H.gens[l]), degree=hd[l])
            mat.append(h.mat[a])
    nu = ModuleMap(T, M, mat, check=False)
    return H, T, nu


def foxby_transform(direction, M, K):
    """Spec surface: the transform with its natural comparison map."""
    if direction == "tensorK":
        T, _, mu = tensor_transform(M, K)
        return T, mu
    if direction == "homK":
        H, _, nu = hom_transform(M, K)
        return H, nu
    raise InvalidInput(f"unknown direction {direction!r}")


def nu_is_injective(M, K):
    _, _, nu = hom_transform(M, K)
    Knu, _ = kernel(nu)
    return Knu.is_zero()


def nu_is_iso(M, K):
    return _memo(M, ("nu_is_iso", K), lambda: is_iso(hom_transform(M, K)[2]))


def mu_is_iso(M, K):
    return _memo(M, ("mu_is_iso", K), lambda: is_iso(tensor_transform(M, K)[2]))


# ---------------------------------------------------------------------------
# Foxby class certificates


class FoxbyCert(
    namedtuple(
        "FoxbyCert",
        "module class_name bound natural_map_iso tor_checks ext_checks verdict",
    )
):
    __slots__ = ()

    def to_json(self):
        return {
            "class": self.class_name,
            "bound": self.bound,
            "natural_map_iso": self.natural_map_iso,
            "tor_vanishing": list(self.tor_checks),
            "ext_vanishing": list(self.ext_checks),
            "verdict": self.verdict.to_json(),
        }


FOXBY_CLASSES = ("Auslander", "Bass")


def class_member(class_name, M, K, bound):
    """Bounded certificate of Auslander or Bass class membership (cached).

    Lists every vanishing check up to the bound; the verdict is
    ``class_verdict``'s.
    """
    _check_class(class_name)
    return _memo(
        M, ("class_member", class_name, K, bound),
        lambda: _class_member(class_name, M, K, bound),
    )


def _class_member(class_name, M, K, bound):
    nat = _natural_map_is_iso(class_name, M, K)
    checks = list(_vanishing_checks(class_name, M, K, bound))
    tor_checks = tuple((i, z) for functor, i, z in checks if functor == "tor")
    ext_checks = tuple((i, z) for functor, i, z in checks if functor == "ext")
    v = class_verdict(class_name, M, K, bound)
    return FoxbyCert(M, class_name, bound, nat, tor_checks, ext_checks, v)


def class_verdict(class_name, M, K, bound):
    """The verdict of ``class_member`` alone (cached).

    Checks the natural map, then Tor_i and Ext^i for i = 1..bound, and
    stops at the first failure, whose index is the smallest failing one.
    """
    _check_class(class_name)
    return _memo(
        M, ("class_verdict", class_name, K, bound),
        lambda: _class_verdict(class_name, M, K, bound),
    )


def _class_verdict(class_name, M, K, bound):
    if not _natural_map_is_iso(class_name, M, K):
        return verdict.fails(witness="natural map not an isomorphism")
    for _, i, z in _vanishing_checks(class_name, M, K, bound):
        if not z:
            return verdict.fails(witness=f"vanishing fails at index {i}")
    return verdict.holds(bound=bound)


def _check_class(class_name):
    if class_name not in FOXBY_CLASSES:
        raise InvalidInput(f"unknown Foxby class {class_name!r}")


def _natural_map_is_iso(class_name, M, K):
    """mu: M -> Hom(K, M (x) K) for Auslander, nu: K (x) Hom(K, M) -> M for Bass."""
    return mu_is_iso(M, K) if class_name == "Auslander" else nu_is_iso(M, K)


def _vanishing_checks(class_name, M, K, bound):
    """Yield (functor, i, vanishes) for Tor_1, Ext^1, Tor_2, ... up to the
    bound: Tor_i(M, K) and Ext^i(K, M (x) K) for Auslander, Tor_i(Hom(K, M),
    K) and Ext^i(K, M) for Bass.  Lazy, so a caller may stop early."""
    if class_name == "Auslander":
        tor_args, ext_args = (M, K), (K, tensor_transform(M, K)[0])
    else:
        tor_args, ext_args = (hom_transform(M, K)[0], K), (K, M)
    for i in range(1, bound + 1):
        yield "tor", i, tor_vanishes(i, *tor_args)
        yield "ext", i, ext_vanishes(i, *ext_args)


# ---------------------------------------------------------------------------
# the coreflexive dual functor


def cohom_dual(M, K, n):
    """D^n(M) = Ext^n(Hom(K, M), K), defined on grade-n modules."""
    g = grade(M)
    if g != n:
        raise GradeMismatch(f"module has grade {g}, expected {n}")
    H, _ = hom_module(K, M)
    return ext(n, H, K)


def codual_obstructions(M, K, n):
    """Kernel/cokernel of the D^n-side comparison map.

    Requires the evaluation map nu to be an isomorphism, under which the
    comparison agrees with the Ext-side one; delegates accordingly.
    """
    _require_nu_iso(M, K)
    return bidual_obstructions(M, K, n)


def _require_nu_iso(M, K):
    if not nu_is_iso(M, K):
        raise NuNotIso("evaluation map K (x) Hom(K,M) -> M is not an isomorphism")


# ---------------------------------------------------------------------------
# coreflexive epimorphisms and the colinkage operator


COCATEGORY_TAGS = ("PKn", "GKPKn")


class CoreflexiveEpi(namedtuple("CoreflexiveEpi", "phi n K category_tag bound")):
    __slots__ = ()


def pk_dimension(M, K, bound):
    """(verdict, value): the K-projective dimension via pd(Hom(K, M)).

    Exact once Bass membership holds at the bound; undecided otherwise.
    """
    if not class_verdict("Bass", M, K, bound).holds():
        return verdict.undecided(bound=bound, detail="Bass membership unsettled"), None
    H, _ = hom_module(K, M)
    val = projective_dimension(H)
    return verdict.holds(bound=bound), val


def category_comember(tag, Y, K, bound):
    if tag == "PKn":
        v, val = pk_dimension(Y, K, bound)
        return v.holds() and val == grade(Y)
    if tag == "GKPKn":
        return (
            class_verdict("Bass", Y, K, bound).holds()
            and linkage.is_gk_perfect(Y, K, bound).holds()
        )
    raise InvalidInput(f"unknown coreflexive tag {tag!r}")


def coreflexive_epi(phi, K, tag, bound=None, n=None):
    """Certify phi: Y ->> N as a coreflexive homomorphism for the tag."""
    bound = linkage.default_bound(phi.source.ctx) if bound is None else bound
    C, _ = cokernel(phi)
    if not C.is_zero():
        raise IllDefinedMap("phi is not surjective")
    gy = grade(phi.source)
    gn = grade(phi.target)
    if n is None:
        n = gy
    if gy != n or gn != n:
        raise GradeMismatch(f"grades ({gy}, {gn}) differ from n = {n}")
    if not category_comember(tag, phi.source, K, bound):
        raise LiaisonError(f"source module fails the {tag} membership test")
    return CoreflexiveEpi(phi, n, K, tag, bound)


def colink_operator(e):
    """The colinked module: cokernel of D^n(N) -> D^n(Y) for phi: Y ->> N.

    Bass membership of Y (bounded) and injectivity of the evaluation map on
    N make Hom(K,-) exact on the defining sequence, so the cokernel of the
    induced map on the Hom-side duals computes the image of the operator.
    """
    phi, n, K = e.phi, e.n, e.K
    Kphi, _ = kernel(phi)
    if Kphi.is_zero():
        raise InjectivePhi("phi is injective; colinkage needs a nonzero kernel")
    if not class_verdict("Bass", phi.source, K, e.bound).holds():
        raise BassMembershipUndecided("source not certified in the Bass class")
    if not nu_is_injective(phi.target, K):
        raise NuNotIso("evaluation map of the image is not injective")
    phi_dual, HY, HN = hom_induced_post(phi, K)
    Cd, _ = cokernel(phi_dual)
    if not Cd.is_zero():
        raise InternalConsistencyError("Hom(K, phi) failed to be surjective")
    induced = homalg.ext_induced(n, phi_dual, K)
    colinked, proj = cokernel(induced)
    g = grade(colinked)
    if g != n:
        raise InternalConsistencyError(
            f"colinked module has grade {g}, expected {n}"
        )
    return colinked, proj


def is_colinked_by(e):
    """Colinkage criterion: the kernel-side codual obstruction vanishes."""
    Kphi, _ = kernel(e.phi)
    if Kphi.is_zero():
        raise InjectivePhi("phi is injective; colinkage needs a nonzero kernel")
    _require_nu_iso(e.phi.target, e.K)
    return kernel_obstruction_vanishes(e.phi.target, e.K, e.n)


# ---------------------------------------------------------------------------
# adjoint transfer between the linked and colinked worlds


def adjoint_transfer_forward(e, bound=None):
    """Carry a reflexive epi phi: X ->> M to phi (x) K: X(x)K ->> M(x)K.

    Needs the image module in the Auslander class (bounded certificate);
    the result is certified coreflexive for the K-projective tag.
    """
    K = e.K
    bound = e.bound if bound is None else bound
    if not class_verdict("Auslander", e.phi.target, K, bound).holds():
        raise ClassMembershipUndecided("image module not certified Auslander")
    phi_t, src, tgt = tensor_map(e.phi, K)
    return coreflexive_epi(phi_t, K, "PKn", bound, n=e.n)


def adjoint_transfer_backward(e, bound=None):
    """Carry a coreflexive epi psi: Y ->> N to Hom(K, psi): Y' ->> N'."""
    K = e.K
    bound = e.bound if bound is None else bound
    if not class_verdict("Bass", e.phi.target, K, bound).holds():
        raise ClassMembershipUndecided("image module not certified Bass")
    psi_dual, _, _ = hom_induced_post(e.phi, K)
    return linkage.reflexive_epi(psi_dual, K, "Pn", bound, n=e.n)
