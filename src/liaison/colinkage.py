"""Colinkage of modules by coreflexive epimorphisms.

The Hom(K,-) side of the theory: Foxby class certificates, the functor
Ext^n(Hom(K,-),K) with its own double-dual comparison, the colinkage
operator, and the adjoint transfer carrying linked modules to colinked ones
through - (x) K and back through Hom(K, -).  When K = R every construction
collapses to the linkage side.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homalg, linkage, verdict
from .errors import (
    BassMembershipUndecided,
    ClassMembershipUndecided,
    GradeMismatch,
    IllDefinedMap,
    InjectivePhi,
    InternalConsistencyError,
    LiaisonError,
    NuNotIso,
)
from .homalg import (
    bidual_obstructions,
    ext,
    ext_vanishes,
    projective_dimension,
    tor_vanishes,
)
from .modules import (
    GradedModule,
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
    """M (x) K together with the natural map mu: M -> Hom(K, M (x) K)."""
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
    """Hom(K, M) together with the evaluation nu: K (x) Hom(K,M) -> M."""
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
    raise ValueError(f"unknown direction {direction!r}")


def nu_is_injective(M, K):
    _, _, nu = hom_transform(M, K)
    Knu, _ = kernel(nu)
    return Knu.is_zero()


def nu_is_iso(M, K):
    _, _, nu = hom_transform(M, K)
    return is_iso(nu)


def mu_is_iso(M, K):
    _, _, mu = tensor_transform(M, K)
    return is_iso(mu)


# ---------------------------------------------------------------------------
# Foxby class certificates


@dataclass(frozen=True)
class FoxbyCert:
    module: GradedModule
    class_name: str
    bound: int
    natural_map_iso: bool
    tor_checks: tuple
    ext_checks: tuple
    verdict: verdict.Verdict

    def to_json(self):
        return {
            "class": self.class_name,
            "bound": self.bound,
            "natural_map_iso": self.natural_map_iso,
            "tor_vanishing": list(self.tor_checks),
            "ext_vanishing": list(self.ext_checks),
            "verdict": self.verdict.to_json(),
        }


def class_member(class_name, M, K, bound):
    """Bounded certificate of Auslander or Bass class membership (cached)."""
    if class_name not in ("Auslander", "Bass"):
        raise ValueError(f"unknown Foxby class {class_name!r}")
    return _memo(
        M, ("class_member", class_name, K, bound),
        lambda: _class_member(class_name, M, K, bound),
    )


def _class_member(class_name, M, K, bound):
    indices = range(1, bound + 1)
    if class_name == "Auslander":
        T, _, mu = tensor_transform(M, K)
        nat = is_iso(mu)
        tor_checks = tuple((i, tor_vanishes(i, M, K)) for i in indices)
        ext_checks = tuple((i, ext_vanishes(i, K, T)) for i in indices)
    else:
        H, _, nu = hom_transform(M, K)
        nat = is_iso(nu)
        tor_checks = tuple((i, tor_vanishes(i, H, K)) for i in indices)
        ext_checks = tuple((i, ext_vanishes(i, K, M)) for i in indices)
    ok_vanishing = all(z for _, z in tor_checks) and all(z for _, z in ext_checks)
    if nat and ok_vanishing:
        v = verdict.holds(bound=bound)
    elif not nat:
        v = verdict.fails(witness="natural map not an isomorphism")
    else:
        bad = [i for i, z in tor_checks if not z] + [i for i, z in ext_checks if not z]
        v = verdict.fails(witness=f"vanishing fails at index {min(bad)}")
    return FoxbyCert(M, class_name, bound, nat, tor_checks, ext_checks, v)


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
    if not nu_is_iso(M, K):
        raise NuNotIso("evaluation map K (x) Hom(K,M) -> M is not an isomorphism")
    return bidual_obstructions(M, K, n)


# ---------------------------------------------------------------------------
# coreflexive epimorphisms and the colinkage operator


COCATEGORY_TAGS = ("PKn", "GKPKn")


@dataclass(frozen=True)
class CoreflexiveEpi:
    phi: ModuleMap
    n: int
    K: GradedModule
    category_tag: str
    bound: int


def pk_dimension(M, K, bound):
    """(verdict, value): the K-projective dimension via pd(Hom(K, M)).

    Exact once Bass membership holds at the bound; undecided otherwise.
    """
    cert = class_member("Bass", M, K, bound)
    if not cert.verdict.holds():
        return verdict.undecided(bound=bound, detail="Bass membership unsettled"), None
    H, _ = hom_module(K, M)
    val = projective_dimension(H)
    return verdict.holds(bound=bound), val


def category_comember(tag, Y, K, bound):
    if tag == "PKn":
        v, val = pk_dimension(Y, K, bound)
        return v.holds() and val == grade(Y)
    if tag == "GKPKn":
        cert = class_member("Bass", Y, K, bound)
        return cert.verdict.holds() and linkage.is_gk_perfect(Y, K, bound).holds()
    raise ValueError(f"unknown coreflexive tag {tag!r}")


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
    bass = class_member("Bass", phi.source, K, e.bound)
    if not bass.verdict.holds():
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
    E1, _ = codual_obstructions(e.phi.target, e.K, e.n)
    return E1.is_zero()


# ---------------------------------------------------------------------------
# adjoint transfer between the linked and colinked worlds


def adjoint_transfer_forward(e, bound=None):
    """Carry a reflexive epi phi: X ->> M to phi (x) K: X(x)K ->> M(x)K.

    Needs the image module in the Auslander class (bounded certificate);
    the result is certified coreflexive for the K-projective tag.
    """
    K = e.K
    bound = e.bound if bound is None else bound
    cert = class_member("Auslander", e.phi.target, K, bound)
    if not cert.verdict.holds():
        raise ClassMembershipUndecided("image module not certified Auslander")
    phi_t, src, tgt = tensor_map(e.phi, K)
    return coreflexive_epi(phi_t, K, "PKn", bound, n=e.n)


def adjoint_transfer_backward(e, bound=None):
    """Carry a coreflexive epi psi: Y ->> N to Hom(K, psi): Y' ->> N'."""
    K = e.K
    bound = e.bound if bound is None else bound
    cert = class_member("Bass", e.phi.target, K, bound)
    if not cert.verdict.holds():
        raise ClassMembershipUndecided("image module not certified Bass")
    psi_dual, _, _ = hom_induced_post(e.phi, K)
    return linkage.reflexive_epi(psi_dual, K, "Pn", bound, n=e.n)


def roundtrip_is_identity(M, K):
    """mu_K(M): M -> Hom(K, M (x) K) is an isomorphism (Foxby round trip)."""
    return mu_is_iso(M, K)
