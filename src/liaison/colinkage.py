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

from . import linkage, verdict
from .errors import (
    ClassMembershipUndecided,
    GradeMismatch,
    InternalConsistencyError,
    InvalidInput,
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
    ModuleMap,
    _hom_element,
    _units,
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
    gk = len(K._gens)
    units = _units(ctx, len(T._gens))
    # the map K -> M (x) K, k_a -> m_j (x) k_a, for each generator m_j
    cols = [H.express_in_gens(_hom_element(T, units[j * gk:(j + 1) * gk]))
            for j in range(len(M._gens))]
    return T, ModuleMap(M, H, cols, check=False)


def hom_transform(M, K):
    """Hom(K, M) together with the evaluation nu: K (x) Hom(K,M) -> M (cached)."""
    return _memo(M, ("hom_transform", K), lambda: _hom_transform(M, K))


def _hom_transform(M, K):
    H, conv = hom_module(K, M)
    T = tensor(K, H)
    hd = H.gen_degrees()
    maps = [conv(H.express_in_gens(g), degree=d) for g, d in zip(H._gens, hd)]
    cols = [h.cols[a] for a in range(len(K._gens)) for h in maps]
    return H, ModuleMap(T, M, cols, check=False)


def foxby_transform(direction, M, K):
    """Spec surface: the transform with its natural comparison map."""
    if direction == "tensorK":
        return tensor_transform(M, K)
    if direction == "homK":
        return hom_transform(M, K)
    raise InvalidInput(f"unknown direction {direction!r}")


def nu_is_injective(M, K):
    Knu, _ = kernel(hom_transform(M, K)[1])
    return Knu.is_zero()


def nu_is_iso(M, K):
    return _memo(M, ("nu_is_iso", K), lambda: is_iso(hom_transform(M, K)[1]))


def mu_is_iso(M, K):
    return _memo(M, ("mu_is_iso", K), lambda: is_iso(tensor_transform(M, K)[1]))


# ---------------------------------------------------------------------------
# Foxby class certificates


class FoxbyCert(
    namedtuple("FoxbyCert", "class_name bound natural_map_iso tor_checks ext_checks verdict")
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
    """Bounded certificate of Auslander or Bass class membership.

    Lists every vanishing check up to the bound; the verdict is
    ``class_verdict``'s.
    """
    _check_class(class_name)
    nat = _natural_map_is_iso(class_name, M, K)
    checks = list(_vanishing_checks(class_name, M, K, bound))
    tor_checks = tuple((i, z) for functor, i, z in checks if functor == "tor")
    ext_checks = tuple((i, z) for functor, i, z in checks if functor == "ext")
    v = class_verdict(class_name, M, K, bound)
    return FoxbyCert(class_name, bound, nat, tor_checks, ext_checks, v)


def class_verdict(class_name, M, K, bound):
    """The verdict of ``class_member`` alone.

    Checks the natural map, then Tor_i and Ext^i for i = 1..bound, and
    stops at the first failure, whose index is the smallest failing one.
    """
    _check_class(class_name)
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
    """Hilbert data of the kernel/cokernel of the D^n-side comparison map.

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
    return linkage._certified_epi(category_comember, phi, K, tag, bound, n)


def colink_operator(e):
    """The colinked module of a coreflexive phi: Y ->> N, the cokernel of
    D^n(phi) = Ext^n(Hom(K, phi), K): the link of Hom(K, phi), a ``LinkResult``.

    Bass membership of Y (bounded, established when e was certified) and
    injectivity of the evaluation map on N make Hom(K,-) exact on the
    defining sequence, so Hom(K, phi) is onto.  Its kernel is nonzero too,
    for any K: were Hom(K, phi) injective, being onto it would be an
    isomorphism, and so would K (x) Hom(K, phi); naturality gives
    phi nu_Y = nu_N (K (x) Hom(K, phi)) with nu_Y an isomorphism and nu_N
    injective, so phi would be injective, against its certified kernel.
    """
    phi, K = e.phi, e.K
    if not nu_is_injective(phi.target, K):
        raise NuNotIso("evaluation map of the image is not injective")
    phi_dual = hom_induced_post(phi, K)
    Cd, _ = cokernel(phi_dual)
    if not Cd.is_zero():
        raise InternalConsistencyError("Hom(K, phi) failed to be surjective")
    # the private operator: the memoized one keys on the map, by identity
    return linkage._link_operator(e._replace(phi=phi_dual))


def is_colinked_by(e):
    """Colinkage criterion: the linkage criterion, once nu on N is iso."""
    _require_nu_iso(e.phi.target, e.K)
    return linkage.is_linked_by(e)


# ---------------------------------------------------------------------------
# adjoint transfer between the linked and colinked worlds


def adjoint_transfer_forward(e):
    """Carry a reflexive epi phi: X ->> M to phi (x) K: X(x)K ->> M(x)K.

    Needs the image module in the Auslander class at ``e.bound`` (bounded
    certificate); the result is certified coreflexive for PKn there.
    """
    K = e.K
    if not class_verdict("Auslander", e.phi.target, K, e.bound).holds():
        raise ClassMembershipUndecided("image module not certified Auslander")
    return coreflexive_epi(tensor_map(e.phi, K), K, "PKn", e.bound, n=e.n)


def adjoint_transfer_backward(e):
    """Carry a coreflexive epi psi: Y ->> N to Hom(K, psi): Y' ->> N', with
    N in the Bass class at ``e.bound``; certified reflexive at that bound."""
    K = e.K
    if not class_verdict("Bass", e.phi.target, K, e.bound).holds():
        raise ClassMembershipUndecided("image module not certified Bass")
    return linkage.reflexive_epi(hom_induced_post(e.phi, K), K, "Pn", e.bound, n=e.n)
