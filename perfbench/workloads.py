"""Inputs of the three workloads, made from the seed alone.

The generic-links generator has its own small polynomial arithmetic (dicts
from exponent tuples to coefficients mod p), so the program under test
receives nothing but spec text.
"""

import random

SEMIGROUP_GALLERIES = ("semigroup-345", "foxby-roundtrip", "adjoint-transfer")
CLI_GALLERIES = ("univariate-link", "twisted-cubic", "mixed-ideal-negative",
                 "direct-sum-self-link", "depth-formula", "schenzel",
                 "even-liaison-ext")
CLI_EXPECTED_EXIT = {name: 0 for name in CLI_GALLERIES}
CLI_EXPECTED_EXIT["mixed-ideal-negative"] = 1
CLI_REPEATS = 2  # each of the seven galleries runs this often in one pass

P = 32003
VARS = ("x", "y", "z", "w")
# Row degrees of the 2x3 matrix whose maximal minors generate I.  (1,1) is
# the generic twisted cubic; (1,2) gives a curve of degree 7 cut out by
# three cubics.  Every pass runs one spec of each type.
ROW_DEGREES = ((1, 1), (1, 2))
GENERIC_OPS = (
    "groebner I",
    "betti I 3",
    "colon c I",
    "cyclic_link I c",
    "double_link I c",
    "is_linked I c",
    "invariants I",
    "schenzel I c 1",
    "duality I c 1",
    "depth_formula I c",
    "walk I c 2",
    "local_cohomology I 1",
    "hilbert I",
)


# -- polynomial arithmetic over F_P in four variables ------------------------

def _exponents(d, n=len(VARS)):
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in _exponents(d - e, n - 1)]


def random_form(rng, d):
    """Dense homogeneous form of degree d with nonzero random coefficients."""
    return {e: rng.randrange(1, P) for e in _exponents(d)}


def mul(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = (out.get(k, 0) + ca * cb) % P
    return {k: c for k, c in out.items() if c}


def lin(terms):
    """sum(c * f) for (c, f) in terms."""
    out = {}
    for c, f in terms:
        for k, v in f.items():
            out[k] = (out.get(k, 0) + c * v) % P
    return {k: c for k, c in out.items() if c}


def render(f):
    parts = []
    for exps in sorted(f, reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(VARS, exps) if e)
        parts.append(f"{f[exps]}*{mono}" if mono else str(f[exps]))
    return " + ".join(parts) if parts else "0"


def degree_of(f):
    return sum(next(iter(f)))


# -- specs ---------------------------------------------------------------------

def generic_link_case(rng, row_degrees):
    """(spec text, facts) for one seeded link of a codimension-2 curve.

    I is generated by the maximal minors of a random 2x3 matrix with the
    given row degrees; c is two random scalar combinations of them.
    """
    a, b = row_degrees
    top = [random_form(rng, a) for _ in range(3)]
    bottom = [random_form(rng, b) for _ in range(3)]
    minors = [lin([(1, mul(top[i], bottom[j])), (P - 1, mul(top[j], bottom[i]))])
              for i, j in ((0, 1), (0, 2), (1, 2))]
    c = [lin([(rng.randrange(1, P), m) for m in minors]) for _ in range(2)]
    # Hilbert-Burch: generators in degree a+b, syzygies in degrees 2a+b and
    # a+2b, so deg S/I = ((2a+b)^2 + (a+2b)^2 - 3(a+b)^2) / 2.
    deg_i = ((2 * a + b) ** 2 + (a + 2 * b) ** 2 - 3 * (a + b) ** 2) // 2
    text = "\n".join([
        "[ring]",
        f"p = {P}",
        f"vars = {', '.join(VARS)}",
        "",
        "[ideal I]",
        "gens = " + ", ".join(render(m) for m in minors),
        "",
        "[ideal c]",
        "gens = " + ", ".join(render(f) for f in c),
        "",
        "[ops]",
        *GENERIC_OPS,
        "",
    ])
    facts = {
        "row_degrees": list(row_degrees),
        "I": [render(m) for m in minors],
        "deg_I": deg_i,
        "deg_linked": degree_of(c[0]) * degree_of(c[1]) - deg_i,
        "ops": len(GENERIC_OPS),
    }
    return text, facts


def generic_links(seed):
    rng = random.Random(seed)
    return [generic_link_case(rng, rd) for rd in ROW_DEGREES]


def cli_schedule(seed):
    calls = [name for name in CLI_GALLERIES for _ in range(CLI_REPEATS)]
    random.Random(seed).shuffle(calls)
    return calls
