"""Every pinned run: its exit code, the sha256 of its report and its work.

The reports, exit codes and work below are the behaviour contract: a change
may alter how a report is computed, not what it says, and may not do more
work for it (a route that gives the same bytes for far more work passes
the digests, not the work); a change that does less re-takes the work here.

A row runs one or more specs in one process.  Its digest is the sha256 of
their reports as ``liaison`` prints them (``json.dumps(report, indent=2,
sort_keys=True)``), less ``timestamp``, joined by newlines.  Its work is
(built engines, normal forms): the calls of ``ModuleGB.__init__`` and
``ModuleGB._normal_form`` while it runs, parsing included.
``tests/test_cli.py`` checks the rows tier-1 runs, each on a cold ring
registry.  Run one row in its own process with

    PYTHONPATH=src python -m tests.pins ROW

which prints its exit code, digest, work, wall time and peak RSS, and exits
1 unless all three match the row (2 for an unknown row).
"""

import contextlib
import hashlib
import json
import pathlib
import resource
import sys
import time
from collections import namedtuple

from liaison import groebner
from liaison.cli import GALLERIES, gallery, parse_spec, run

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
# the monomial curve (t^4, t^5, t^6, t^7): Cohen-Macaulay of dimension 1,
# codimension 3 and type 3, so its canonical module is not free
TYPE_THREE = (FIXTURES / "semigroup4567_bound4.spec").read_text()
M_SPEC = (FIXTURES / "semigroup4567_m.spec").read_text()
BASS_NUMBERS = TYPE_THREE[: TYPE_THREE.index("[K]")] + "[ops]\nbass_numbers 6\n"
# linkage with K canonical, over the quotient route of each ring
SEMIGROUP_LINKAGE = (FIXTURES / "semigroup345_linkage.spec").read_text()
TYPE_THREE_LINKAGE = (FIXTURES / "semigroup4567_linkage.spec").read_text()

# sources: gallery names or spec texts, run in order in one process;
# bound: set on each parsed spec as --bound does, or None for the spec's own;
# code: the largest exit code of the runs; tier1: whether tier-1 runs the
# row (CI runs each row tier-1 does not, in its own process)
Pin = namedtuple("Pin", "sources bound code digest work tier1")

PINS = {
    "adjoint-transfer": Pin(
        ("adjoint-transfer",), None, 0,
        "284aa70fbec6f4946b2c462610b8fcdfd8fae10cb9a0039c4274afd1a445905b", (136, 2946), True),
    "depth-formula": Pin(
        ("depth-formula",), None, 0,
        "efedeca783d21926e573520ce5f2564677216e6fd511a9399385bbacb78493d6", (75, 456), True),
    "direct-sum-self-link": Pin(
        ("direct-sum-self-link",), None, 0,
        "e9611a59873d1e46031b09dac2a1a64aeaa9b4834d2b6722fb8f2e6d7fd8871d", (43, 115), True),
    "even-liaison-ext": Pin(
        ("even-liaison-ext",), None, 0,
        "7e72df897fcc03407a08282cfd278fe35aa5d010a3ca3a5e18b555c577c289d3", (83, 578), True),
    "foxby-roundtrip": Pin(
        ("foxby-roundtrip",), None, 0,
        "7ddf5d93b11ce4edece3ab2edbd4641a4662c97f224e2acff95bb11b74e2107c", (57, 1035), True),
    "mixed-ideal-negative": Pin(
        ("mixed-ideal-negative",), None, 1,
        "aa8b4a8da4bd77ba25f39ad80af2b0b731c966913c8928fb00ed10377ba55ac1", (81, 179), True),
    "schenzel": Pin(
        ("schenzel",), None, 0,
        "dee2b2c2ec863d8c873dcde74be410eea35cd12cf0cd35dad38b89983c6417ef", (78, 363), True),
    "semigroup-345": Pin(
        ("semigroup-345",), None, 0,
        "ea0ce12027f6f724eeceb1619966ba8a8f0517b37f8f00b47386c11193193093", (65, 704), True),
    "twisted-cubic": Pin(
        ("twisted-cubic",), None, 0,
        "a3379890f6e82435c2778bd1b01c98d40068bd53ec5bf6d84ecf370c729714ac", (114, 587), True),
    "univariate-link": Pin(
        ("univariate-link",), None, 0,
        "f3585b663c2a9160a367ea7e455d5054ab10775b8de607248d3fdfcc779033b6", (53, 98), True),
    # the galleries over the (3, 4, 5) semigroup ring in the order of
    # perfbench's semigroup-canonical workload: equal [ring] sections parse
    # to one ring, so the later galleries find the earlier ones' entries
    "semigroup-galleries": Pin(
        ("semigroup-345", "foxby-roundtrip", "adjoint-transfer"), None, 0,
        "c5a8071a29f35065f2289e376162de0510e1abca26530fd4482877adbcd6892e", (152, 3294), True),
    # the ops of the three semigroup galleries over the type-three ring
    "type-three-3": Pin(
        (TYPE_THREE,), 3, 0,
        "77af9c575792fd6b2c96cad9b9529008ec0940dc5110c7e780a208d4ef48e36c", (162, 14371), True),
    "type-three-4": Pin(
        (TYPE_THREE,), 4, 0,
        "0dcb98b42db6894843d76c62b7dcc6696e3d85c6f566e0652f0a3bbbab7e91f0", (162, 14371), True),
    "type-three-5": Pin(
        (TYPE_THREE,), 5, 0,
        "ff679fed8172763cd0ae6ad4365d36dbe1b700ce2434af5f1318c4021155b07d", (162, 14371), True),
    # the residue field is in neither Foxby class of ω, so these exit 1
    "m-spec-2": Pin(
        (M_SPEC,), 2, 1,
        "86afa847663a6d47243f3591dc29dcd29fe3ee1ca5de4d7eb83ddecb5b43bd5d", (79, 10532), True),
    "m-spec-3": Pin(
        (M_SPEC,), 3, 1,
        "36aa6bd57583f14ead7c42b4bccd214fd83d49ca5df16482cc48ecc2ccfefdc3", (88, 27332), False),
    "m-spec-4": Pin(
        (M_SPEC,), 4, 1,
        "1985b67c95cfa08022400595a590c23e400070e246c60fb2cf487e89ec3d9070", (97, 78894), False),
    # read from the Betti numbers of ω over R/(a)
    "bass-numbers-6": Pin(
        (BASS_NUMBERS,), None, 0,
        "03455fafd711fb31e27d141038b56bc9da9d7ed06f5743e38ff8b7e30af338ea", (41, 5914), True),
    "semigroup-linkage": Pin(
        (SEMIGROUP_LINKAGE,), None, 0,
        "c5ee369952bff84e7e53c4b0d9616235eb9d9b434b617ea5ecc3ff1035e39630", (177, 2335), True),
    "type-three-linkage": Pin(
        (TYPE_THREE_LINKAGE,), None, 0,
        "ab4cb92e8289a8a4de0abfdbebe41ec84e3c4cc983d7c0db0641afcf2e32c65e", (154, 8472), True),
    # the invariants of I behind its depth formula resolve over R
    "type-three-depth-formula": Pin(
        (TYPE_THREE_LINKAGE + "depth_formula I c\n",), None, 0,
        "f3f91894f721cda3eed51dbd6187309b8f6800901ff63df8ee724c968aaf195b", (199, 24677), False),
}


@contextlib.contextmanager
def counting_work():
    """[built engines, normal forms], counted inside the ``with`` block."""
    counts = [0, 0]
    real_init, real_normal_form = groebner.ModuleGB.__init__, groebner.ModuleGB._normal_form

    def init(self, *args, **kwargs):
        counts[0] += 1
        real_init(self, *args, **kwargs)

    def normal_form(self, *args):
        counts[1] += 1
        return real_normal_form(self, *args)

    groebner.ModuleGB.__init__, groebner.ModuleGB._normal_form = init, normal_form
    try:
        yield counts
    finally:
        groebner.ModuleGB.__init__, groebner.ModuleGB._normal_form = real_init, real_normal_form


def check(name):
    """Runs row ``name`` and compares its exit code, digest and work with
    the row's, raising AssertionError with what it got if any differs.
    Returns the (spec, report) of each run, reports less ``timestamp``."""
    row = PINS[name]
    runs, texts, code = [], [], 0
    with counting_work() as work:
        for source in row.sources:
            spec = gallery(source) if source in GALLERIES else parse_spec(source)
            if row.bound is not None:
                spec.bound = row.bound
            report, run_code = run(spec)
            report.pop("timestamp")
            runs.append((spec, report))
            texts.append(json.dumps(report, indent=2, sort_keys=True))
            code = max(code, run_code)
    got = (code, hashlib.sha256("\n".join(texts).encode()).hexdigest(), tuple(work))
    if got != (row.code, row.digest, row.work):
        raise AssertionError(f"{name}: exit code, digest and work {got}, "
                             f"pinned {(row.code, row.digest, row.work)}")
    return runs


def main(argv):
    if len(argv) != 1 or argv[0] not in PINS:
        print(f"usage: python -m tests.pins ROW, a row of {sorted(PINS)}", file=sys.stderr)
        return 2
    (name,) = argv
    start = time.perf_counter()
    try:
        check(name)
        failure = None
    except AssertionError as exc:
        failure = exc
    wall_s = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    row = PINS[name]
    print(failure or f"{name}: exit code {row.code}, digest {row.digest}, work {row.work}",
          f"wall_s={wall_s:.2f}", f"peak_rss_mib={peak_mib:.1f}")
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
