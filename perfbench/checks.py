"""Output gates: every report the benchmark receives is checked here.

Galleries are compared op by op with digests captured from the unchanged
program (``reference/galleries.json``); ``timestamp`` is excluded.  The
generic-links answers are checked against what the Hilbert-Burch and
Peskine-Szpiro theory predicts, with Hilbert functions recomputed by the
degree-slice elimination in ``tests/oracle.py``.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "galleries.json")


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def report_digests(report):
    """(header digest, [entry digests]) of a report without its timestamp."""
    header = {k: v for k, v in report.items() if k not in ("results", "timestamp")}
    return digest(header), [digest(entry) for entry in report["results"]]


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["galleries"]


class Tally:
    """Counts over all checked ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def note(self, msg):
        if len(self.notes) < 20:
            self.notes.append(msg)

    def ops(self, report, where):
        for entry in report["results"]:
            self.attempted += 1
            if not entry.get("ok"):
                self.failed += 1
                self.note(f"{where}: {entry['op']} not ok: {entry.get('error')}")


def check_gallery(tally, reference, name, report):
    tally.ops(report, name)
    ref = reference[name]
    header, entries = report_digests(report)
    if header != ref["header"]:
        tally.wrong += 1
        tally.note(f"{name}: report header differs from the reference")
    for i in range(max(len(entries), len(ref["ops"]))):
        got = entries[i] if i < len(entries) else None
        want = ref["ops"][i] if i < len(ref["ops"]) else None
        if got != want:
            tally.wrong += 1
            tally.note(f"{name}: op {i} differs from the reference")


class GenericOracle:
    """Theory checks of one generic-links spec, with the oracle's HF."""

    def __init__(self, root):
        for sub in ("src", "tests"):
            path = os.path.join(root, sub)
            if path not in sys.path:
                sys.path.insert(0, path)
        import oracle
        from liaison.ring import make_ring, parse_poly
        self.oracle = oracle
        self.parse_poly = parse_poly
        self.ctx = make_ring(32003, ["x", "y", "z", "w"])
        self.cache = {}

    def hf(self, gens, d):
        cols = [(self.parse_poly(self.ctx, g),) for g in gens]
        return self.oracle.hf_of_quotient(self.ctx, 1, [0], cols, d)

    def problems(self, facts, report):
        key = digest([facts, report])
        if key not in self.cache:
            self.cache[key] = self._problems(facts, report)
        return self.cache[key]

    def _problems(self, facts, report):
        by_op = {e["op"]: e.get("data") for e in report["results"] if e.get("ok")}
        out = []

        def expect(cond, msg):
            if not cond:
                out.append(msg)

        expect(by_op.get("betti", {}).get("betti_numbers") == [1, 3, 2],
               "Betti numbers are not [1, 3, 2]")
        expect(by_op.get("is_linked", {}).get("linked") is True, "is_linked is not true")
        expect(by_op.get("double_link", {}).get("verdict", {}).get("status") == "holds",
               "double_link verdict is not holds")
        hil = by_op.get("hilbert") or {}
        expect(hil.get("degree") == str(facts["deg_I"]),
               f"deg S/I is {hil.get('degree')}, expected {facts['deg_I']}")
        for row in hil.get("hf", []):
            want = self.hf(facts["I"], row["degree"])
            expect(row["value"] == want,
                   f"HF(S/I)({row['degree']}) = {row['value']}, oracle says {want}")
        linked = (by_op.get("colon") or {}).get("colon")
        if linked is None:
            out.append("colon c I missing")
        else:
            # a line or a plane conic: its Hilbert function is linear from
            # degree 1 on, so one difference gives the degree
            got = self.hf(linked, 6) - self.hf(linked, 5)
            expect(got == facts["deg_linked"],
                   f"linked curve has degree {got}, expected {facts['deg_linked']}")
        expect(len(report["results"]) == facts["ops"],
               f"{len(report['results'])} results for {facts['ops']} ops")
        return out

