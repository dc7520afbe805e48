"""Three-valued results for bounded verifications."""

from __future__ import annotations

from collections import namedtuple

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided_at_bound"


class Verdict(
    namedtuple("Verdict", "status witness bound detail", defaults=(None, None, ""))
):
    __slots__ = ()

    def holds(self):
        return self.status == HOLDS

    def fails(self):
        return self.status == FAILS

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.bound is not None:
            out["bound"] = self.bound
        if self.detail:
            out["detail"] = self.detail
        return out


def holds(bound=None, detail=""):
    return Verdict(HOLDS, bound=bound, detail=detail)


def fails(witness=None, detail=""):
    return Verdict(FAILS, witness=witness, detail=detail)


def undecided(bound=None, detail=""):
    return Verdict(UNDECIDED, bound=bound, detail=detail)
