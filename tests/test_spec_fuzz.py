"""The failure contract, fuzzed: gallery specs with lines deleted, duplicated
and swapped, names renamed, bad literals, and huge and negative integers
never print a traceback on stdout, exit 0, 1, 2 or 3, and exit 2 exactly
when the spec or a drawn ``--window`` does not parse."""

import contextlib
import io
import re

from hypothesis import given, settings, strategies as st

from liaison.cli import GALLERIES, main, parse_spec
from liaison.errors import LiaisonError

HUGE_PRIME = 1000000000000000000000000000057
# any integer of the spec may take these, the characteristic included; four
# are at least 2^31, two of them primes whose trial division would not end
WILD = [0, 1, 3, -1, -7, 2**31 - 1, 2**31, 2**61 - 1, 10**30, -(10**30), HUGE_PRIME]
# the integers that size work are capped instead: the bound and operation
# arguments (walk steps, betti length, ...) small or hugely negative; a
# window takes small ones or wild ones, which the parser refuses from 2^20 on
SMALL = [-2, -1, 0, 1, 2, 3]
LITERALS = ["", "abc", "x^", "1/2", "2**3", "x^-1", "(x", "0x10", "1e3", "x y",
            "*", ",", ";", "..", "3..", "..3", "x^99999999999999999999", "[", "="]
NAMES = ["I", "c", "M", "J", "x", "a", "ideal I", "module M", "ring", "K",
         "options", "ops", "gens", "rels", "p", "vars", "bound", "window",
         "kind", "canonical", "explicit", "invariants", "betti", "walk", "colon"]


# the galleries declare no module, so one spec with modules and options joins them
MODULE_SPEC = """
[ring]
p = 101
vars = x, y

[module M]
ambient = 2
shifts = 0, 1
gens = x, 1; y, 0
rels = x^2, x

[module KK]
ambient = 1
shifts = 0
gens = 1
rels =

[K]
kind = explicit
name = KK

[ideal I]
gens = x

[options]
bound = 3
window = -2..4

[ops]
invariants M
hilbert M
betti M 2
annihilator M
"""
SPECS = sorted(GALLERIES.values()) + [MODULE_SPEC]


def _integers_for(line):
    """The integers a line may take: a ``window`` small or wild ones, a
    ``bound`` and an operation line (no ``=``) small or hugely negative
    ones."""
    key, sep, _ = line.partition("=")
    if key.strip() == "window":
        return SMALL + WILD
    return SMALL + [-(10**30)] if not sep or key.strip() == "bound" else WILD


def _mutate(data, lines):
    kind = data.draw(st.sampled_from(
        ["delete", "duplicate", "swap", "rename", "literal", "integer", "integer"]))
    if not lines:
        return [data.draw(st.sampled_from(LITERALS))]
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + [line] + lines[i + 1:]
    if kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    if kind == "rename":
        words = re.findall(r"[A-Za-z_]+", line)
        if words:
            old = data.draw(st.sampled_from(words))
            line = re.sub(rf"\b{old}\b", data.draw(st.sampled_from(NAMES)), line, count=1)
    elif kind == "literal":
        # the value after "=", or one word of an operation line
        entries = [k for k, text in enumerate(lines) if text.split() and text[0] != "["]
        if entries:
            i = data.draw(st.sampled_from(entries))
            key, sep, _ = lines[i].partition("=")
            words = lines[i].split()
            bad = data.draw(st.sampled_from(LITERALS))
            if sep:
                line = f"{key}= {bad}"
            else:
                words[data.draw(st.integers(0, len(words) - 1))] = bad
                line = " ".join(words)
    else:
        # one integer of a line that has some
        spots = [k for k, text in enumerate(lines) if re.search(r"\d", text)]
        if spots:
            i = data.draw(st.sampled_from(spots))
            m = data.draw(st.sampled_from(list(re.finditer(r"-?\d+", lines[i]))))
            value = data.draw(st.sampled_from(_integers_for(lines[i])))
            line = lines[i][:m.start()] + str(value) + lines[i][m.end():]
    return lines[:i] + [line] + lines[i + 1:]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_specs_keep_the_failure_contract(tmp_path_factory, data):
    lines = data.draw(st.sampled_from(SPECS)).strip().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate(data, lines)
    text = "\n".join(lines) + "\n"
    try:
        bound = min(parse_spec(text).bound, 3)  # a default bound is capped too
    except LiaisonError:
        bound = None
    path = tmp_path_factory.mktemp("fuzz") / "mutated.spec"
    path.write_text(text)
    flags = [] if bound is None else ["--bound", str(bound)]
    # a --window as wild as a window line; an end of size 2^20 or more is
    # refused, since the Hilbert function would walk every degree up to it,
    # and so is lo above hi, which would compare nothing
    end = st.sampled_from(SMALL + WILD)
    ends = data.draw(st.none() | st.tuples(end, end))
    if ends:
        flags.append(f"--window={ends[0]}..{ends[1]}")
    refused = bound is None or bool(ends) and (
        any(abs(e) >= 2**20 for e in ends) or ends[0] > ends[1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), *flags])
    assert "Traceback" not in out.getvalue()
    assert code in (0, 1, 2, 3)
    assert (code == 2) == refused, err.getvalue()
