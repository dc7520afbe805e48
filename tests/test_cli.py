import ast
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import liaison
from liaison import groebner, homalg
from liaison.cli import (
    _ARG_KINDS,
    GALLERIES,
    HANDLERS,
    Ideal,
    _as_module,
    gallery,
    main,
    parse_spec,
    run,
)
from liaison.errors import (
    InternalConsistencyError,
    InvalidInput,
    NonCMForCanonical,
    SpecSyntaxError,
    UnknownGallery,
    UnknownName,
)

from tests.pins import PINS, SEMIGROUP_LINKAGE, check
from tests.polyref import ideal
from tests.test_ext_route import routed_ext_questions, watch_ext_questions

MINIMAL = """
[ring]
p = 101
vars = x

[ideal I]
gens = x

[ops]
invariants I
"""


def test_parse_minimal_spec():
    spec = parse_spec(MINIMAL)
    assert spec.ring.p == 101
    assert [op for op, _, _ in spec.ops] == ["invariants"]


def test_parse_rejects_undefined_name():
    with pytest.raises(UnknownName):
        parse_spec(MINIMAL.replace("invariants I", "invariants J"))


def test_parse_rejects_unknown_op():
    with pytest.raises(SpecSyntaxError):
        parse_spec(MINIMAL.replace("invariants I", "frobnicate I"))


def test_parse_reports_line_numbers():
    bad = MINIMAL.replace("gens = x", "gens x")
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(bad)
    assert "line" in str(err.value)


def test_canonical_requires_cm():
    text = """
[ring]
p = 101
vars = x, y, z, w
defining = x*z, x*w, y*z, y*w

[K]
kind = canonical

[ideal I]
gens = x

[ops]
invariants I
"""
    with pytest.raises(NonCMForCanonical):
        parse_spec(text)


def test_gallery_lookup():
    spec = gallery("univariate-link")
    assert spec.ring.m == 1
    with pytest.raises(UnknownGallery):
        gallery("no-such")


def test_gallery_semigroup_declares_canonical():
    spec = gallery("semigroup-345")
    assert spec.k_kind == "canonical"
    assert spec.bound == 5


def test_empty_ops_gives_empty_report():
    spec = parse_spec(MINIMAL.replace("invariants I", ""))
    report, code = run(spec)
    assert report["results"] == [] and code == 0


def test_run_is_deterministic_modulo_timestamp():
    spec1 = gallery("univariate-link")
    spec2 = gallery("univariate-link")
    r1, _ = run(spec1)
    r2, _ = run(spec2)
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_main_gallery_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gallery", "univariate-link", "--json-out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    link_res = [e for e in blob["results"] if e["op"] == "cyclic_link"][0]
    assert link_res["data"]["annihilator"] == ["x^2"]


def test_main_run_spec_file(tmp_path):
    f = tmp_path / "exp.spec"
    f.write_text(MINIMAL)
    out = tmp_path / "r.json"
    assert main(["run", str(f), "--json-out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["results"][0]["data"]["dim"] == 0  # R/(x) is the residue field


def test_main_usage_errors(tmp_path, capsys):
    assert main(["gallery", "no-such"]) == 2
    assert capsys.readouterr().err == "parse error: no gallery named 'no-such'\n"
    bad = tmp_path / "bad.spec"
    bad.write_text("[ring]\np = 4\nvars = x\n")
    assert main(["run", str(bad)]) == 2


def test_main_list_galleries(capsys):
    assert main(["list-galleries"]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 10 and "twisted-cubic" in out


def test_list_galleries_takes_no_options(tmp_path):
    # it reads no option, so one after it is a usage error, as one before it
    out = tmp_path / "r.json"
    for argv in (["list-galleries", "--json-out", str(out), "--bound", "3"],
                 ["--json-out", str(out), "list-galleries"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not out.exists()


def test_negative_gallery_exits_one(tmp_path):
    out = tmp_path / "neg.json"
    code = main(["gallery", "mixed-ideal-negative", "--json-out", str(out)])
    assert code == 1
    blob = json.loads(out.read_text())
    linked = [e for e in blob["results"] if e["op"] == "is_linked"][0]
    assert linked["data"]["linked"] is False


def test_char_override(tmp_path):
    out = tmp_path / "c.json"
    code = main(["gallery", "univariate-link", "--char", "32003", "--json-out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert "32003" in blob["ring"]
    # the same report as the spec text with the characteristic written in
    f = tmp_path / "c.spec"
    f.write_text(GALLERIES["univariate-link"].replace("p = 101", "p = 32003"))
    written = tmp_path / "w.json"
    assert main(["run", str(f), "--json-out", str(written)]) == 0
    blob_written = json.loads(written.read_text())
    blob.pop("timestamp")
    blob_written.pop("timestamp")
    assert blob == blob_written


MALFORMED = [
    (MINIMAL.replace("p = 101", "p = abc"), [], "p = abc"),
    (MINIMAL + "[module M]\nambient = two\ngens = 1\n", [], "ambient = two"),
    (MINIMAL + "[options]\nbound = x\n", [], "bound = x"),
    (MINIMAL + "[options]\nwindow = 3\n", [], "window = 3"),
    (MINIMAL, ["--window=3"], None),
    (MINIMAL + "[module M]\nambient = 2\nshifts = 0, 1, 2\ngens = 1, 0\n", [],
     "shifts = 0, 1, 2"),
    (MINIMAL + "[module M]\ngens = x^\n", [], "gens = x^"),
    (MINIMAL.replace("vars = x", "vars = x, x"), [], "[ring]"),
    (MINIMAL + "[module M]\nambient = 10000000000000000000\n", [],
     "ambient = 10000000000000000000"),
    (MINIMAL + "[module M]\nambient = -1\n", [], "ambient = -1"),
    # a literal whose degree reaches the monomial limit 2^20
    (MINIMAL + "[ideal J]\ngens = x^1000000000000000000000000000000\n", [],
     "gens = x^1000000000000000000000000000000"),
    (MINIMAL + "[module M]\ngens = x^2000000\n", [], "gens = x^2000000"),
    # a shift of size 2^20 or more
    (MINIMAL + "[module M]\nshifts = -1000000000000000000000000000000\ngens = 1\n", [],
     "shifts = -1000000000000000000000000000000"),
    (MINIMAL + "[module M]\nshifts = 1048576\ngens = 1\n", [], "shifts = 1048576"),
    # a window end of size 2^20 or more: the Hilbert function walks every degree
    (MINIMAL + "[options]\nwindow = 1000000000000000..1000000000000000\n", [],
     "window = 1000000000000000..1000000000000000"),
    (MINIMAL + "[options]\nwindow = 0..1048576\n", [], "window = 0..1048576"),
    (MINIMAL, ["--window=-1048576..0"], None),
    # a window whose lo is above its hi would compare nothing
    (MINIMAL + "[options]\nwindow = 3..-3\n", [], "window = 3..-3"),
    (MINIMAL, ["--window=3..-3"], None),
    # a weight the monomial packing cannot store, refused when the ring is built
    (MINIMAL.replace("vars = x", "vars = x, y\nweights = 1048576, 1"), [],
     "weights = 1048576, 1"),
    # a defining literal too high names the section, not the weights
    (MINIMAL.replace("vars = x", "vars = x, y\nweights = 2, 1\ndefining = y^2000000"), [],
     "[ring]"),
    # a weight that is not positive, or one too few, names the weights line
    (MINIMAL.replace("vars = x", "vars = x, y\nweights = 0, 1"), [], "weights = 0, 1"),
    (MINIMAL.replace("vars = x", "vars = x, y\nweights = 2"), [], "weights = 2"),
    # a second ring would leave the ideals before it over the first
    (MINIMAL.replace("[ops]", "[ring]  # the second\np = 7\nvars = y\n\n[ops]"), [],
     "[ring]  # the second"),
    # a second [options], [K] or same-named [ideal] or [module] would
    # replace the first
    (MINIMAL + "[options]\nbound = 2\n[options]  # the second\nwindow = 0..3\n", [],
     "[options]  # the second"),
    (MINIMAL + "[K]\nkind = canonical\n[K]  # the second\nkind = trivial\n", [],
     "[K]  # the second"),
    (MINIMAL + "[ideal I]  # the second\ngens = x^2\n", [], "[ideal I]  # the second"),
    (MINIMAL + "[ideal  I]  # the second, spaced\ngens = x^2\n", [],
     "[ideal  I]  # the second, spaced"),
    (MINIMAL + "[module M]\ngens = 1\n[module M]  # the second\ngens = x\n", [],
     "[module M]  # the second"),
    (MINIMAL + "[module I]  # named as the ideal\ngens = 1\n", [],
     "[module I]  # named as the ideal"),
    # a negative bound would report "holds" after checking nothing
    (MINIMAL + "[options]\nbound = -3\n", [], "bound = -3"),
    (MINIMAL, ["--bound=-1"], None),
    # an unknown or misspelt key would run as if it were absent
    (MINIMAL + "[options]\nfoo = 3\n", [], "foo = 3"),
    (MINIMAL + "[options]\nbonud = 9\n", [], "bonud = 9"),
    (MINIMAL.replace("vars = x", "vars = x\nweight = 2"), [], "weight = 2"),
    # a key given twice would run at its last value
    (MINIMAL + "[options]\nbound = 2\nbound = 5  # the second\n", [],
     "bound = 5  # the second"),
    # an explicit K names its name line, or the [K] header without one
    (MINIMAL + "[K]\nkind = explicit\nname = M\n", [], "name = M"),
    (MINIMAL + "[K]\nkind = explicit\n", [], "[K]"),
    # an unknown K kind names its kind line
    (MINIMAL + "[K]\nkind = dualizing\n", [], "kind = dualizing"),
    # a module's name where an operation takes an ideal names the op's line
    (MINIMAL.replace("invariants I", "groebner M") + "[module M]\ngens = 1\n", [],
     "groebner M"),
    (MINIMAL.replace("invariants I", "colon M I") + "[module M]\ngens = 1\n", [],
     "colon M I"),
    (MINIMAL + "[ideal J\ngens = x\n", [], "[ideal J"),
    # an ideal or a module needs the ring it lies over
    ("[ideal J]\ngens = x\n" + MINIMAL, [], "[ideal J]"),
    ("[module M]\ngens = 1\n" + MINIMAL, [], "[module M]"),
    ("[options]\nbound = 2\n", [], "[options]"),
    # a module column of the wrong length names its line; an inhomogeneous
    # one, or a defining ideal that is the whole ring, names its section
    (MINIMAL + "[module M]\nambient = 2\ngens = 1\n", [], "gens = 1"),
    (MINIMAL + "[module M]\nambient = 2\ngens = 1, x\n", [], "[module M]"),
    (MINIMAL.replace("vars = x", "vars = x\ndefining = x, x - 1"), [], "[ring]"),
]


def test_bound_zero_is_allowed(tmp_path):
    assert parse_spec(MINIMAL + "[options]\nbound = 0\n").bound == 0
    out = tmp_path / "r.json"
    assert main(["gallery", "univariate-link", "--bound", "0", "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["bound"] == 0


def test_link_reports_the_window_it_was_given():
    spec = parse_spec(MINIMAL.replace("[ops]\ninvariants I", "[ideal c]\ngens = x^3\n\n"
                                      "[options]\nwindow = 0..2\n\n[ops]\nlink I c"))
    report, code = run(spec)
    assert code == 0 and report["window"] == [0, 2]
    hfs = report["results"][0]["data"]["obstruction_hilbert_functions"]
    assert [list(hf) for hf in hfs.values()] == [[0, 1, 2]] * 2


def test_double_link_witness_reads_the_window_it_was_given():
    spec = gallery("mixed-ideal-negative")
    spec.window = (0, 2)
    (entry,) = [e for e in run(spec)[0]["results"] if e["op"] == "double_link"]
    assert entry["data"]["verdict"] == {
        "status": "fails", "witness": "kernel obstruction HF {0: 0, 1: 1, 2: 0}"}


@pytest.mark.parametrize("text, flags, bad_line", MALFORMED)
def test_malformed_values_exit_two(tmp_path, capsys, text, flags, bad_line):
    f = tmp_path / "bad.spec"
    f.write_text(text)
    assert main(["run", str(f), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error")
    if bad_line is not None:
        assert f"line {text.splitlines().index(bad_line) + 1}:" in err


HUGE_PRIME = 1000000000000000000000000000057


@pytest.mark.parametrize("where", ["spec", "--char"])
def test_huge_characteristic_exits_two_at_once(tmp_path, where):
    # the range is tested before the primality, whose trial division of a
    # 31-digit prime would never return; a --char value has no spec line
    f = tmp_path / "huge.spec"
    if where == "spec":
        f.write_text(MINIMAL.replace("p = 101", f"p = {HUGE_PRIME}"))
        flags = []
    else:
        f.write_text(MINIMAL)
        flags = ["--char", str(HUGE_PRIME)]
    src = str(pathlib.Path(liaison.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "liaison.cli", "run", str(f), *flags],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("parse error")
    assert ("line 3:" in proc.stderr) == (where == "spec")


def test_flags_follow_the_subcommand(tmp_path):
    out = tmp_path / "r.json"
    args = ["gallery", "univariate-link", "--char", "7", "--bound", "1"]
    assert main([*args, "--json-out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["ring"].startswith("F_7[") and blob["bound"] == 1
    # placed before the subcommand they are a usage error, not dropped
    for flags in (["--char", "7"], ["--bound", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*flags, "gallery", "univariate-link", "--json-out", str(out)])
        assert exc.value.code == 2


def _misuse_cases():
    from liaison import groebner, ring
    from liaison.modules import free_module, subquotient

    ctx = ring.make_ring(101, ["x", "y"])
    x, y = ring.parse_poly(ctx, "x"), ring.parse_poly(ctx, "y")
    return {
        "engine shifts": lambda: groebner.ModuleGB(ctx, 2, (0,)),
        "untracked certificate": lambda: groebner.ModuleGB(ctx, 1, (0,))
        .reduce_with_certificate(dict(x.terms)),
        "total_length": lambda: free_module(ctx, 1).hilbert().total_length(),
        "express_in_gens": lambda: subquotient(ctx, [(x,)], []).express_in_gens(dict(y.terms)),
        "column length": lambda: subquotient(ctx, [(x, y)], [], (0,), 1),
    }


@pytest.mark.parametrize("case", sorted(_misuse_cases()))
def test_library_misuse_raises_invalid_input(case):
    # InvalidInput is also a ValueError, so older callers still catch it
    with pytest.raises(InvalidInput):
        _misuse_cases()[case]()


def test_value_errors_stay_in_the_spec_parsers():
    """Outside ring.py's polynomial literal and ring parsers, which
    parse_spec turns into exit 2, bad arguments raise InvalidInput."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    allowed = {("ring.py", "parse_poly"), ("ring.py", "make_ring")}
    found = []
    for path in sorted(src.glob("*.py")):
        func = None
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = re.match(r"\s*(?:def|class) (\w+)", line)
            if m:
                func = m.group(1)
            if "raise ValueError" in line and (path.name, func) not in allowed:
                found.append(f"{path.name}:{lineno} in {func}")
    assert found == []


PAPER_FACING_CHECKS = {
    "assert_buchberger", "cohom_dual", "codual_obstructions", "is_generalized_cm",
    "torsionfree_duality_check", "grothendieck_band_check",
}


def test_every_definition_has_a_caller_in_the_package():
    """Every module-level function, class and assigned name, every public
    method and every field of a class's namedtuple base is referenced
    somewhere in the package outside its own definition.  Import lines do
    not count.  Exempt: the ``op_*`` handlers, which ``@_operation``
    registers, the package exports, dunder names, and the paper-facing
    checks that state theorems for the acceptance tests."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    exempt = PAPER_FACING_CHECKS | set(liaison.__all__)
    defs = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((fname, node.name, node))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.extend((fname, name.id, node) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)
                            and not name.id.startswith("__"))
            if isinstance(node, ast.ClassDef):
                defs.extend((fname, f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))
                # a namedtuple base's fields, read anywhere (its own to_json too)
                defs.extend((fname, f"{node.name}.{field}", base) for base in node.bases
                            if isinstance(base, ast.Call)
                            and getattr(base.func, "id", None) == "namedtuple"
                            for field in base.args[1].value.replace(",", " ").split())
    uses = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for fname, name, node in defs:
        short = name.rsplit(".", 1)[-1]
        if short in exempt or short.startswith("op_"):
            continue
        own = set(ast.walk(node))
        if not any(used == short and use not in own for use, used in uses):
            unused.append(f"{fname}: {name}")
    assert unused == []


def test_every_parameter_and_attribute_is_read():
    """Every parameter of a package ``def`` is read in its body, and every
    attribute an ``__init__`` sets on ``self`` is read somewhere in the
    package or the tests (by attribute name, as the definition lint
    matches names)."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    tests = pathlib.Path(__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    test_trees = [ast.parse(path.read_text()) for path in sorted(tests.glob("*.py"))]
    read_attrs = {node.attr for tree in [*trees.values(), *test_trees]
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for fname, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = {node.id for stmt in func.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            if "super" in read:  # a bare super() reads the method's first argument
                read.add(params[0].arg)
            unread.extend(f"{fname}: {func.name}({p.arg})" for p in params
                          if p.arg not in read)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                unread.extend(
                    f"{fname}: {cls.name}.{node.attr}" for node in ast.walk(init)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                    and node.attr not in read_attrs)
    assert unread == []


def test_every_import_is_read_in_its_module():
    """Every name a package module imports is read in that module.  The
    re-exports of ``liaison/__init__.py`` are exempt."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            else:
                continue
            unread.extend(f"{path.name}: {name}" for name in names if name not in read)
    assert unread == []


def test_every_epi_is_built_by_its_certification():
    """``Epi(...)`` is called only in ``linkage._certified_epi``, so every
    Epi the package builds carries what certification checks; and an Epi
    is changed by ``_replace`` only in ``colinkage.colink_operator``, which
    swaps in Hom(K, phi).  A ``_replace`` counts as an Epi's when every
    keyword it passes is a field of Epi."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    fields = set(liaison.linkage.Epi._fields)
    builds, replaces = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee == "Epi":
                    builds.add((path.name, func.name))
                if callee == "_replace" and {kw.arg for kw in node.keywords} <= fields:
                    replaces.add((path.name, func.name))
    assert builds == {("linkage.py", "_certified_epi")}
    assert replaces == {("colinkage.py", "colink_operator")}


def test_no_memo_value_is_discarded():
    """No statement calls ``_memo(...)`` only to store a value for another
    caller: a value is stored by the function that computes it and reads it."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    discarded = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "_memo"):
                discarded.append(f"{path.name}:{node.lineno}")
    assert discarded == []


def _kernel_zero_tests(func):
    """The lines where ``func`` builds ``kernel(...)`` and reads nothing of
    it but ``.is_zero()``: read at once (``kernel(f)[0].is_zero()``), or
    bound by an assignment whose names are read, each only as ``.is_zero``
    (or ``[0].is_zero`` of a bound pair)."""
    parent = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}

    def is_kernel(node):
        return isinstance(node, ast.Call) and "kernel" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    def tests_zero(node):
        up = parent.get(node)
        if isinstance(up, ast.Subscript) and up.value is node:
            up = parent.get(up)
        return isinstance(up, ast.Attribute) and up.attr == "is_zero"

    lines = [node.lineno for node in ast.walk(func) if is_kernel(node) and tests_zero(node)]
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value.value if isinstance(node.value, ast.Subscript) else node.value
        if not is_kernel(value):
            continue
        bound = {name.id for target in node.targets for name in ast.walk(target)
                 if isinstance(name, ast.Name)}
        reads = [use for use in ast.walk(func) if isinstance(use, ast.Name)
                 and isinstance(use.ctx, ast.Load) and use.id in bound]
        if reads and all(tests_zero(use) for use in reads):
            lines.append(node.lineno)
    return lines


def test_no_kernel_is_built_only_to_be_tested_for_zero():
    """Whether a map is injective is ``modules.is_injective``, read from
    Hilbert series: no function builds a kernel module only to ask whether
    it is zero."""
    src = pathlib.Path(liaison.__file__).resolve().parent
    sites = set()
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and _kernel_zero_tests(func):
                sites.add((path.name, func.name))
    assert sites == set()


def test_readme_lists_every_operation():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    paragraph = readme.read_text().split("Operations:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(HANDLERS)


def test_operations_reject_wrong_argument_count():
    assert len(HANDLERS) == 26
    for op, handler in HANDLERS.items():
        params = list(inspect.signature(handler, eval_str=True).parameters.values())
        kinds = ["int" if p.annotation is int else "ideal" if p.annotation is Ideal
                 else "name" for p in params[1:]]
        assert _ARG_KINDS[op] == kinds, op
        arity = len(inspect.signature(handler).parameters) - 1
        for count in (arity - 1, arity + 1):
            if count < 0:
                continue
            line = " ".join([op] + ["I"] * count)
            with pytest.raises(SpecSyntaxError, match=f"expects {arity} arguments"):
                parse_spec(MINIMAL.replace("invariants I", line))


EXPLICIT_MODULE_SPEC = """
[ring]
p = 101
vars = x, y

[module M]
ambient = 1
shifts = 0
gens = 1
rels = x^2; x*y

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

[ops]
invariants M
hilbert M
betti M 3
gk_perfect M
horizontal M
pk_dimension I
local_cohomology M 0
annihilator M
"""


def test_explicit_modules_and_K(tmp_path):
    out = tmp_path / "m.json"
    f = tmp_path / "m.spec"
    f.write_text(EXPLICIT_MODULE_SPEC)
    code = main(["run", str(f), "--json-out", str(out)])
    blob = json.loads(out.read_text())
    results = {e["op"]: e for e in blob["results"]}
    assert results["invariants"]["data"]["pd"] == 2
    assert results["betti"]["data"]["betti_numbers"] == [1, 2, 1]
    assert results["gk_perfect"]["data"]["verdict"]["status"] == "fails"
    assert results["horizontal"]["data"]["is_horizontally_linked"] is False
    assert results["pk_dimension"]["data"]["value"] == 1
    assert results["annihilator"]["data"]["annihilator"] == ["x^2", "x*y"]
    # the mixed ideal fails gk-perfection, so the run exits 1
    assert code == 1


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_infinite_pk_dimension_prints_as_json(tmp_path, capsys):
    # K = R over the (3, 4, 5) semigroup ring: the Bass verdict holds and
    # Hom(R, m) = m has infinite pd, which prints as "infinite", not as the
    # non-JSON token Infinity
    f = tmp_path / "pk.spec"
    f.write_text("""
[ring]
p = 101
vars = x, y, z
weights = 3, 4, 5
defining = y^2 - x*z, z^2 - x^2*y, x^3 - y*z

[K]
kind = trivial

[ideal m]
gens = x, y, z

[ops]
pk_dimension m
""")
    assert main(["run", str(f)]) == 0
    blob = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    data = blob["results"][0]["data"]
    assert data["verdict"]["status"] == "holds" and data["value"] == "infinite"


def test_hilbert_of_exponents_past_the_recursion_limit(tmp_path):
    # S/I for I = (x^1000*y^1000, x^1001, y^1001) has numerator
    # 1 - 2t^1001 - t^2000 + 2t^2001, by inclusion-exclusion over the lcms
    text = """
[ring]
p = 101
vars = x, y

[ideal I]
gens = x^1000*y^1000, x^1001, y^1001

[ops]
hilbert I
"""
    f = tmp_path / "high.spec"
    f.write_text(text)
    out = tmp_path / "high.json"
    assert main(["run", str(f), "--json-out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["ok"] is True
    assert entry["data"]["dim"] == 0 and entry["data"]["degree"] == str(1001**2 - 1)
    M = _as_module(parse_spec(text), "I")
    assert M.hilbert().numerator == {0: 1, 1001: -2, 2000: -1, 2001: 2}


def test_bass_numbers_below_depth(tmp_path):
    text = """
[ring]
p = 101
vars = x, y

[ops]
bass_numbers -1
bass_numbers 0
"""
    f = tmp_path / "bass.spec"
    f.write_text(text)
    out = tmp_path / "bass.json"
    code = main(["run", str(f), "--json-out", str(out)])
    negative, zero = json.loads(out.read_text())["results"]
    assert negative["ok"] is False and "at least 0" in negative["error"]
    # F101[x,y] has depth 2: mu^0 = 0, and the type mu^2 is 1
    assert zero["ok"] is True
    assert zero["data"] == {"bass_numbers": [0], "type": 1}
    assert code == 1


def test_errors_do_not_abort_later_operations(tmp_path):
    template = """
[ring]
p = 101
vars = x

[ideal I]
gens = {}

[ideal c]
gens = {}

[ops]
{}
invariants I
"""
    cases = [
        ("x", "x", "cyclic_link I c", "degenerate"),
        ("x^2", "x", "cyclic_link I c", "c is not contained in I"),
        ("x", "x^2", "schenzel I c 0", "t must be at least 1"),
        ("x", "x^2", "betti I -1", "resolution length must be at least 0"),
        ("x", "x^2", "regular_sequence I -1", "regular sequence length must be at least 0"),
    ]
    for i_gens, c_gens, op, error in cases:
        f = tmp_path / "err.spec"
        f.write_text(template.format(i_gens, c_gens, op))
        out = tmp_path / "err.json"
        code = main(["run", str(f), "--json-out", str(out)])
        blob = json.loads(out.read_text())
        first, second = blob["results"]
        assert first["ok"] is False and error in first["error"]
        assert first["line"] == 13  # the failing operation's line in the spec
        assert second["ok"] is True and second["data"]["dim"] == 0
        assert "line" not in second
        assert code == 1


def test_regular_sequence_of_length_zero_in_the_zero_ideal():
    spec = parse_spec(MINIMAL.replace("[ops]\ninvariants I",
                                      "[ideal Z]\ngens = 0\n\n[ops]\nregular_sequence Z 0"))
    report, code = run(spec)
    assert report["results"][0]["data"] == {"sequence": []}
    assert code == 0


def test_isomorphism_fails_where_it_is_certified(tmp_path):
    # R/I ->> R/I has no kernel: certifying it refuses it, before any link,
    # linkage criterion or colink is computed
    text = """
[ring]
p = 101
vars = x

[ideal I]
gens = x

[ops]
link I I
is_linked I I
colink I I
"""
    f = tmp_path / "iso.spec"
    f.write_text(text)
    out = tmp_path / "iso.json"
    code = main(["run", str(f), "--json-out", str(out)])
    results = json.loads(out.read_text())["results"]
    assert [entry["op"] for entry in results] == ["link", "is_linked", "colink"]
    for entry in results:
        assert entry["ok"] is False, entry["op"]
        assert entry["error"] == "phi is injective; linkage needs a nonzero kernel", entry["op"]
    assert code == 1


def test_inhomogeneous_spec_ideal(tmp_path):
    # a spec ideal is not checked for homogeneity when it is parsed: the
    # Groebner and colon operations take it as it is, and every operation
    # that builds R/I refuses it
    text = """
[ring]
p = 101
vars = x, y, z

[ideal I]
gens = x^2 + y, x*z

[ideal c]
gens = x*z

[ops]
groebner I
colon c I
annihilator I
invariants I
regular_sequence I 1
cyclic_link I c
"""
    f = tmp_path / "inhom.spec"
    f.write_text(text)
    out = tmp_path / "inhom.json"
    code = main(["run", str(f), "--json-out", str(out)])
    results = json.loads(out.read_text())["results"]
    assert results[0]["data"] == {"reduced_gb": ["x^2 + y", "x*z", "y*z"]}
    assert results[1]["data"] == {"colon": ["x*z"]}
    for entry in results[2:]:
        assert entry["ok"] is False, entry["op"]
        assert entry["error"] == "column is not homogeneous", entry["op"]
    assert code == 1


@pytest.mark.parametrize("exc, error", [
    (RuntimeError("boom"), "internal error: RuntimeError: boom"),
    (InternalConsistencyError("boom"), "internal consistency: boom"),
])
def test_unexpected_exception_becomes_exit_three(exc, error, monkeypatch, capsys):
    def broken(spec, name):
        raise exc

    monkeypatch.setitem(HANDLERS, "invariants", broken)
    spec = parse_spec(MINIMAL.replace("invariants I", "invariants I\nhilbert I"))
    report, code = run(spec)
    first, second = report["results"]
    assert first["ok"] is False and first["error"] == error
    assert second["ok"] is True and second["op"] == "hilbert"
    assert code == report["exit_code"] == 3
    # only a bug prints its traceback; a failed internal check is its entry
    assert ("RuntimeError: boom" in capsys.readouterr().err) == isinstance(exc, RuntimeError)


# specs that miss one hypothesis of the paper, with what each error names:
# c does not link I, so a walk's preservation statements and the Schenzel
# biconditional need not hold; and an explicit K that is not semidualizing
# (the zero module, and a module whose homothety is not an isomorphism)
MISSED_HYPOTHESES = [
    ("""
[ring]
p = 101
vars = x, y
[ideal I]
gens = x^2, x*y
[ideal c]
gens = x^2
[ops]
walk I c 2
walk I c 1
schenzel I c 1
""", "does not link"),
    ("""
[ring]
p = 101
vars = x, y, z
weights = 3, 4, 5
defining = y^2 - x*z, z^2 - x^2*y, x^3 - y*z
[ideal I]
gens = x, y
[ideal c]
gens = x
[ops]
walk I c 2
""", "does not link"),
    ("""
[ring]
p = 101
vars = x, y, z
[module Zm]
ambient = 2
gens = 1, 0
rels = 1, 0
[K]
kind = explicit
name = Zm
[ideal I]
gens = x
[ideal c]
gens = x^2
[ops]
semidualizing
link I c
schenzel I c 1
""", "not semidualizing: zero module"),
    ("""
[ring]
p = 101
vars = x, y, z
weights = 3, 4, 5
defining = y^2 - x*z, z^2 - x^2*y, x^3 - y*z
[module A]
ambient = 2
shifts = 0, 1
gens = 1, 0; 0, x
rels = x^2, 0
[K]
kind = explicit
name = A
[ideal I]
gens = x
[ideal c]
gens = x^2
[options]
bound = 2
[ops]
semidualizing
gk_perfect I
double_link I c
""", "not semidualizing: homothety not an isomorphism"),
]


@pytest.mark.parametrize("text, named", MISSED_HYPOTHESES)
def test_a_missed_hypothesis_is_an_error_not_a_bug(text, named, tmp_path, capsys):
    # exit 1, not 3: each entry fails naming the hypothesis, and no
    # internal consistency check trips; semidualizing still reports its
    # verdict on the K that the other operations refuse
    f = tmp_path / "missed.spec"
    f.write_text(text)
    code = main(["run", str(f)])
    out, err = capsys.readouterr()
    results = json.loads(out)["results"]
    assert code == 1
    for entry in results:
        if entry["op"] == "semidualizing":
            assert entry["ok"] and entry["data"]["verdict"]["status"] == "fails"
        else:
            assert not entry["ok"] and named in entry["error"], entry
    assert "Traceback" not in out + err


def test_walk_links_each_epimorphism_once(monkeypatch):
    # every link of the walk runs Ext^n(phi, K) once; building the walk and
    # checking it share the links of its two epimorphisms
    runs = []
    ext_induced = homalg.ext_induced

    def counted(*args, **kwargs):
        runs.append(args)
        return ext_induced(*args, **kwargs)

    monkeypatch.setattr(homalg, "ext_induced", counted)
    text = GALLERIES["even-liaison-ext"].replace("local_cohomology I 1\n", "")
    report, code = run(parse_spec(text))
    assert [r["op"] for r in report["results"]] == ["walk"] and code == 0
    assert len(runs) == 2


def test_import_loads_no_heavy_stdlib_modules():
    # every CLI call is a fresh process, so its imports are paid per verdict
    probe = (
        "import sys; before = set(sys.modules); import liaison.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(pathlib.Path(liaison.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    assert "liaison.cli" in out
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "traceback"}
    assert heavy.isdisjoint(out)


def test_every_gallery_is_pinned():
    assert set(GALLERIES) <= set(PINS)


def test_every_pin_runs_in_tier1_or_ci():
    # CI runs each row tier-1 does not, in its own process
    workflow = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    loop = next(line for line in workflow.read_text().splitlines() if "-m tests.pins" in line)
    assert {name for name, row in PINS.items() if not row.tier1} <= set(re.findall(r"[\w-]+", loop))


# rows whose tests below read more of the run than its pin
READ_FURTHER = ("semigroup-galleries", "type-three-3", "bass-numbers-6")


@pytest.mark.parametrize(
    "name", [name for name, row in PINS.items() if row.tier1 and name not in READ_FURTHER])
def test_run_is_pinned(name):
    check(name)


def test_semigroup_galleries_in_one_process_are_pinned():
    # equal [ring] sections parse to one ring, so the later galleries find
    # the earlier ones' entries (298 engines and 5,999 normal forms when
    # each spec built its own ring)
    specs = [spec for spec, _ in check("semigroup-galleries")]
    assert all(spec.ring is specs[0].ring for spec in specs)
    assert all(spec.resolve_K() is specs[0].resolve_K() for spec in specs)


def _memo_entries(ctx):
    """Every (key, value) in the caches of ctx, of its ambient ring and of
    the quotient rings stored there, and so on."""
    rings, seen = [ctx], set()
    while rings:
        ring = rings.pop()
        if ring in seen:
            continue
        seen.add(ring)
        rings.append(ring.ambient())
        for key, value in ring._cache.items():
            yield key, value
            if isinstance(value, liaison.RingCtx):
                rings.append(value)


def _memo_kinds(ctx):
    """The kind of every memo entry of ctx (see ``_memo_entries``): a ring
    entry's key, or its first element; a module entry's inner key, or its
    first element."""
    kinds = set()
    for key, _ in _memo_entries(ctx):
        if isinstance(key, tuple) and isinstance(key[0], liaison.GradedModule):
            key = key[1]
        kinds.add(key[0] if isinstance(key, tuple) else key)
    return kinds


# memo kinds whose values are never read again or are rebuilt from entries
# the cache holds: a Foxby certificate or verdict, a transported module, the
# ring as a module, a module's full basis and its relation basis (buchberger's
# entries for the same columns, filed under each basis too), whether an Ext
# vanishes, a depth and a grade (ext_hilbert's and the Hilbert entries), the
# residue field (buchberger's entry for its ideal), whether mu or nu is an
# isomorphism (the transforms, kernel and cokernel entries), a module's
# minimal syzygies (its stored engine holds them), R/(x) (the quotient
# entry under its reduced basis), and graded Betti numbers (the resolution
# over the ring they are read over)
WRAPPERS_THAT_STORE_NOTHING = {
    "class_member", "class_verdict", "transport", "ring_module", "full_gb", "rels_gb",
    "ext_vanishes", "depth", "grade", "residue_field", "nu_is_iso", "mu_is_iso",
    "colrels", "quotient_ring", "graded_betti", "ext_route",
}


def _holds_map(key):
    """Whether a memo key holds a ModuleMap, looking inside tuples."""
    return isinstance(key, liaison.ModuleMap) or (
        isinstance(key, tuple) and any(_holds_map(part) for part in key))


def test_wrappers_served_by_inner_entries_store_nothing():
    # and no entry is keyed by a map, which compares by identity: a link
    # is filed under the map's value
    for name in sorted(GALLERIES):
        spec = gallery(name)
        run(spec)
        kinds = _memo_kinds(spec.ring)
        assert "buchberger" in kinds and not kinds & WRAPPERS_THAT_STORE_NOTHING, name
        assert not any(_holds_map(key) for key, _ in _memo_entries(spec.ring)), name


def test_type_three_report_is_pinned(monkeypatch):
    questions = watch_ext_questions(monkeypatch)
    (spec, _), = check("type-three-3")
    # the same run: the 6 Ext questions over the ring into an N other than
    # ω_R all have an N with a regular annihilator x, are into ω/xω and ask
    # for vanishing, so they go over S from M/xM (the Bass numbers, read
    # from ω's Betti numbers, ask none)
    assert routed_ext_questions(spec.ring, questions) == (6, 0, 6)
    assert not _memo_kinds(spec.ring) & WRAPPERS_THAT_STORE_NOTHING
    # every stored tracked engine holds its module's minimal syzygies alone:
    # a selection from them keeps each one
    engines = [(key[0], eng) for key, eng in _memo_entries(spec.ring)
               if isinstance(key, tuple) and key[1:] == ("gens_engine",)]
    for M, eng in engines:
        assert eng.syzygies == M.syzygies()
        assert groebner.minimal_generator_indices(
            eng.syzygies, M.ctx, eng.track, M.gen_degrees(),
            groebner._ring_columns(M.ctx, eng.track)) == list(range(len(eng.syzygies)))
    assert (len(engines), sum(len(eng.syzygies) for _, eng in engines)) == (44, 421)


def test_is_linked_with_canonical_k_asks_r_mod_x_for_the_transpose_alone(monkeypatch):
    # over R/(x) the obstruction Ext^1(Tr, ω_{R/(x)}) goes over S, so R/(x)
    # resolves M/xM to length 1 for its transpose and builds no image
    # engine (moving K to Ext^1(R/(x), ω) instead, it resolved Tr to
    # length 2 and built 2 image engines there)
    text = SEMIGROUP_LINKAGE[: SEMIGROUP_LINKAGE.index("[ops]")] + "[ops]\nis_linked I c\n"
    engines = []
    real = homalg._image_engine
    monkeypatch.setattr(homalg, "_image_engine", lambda functor, k, M, N, res: (
        engines.append(M.ctx) or real(functor, k, M, N, res)))
    spec = parse_spec(text)
    report, code = run(spec)
    assert code == 0 and report["results"][0]["data"] == {"linked": True}
    R = spec.ring
    ctx2 = homalg.quotient_ring(R, ideal(R, [R.var(0)]))
    lengths = {key[1][1] for key in ctx2._cache
               if isinstance(key, tuple) and isinstance(key[0], liaison.GradedModule)
               and key[1][0] == "res"}
    assert lengths == {0, 1}
    assert ctx2 not in engines


def test_bass_numbers_of_the_type_three_ring_are_pinned():
    (_, report), = check("bass-numbers-6")
    assert report["results"][0]["data"] == {
        "bass_numbers": [0, 3, 8, 24, 72, 216, 648], "type": 3}
