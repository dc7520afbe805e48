"""Per-layer metrics from the tracer's summary of one traced pass.

Counts are calls of the named public functions (or counters read from the
engine's state); ``*_s`` are seconds of inclusive time over outermost calls,
and ``*.self_s`` a layer's span time minus its child spans.  A ``*_share``
is such a time divided by the traced pass's wall time: it is used for the
layers that cli-small never enters, where a time would read 0 s on every
run.  A call is distinct by the fingerprint of its arguments (``to_json()``
and ring repr of modules, the scalars as given).
"""

from collections import Counter, defaultdict

POLY_OPS = ("ring.Poly.__add__", "ring.Poly.__sub__", "ring.Poly.__mul__",
            "ring.Poly.scale")
NORMAL_FORMS = ("groebner.ModuleGB.normal_form",
                "groebner.ModuleGB.reduce_with_certificate")
DERIVED = ("homalg.free_resolution", "homalg.ext", "homalg.tor")
CERTS = ("linkage.is_semidualizing", "linkage.is_perfect", "linkage.is_gk_perfect",
         "linkage.category_member")


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(s, traced_wall, untraced_wall):
    """{name: (value, unit)} for every per-layer metric of a traced pass."""
    calls, extra = Counter(s["calls"]), Counter(s["extra"])
    group, self_s, extra_s = (defaultdict(float, s[k]) for k in
                              ("group_s", "self_s", "extra_s"))
    distinct = {k: len(v) for k, v in s["distinct"].items()}
    derived_calls = sum(calls[n] for n in DERIVED)
    derived_distinct = sum(distinct.get(n, 0) for n in DERIVED)
    cohomology_calls = sum(v for k, v in calls.items() if k.startswith("cohomology."))
    return {
        "ring.parse_s": (group["ring.parse"], "s"),
        "ring.poly_ops": (sum(calls[n] for n in POLY_OPS), "count"),
        "ring.poly_s": (group["ring.poly"], "s"),
        "groebner.engines": (extra["groebner.engines"], "count"),
        "groebner.engines_tracked": (extra["groebner.engines_tracked"], "count"),
        "groebner.tracked_s": (extra_s["groebner.tracked_s"], "s"),
        "groebner.untracked_s": (extra_s["groebner.untracked_s"], "s"),
        "groebner.mingen_calls": (calls["groebner.minimal_generator_indices"], "count"),
        "groebner.mingen_s": (group["groebner.mingen"], "s"),
        "groebner.basis_elems": (extra["groebner.basis_elems"], "count"),
        "groebner.syz_raw": (extra["groebner.syz_raw"], "count"),
        "groebner.syz_kept": (extra["groebner.syz_kept"], "count"),
        "groebner.syz_useful_ratio": (
            _ratio(extra["groebner.syz_kept"], extra["groebner.syz_raw"]), "ratio"),
        "groebner.normal_form_calls": (sum(calls[n] for n in NORMAL_FORMS), "count"),
        "groebner.normal_form_s": (group["groebner.normal_form"], "s"),
        "groebner.self_s": (self_s["groebner"], "s"),
        "modules.hom_calls": (calls["modules.hom_module"], "count"),
        "modules.tensor_calls": (calls["modules.tensor"], "count"),
        "modules.kernel_calls": (calls["modules.kernel"], "count"),
        "modules.minimize_calls": (calls["modules.minimize"], "count"),
        "modules.vec_combine_s": (group["modules.vec_combine"], "s"),
        "modules.self_s": (self_s["modules"], "s"),
        "homalg.resolution_calls": (calls["homalg.free_resolution"], "count"),
        "homalg.resolution_distinct": (distinct.get("homalg.free_resolution", 0), "count"),
        "homalg.ext_calls": (calls["homalg.ext"], "count"),
        "homalg.ext_distinct": (distinct.get("homalg.ext", 0), "count"),
        "homalg.tor_calls": (calls["homalg.tor"], "count"),
        "homalg.tor_distinct": (distinct.get("homalg.tor", 0), "count"),
        "homalg.repeat_ratio": (
            _ratio(derived_calls - derived_distinct, derived_calls), "ratio"),
        "homalg.resolution_s": (group["homalg.resolution"], "s"),
        "homalg.ext_s": (group["homalg.ext"], "s"),
        "homalg.tor_share": (_ratio(group["homalg.tor"], traced_wall), "ratio"),
        "homalg.self_s": (self_s["homalg"], "s"),
        "linkage.cert_calls": (sum(calls[n] for n in CERTS), "count"),
        "linkage.cert_distinct": (sum(distinct.get(n, 0) for n in CERTS), "count"),
        "linkage.link_s": (group["linkage.link"], "s"),
        "linkage.self_s": (self_s["linkage"], "s"),
        "colinkage.class_member_calls": (calls["colinkage.class_member"], "count"),
        "colinkage.class_member_distinct": (
            distinct.get("colinkage.class_member", 0), "count"),
        "colinkage.class_member_share": (
            _ratio(group["colinkage.class_member"], traced_wall), "ratio"),
        "colinkage.self_share": (_ratio(self_s["colinkage"], traced_wall), "ratio"),
        "cohomology.calls": (cohomology_calls, "count"),
        "cohomology.s": (group["cohomology"], "s"),
        "cohomology.self_s": (self_s["cohomology"], "s"),
        "cli.parse_s": (group["cli.parse"], "s"),
        "cli.report_s": (group["cli.report"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall), "ratio"),
    }


def merge(summaries):
    """One summary for several traced interpreters (the cli-small calls)."""
    total = {"calls": Counter(), "self_s": Counter(), "group_s": Counter(),
             "extra": Counter(), "extra_s": Counter(), "distinct": defaultdict(set),
             "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "group_s", "extra", "extra_s"):
            total[key].update(s[key])
        for name, fps in s["distinct"].items():
            total["distinct"][name].update(fps)
        total["spans"] += s["spans"]
    total["distinct"] = {k: sorted(v) for k, v in total["distinct"].items()}
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in total.items()}
