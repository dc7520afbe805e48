"""Layer tracer installed from outside the program.

The tracer wraps the public functions of the eight liaison modules (and a
few methods of ``Poly``, ``ModuleGB`` and ``GradedModule``) in every
``liaison.*`` namespace that binds the same object, because modules import
each other's functions by name.  Each wrapped call opens a frame on a
stack; on exit its duration is charged to its parent's child time, so a
layer's self time is its spans' durations minus their children's.

Calls of cold functions are kept in memory as spans ``(id, parent, name,
start, end)`` and written out at the end.  Hot leaves (polynomial
arithmetic, ``vec_combine``, public normal forms, ``render_poly``) update
counters and self time only; recording millions of spans would cost more
than the work they describe.

Nothing here runs at import time; ``install()`` patches a freshly imported
interpreter and returns the tracer.
"""

import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ring", "groebner", "modules", "homalg", "linkage", "colinkage",
          "cohomology", "cli")

# Public helpers too small and too hot to wrap: the groebner inner loops
# call them per term, so a wrapper would dominate what it measures.  Their
# time is charged to the calling layer.
UNWRAPPED = {
    "ring": {"mono_one", "mono_mul", "mono_divides", "mono_div", "mono_lcm",
             "mono_exponents", "mono_from_exponents", "compare_monomials"},
    "groebner": {"vec_is_zero", "vec_degree"},
    "modules": {"zero_vec", "vec_add"},
}

# Wrapped, counted and timed, but never recorded as spans.
HOT = {"ring.render_poly", "modules.vec_combine", "groebner.ModuleGB.normal_form",
       "groebner.ModuleGB.reduce_with_certificate", "ring.Poly.__add__",
       "ring.Poly.__sub__", "ring.Poly.__mul__", "ring.Poly.scale"}

# Calls whose distinct inputs are counted by fingerprint.
FINGERPRINTED = {
    "homalg.free_resolution", "homalg.ext", "homalg.tor",
    "linkage.is_semidualizing", "linkage.is_perfect", "linkage.is_gk_perfect",
    "linkage.category_member", "colinkage.class_member",
}

METHODS = {
    "ring": ("Poly", ("__add__", "__sub__", "__mul__", "scale")),
    "groebner": ("ModuleGB", ("__init__", "add_generators", "interreduce",
                              "normal_form", "reduce_with_certificate")),
    "modules": ("GradedModule", ("hilbert", "rels_gb", "full_gb")),
}

# Groups whose inclusive time is summed over outermost calls only; every
# cohomology function also belongs to the group "cohomology".
GROUPS = {
    "ring.make_ring": "ring.parse", "ring.parse_poly": "ring.parse",
    "ring.Poly.__add__": "ring.poly", "ring.Poly.__sub__": "ring.poly",
    "ring.Poly.__mul__": "ring.poly", "ring.Poly.scale": "ring.poly",
    "groebner.ModuleGB.normal_form": "groebner.normal_form",
    "groebner.ModuleGB.reduce_with_certificate": "groebner.normal_form",
    "groebner.minimal_generator_indices": "groebner.mingen",
    "modules.vec_combine": "modules.vec_combine",
    "homalg.free_resolution": "homalg.resolution",
    "homalg.ext": "homalg.ext", "homalg.tor": "homalg.tor",
    "linkage.link_operator": "linkage.link", "linkage.cyclic_link": "linkage.link",
    "colinkage.class_member": "colinkage.class_member",
    "cli.parse_spec": "cli.parse", "cli.report": "cli.report",
}


def _fingerprint_part(x):
    to_json = getattr(x, "to_json", None)
    if callable(to_json) and hasattr(x, "ctx"):
        return ["module", repr(x.ctx), to_json()]
    if isinstance(x, (int, str, bool, float)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_fingerprint_part(y) for y in x]
    if type(x).__name__ == "RingCtx":
        return ["ring", repr(x)]
    return ["opaque", type(x).__name__]


def fingerprint(args, kwargs):
    blob = json.dumps([_fingerprint_part(a) for a in args]
                      + sorted((k, _fingerprint_part(v)) for k, v in kwargs.items()),
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class Tracer:
    def __init__(self):
        self.next_id = 1
        self.stack = [[0.0, 0.0, 0]]  # frames: [start, child seconds, span id]
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.group_depth = Counter()
        self.distinct = defaultdict(set)
        self.extra = Counter()  # engine counters read from ModuleGB state
        self.extra_s = defaultdict(float)
        self.paused = 0

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, layer, fn, pre=None, post=None):
        """Traced stand-in for fn.  pre(args) runs before the call and its
        value reaches post(args, state, seconds, result) after it."""
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        hot = name in HOT
        group = GROUPS.get(name, "cohomology" if layer == "cohomology" else None)
        fingerprinted = name in FINGERPRINTED

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if fingerprinted:
                tracer.note_distinct(name, args, kwargs)
            state = pre(args) if pre is not None else None
            parent = stack[-1]
            if hot:
                sid = parent[2]
            else:
                sid = tracer.next_id
                tracer.next_id += 1
            if group is not None:
                tracer.group_depth[group] += 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                parent[1] += dur
                tracer.self_s[layer] += dur - frame[1]
                if group is not None:
                    tracer.group_depth[group] -= 1
                    if not tracer.group_depth[group]:
                        tracer.group_s[group] += dur
                if not hot:
                    tracer.spans.append((sid, parent[2], name, frame[0], end))
                if post is not None:
                    post(args, state, dur, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def note_distinct(self, name, args, kwargs):
        """Fingerprint outside the timed spans: the time is charged to the
        tracer, not to a layer, and calls made meanwhile are not counted."""
        start = time.perf_counter()
        self.paused += 1
        try:
            self.distinct[name].add(fingerprint(args, kwargs))
        finally:
            self.paused -= 1
            spent = time.perf_counter() - start
            self.stack[-1][1] += spent
            self.self_s["trace"] += spent

    def timed(self, name, layer, thunk):
        """Run thunk() as one span of the given layer (used for the report)."""
        return self.wrap(name, layer, thunk)()

    # -- results ------------------------------------------------------------

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            "extra": dict(self.extra),
            "extra_s": dict(self.extra_s),
            "spans": len(self.spans),
        }

    def dump_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


def _hooks(tracer):
    """(pre, post) pairs reading counters from the engine's own state."""
    extra, extra_s = tracer.extra, tracer.extra_s

    def engine_seconds(eng):
        return "groebner.tracked_s" if eng.track else "groebner.untracked_s"

    def init_post(args, state, dur, result):
        extra["groebner.engines"] += 1
        if args[0].track:
            extra["groebner.engines_tracked"] += 1

    def add_pre(args):
        return len(args[0].basis), len(args[0].syzygies)

    def add_post(args, state, dur, result):
        eng = args[0]
        extra["groebner.basis_elems"] += max(0, len(eng.basis) - state[0])
        extra["groebner.syz_raw"] += max(0, len(eng.syzygies) - state[1])
        extra_s[engine_seconds(eng)] += dur

    def interreduce_post(args, state, dur, result):
        extra_s[engine_seconds(args[0])] += dur

    def syzygies_post(args, state, dur, result):
        extra["groebner.syz_kept"] += len(result or ())

    return {
        "groebner.ModuleGB.__init__": (None, init_post),
        "groebner.ModuleGB.add_generators": (add_pre, add_post),
        "groebner.ModuleGB.interreduce": (None, interreduce_post),
        "groebner.syzygies": (None, syzygies_post),
    }


def install():
    """Wrap the liaison modules of this interpreter; returns the tracer."""
    import liaison.cli  # noqa: F401  (loads all eight modules)

    tracer = Tracer()
    mods = {layer: sys.modules[f"liaison.{layer}"] for layer in LAYERS}
    hooks = _hooks(tracer)
    # id -> stand-in; the originals stay referenced by their modules' stand-ins
    replaced = {}
    for layer, mod in mods.items():
        skip = UNWRAPPED.get(layer, set())
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or attr in skip or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, layer, obj, *hooks.get(name, (None, None)))

    namespaces = [vars(m) for n, m in sys.modules.items()
                  if n == "liaison" or n.startswith("liaison.")]
    for table in namespaces + [mods["cli"].HANDLERS]:
        for key, obj in list(table.items()):
            if id(obj) in replaced:
                table[key] = replaced[id(obj)]

    for layer, (cls_name, methods) in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for meth in methods:
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, tracer.wrap(name, layer, cls.__dict__[meth],
                                           *hooks.get(name, (None, None))))
    return tracer
