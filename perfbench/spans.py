"""Timing wrappers on the public functions and methods of monocat.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of their public classes (plus ``__init__`` and the
arithmetic operators), with a wrapper that counts calls and accumulates self
time: a span's duration minus the time of the spans it encloses.  Names that
other modules imported (``monocat.category.snf`` is ``monocat.linalg.snf``)
are rebound too.  ``Tracer.uninstall`` puts every original back; nothing in
the library changes while no tracer is installed.

Time spent in unwrapped code -- private helpers, ``Fraction`` arithmetic --
lands in the self time of the innermost enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = ("rings", "linalg", "category", "homotopy", "stable",
           "almost_split", "sampling", "cli")

_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
            "__truediv__", "__matmul__")

# reported layer metric -> the spans it sums
REPORTED = {
    "rings.PolyFrac.make": ("rings.PolyFrac.make",),
    "rings.Poly.gcd": ("rings.Poly.gcd",),
    "rings.RingCtx.valuation": ("rings.RingCtx.valuation",),
    "rings.RingCtx.div_exact": ("rings.RingCtx.div_exact",),
    "rings.RingCtx.residue_ops": ("rings.RingCtx.residue_add",
                                  "rings.RingCtx.residue_mul",
                                  "rings.RingCtx.residue_truncate",
                                  "rings.RingCtx.reduce_mod_omega"),
    "rings.RingCtx.parse_scalar": ("rings.RingCtx.parse_scalar",),
    "rings.RingCtx.format_scalar": ("rings.RingCtx.format_scalar",),
    "linalg.snf": ("linalg.snf",),
    "linalg.inverse_frac": ("linalg.inverse_frac",),
    "linalg.MatS.matmul": ("linalg.MatS.matmul",),
    "linalg.solve_sandwich_congruence": ("linalg.solve_sandwich_congruence",),
    "linalg.solve_linear": ("linalg.solve_linear",),
    "linalg.MatR.apply": ("linalg.MatR.apply",),
    "category.MonObject.init": ("category.MonObject.init",),
    "category.compose": ("category.compose",),
    "homotopy.null_homotopy": ("homotopy.null_homotopy",),
    "homotopy.witness_holds": ("homotopy.witness_holds",),
    "homotopy.cone": ("homotopy.cone",),
    "homotopy.standard_triangle": ("homotopy.standard_triangle",),
    "homotopy.complete_square": ("homotopy.complete_square",),
    "homotopy.octahedron": ("homotopy.octahedron",),
    "homotopy.is_iso_in_homotopy": ("homotopy.is_iso_in_homotopy",),
    "stable.resolution_is_exact": ("stable.resolution_is_exact",),
    "stable.stable_hom_R_bruteforce": ("stable.stable_hom_R_bruteforce",),
    "stable.check_fully_faithful": ("stable.check_fully_faithful",),
    "almost_split.verify_right_almost_split":
        ("almost_split.verify_right_almost_split",),
    "almost_split.factor_strictly": ("almost_split.factor_strictly",),
    "almost_split.end_ring_is_local": ("almost_split.end_ring_is_local",),
    "sampling.morphism_from_params": ("sampling.morphism_from_params",),
    "cli.load": ("cli.load_object_file", "cli.load_morphism_file"),
    "cli.dumps": ("cli.dumps_object", "cli.dumps_morphism",
                  "cli.dumps_triangle"),
}


def _classes_tested(lines) -> int:
    return sum(int(ln.split("classes=")[1].split()[0])
               for ln in lines if ln.startswith("TEST "))


# span -> (counter, increment computed from the arguments and the result);
# a counter is bumped only when the call returns
COUNTERS = {
    "linalg.snf": ("cells", lambda a, r: a[0].rows * a[0].cols),
    "linalg.MatS.matmul": ("mults", lambda a, r: a[0].rows * a[0].cols * a[1].cols),
    "homotopy.null_homotopy": ("hits", lambda a, r: r is not None),
    "stable.resolution_is_exact":
        ("vectors", lambda a, r: a[1].residue_modulus ** a[0].f_bar.rows),
    "almost_split.verify_right_almost_split":
        ("classes", lambda a, r: _classes_tested(r[0])),
    "almost_split.factor_strictly": ("hits", lambda a, r: r is not None),
}


def _span_name(module_short: str, owner: str | None, name: str) -> str:
    short = name.strip("_") if name in _DUNDERS else name
    return ".".join(p for p in (module_short, owner, short) if p)


class Tracer:
    """Per-span call counts, self times and counters for one traced run."""

    def __init__(self, modules):
        """``modules`` maps each short name of MODULES to its module."""
        self.modules = modules
        self.stats: dict[str, list] = {}       # span -> [calls, self_s]
        self.counts: dict[str, int] = {}       # "span.counter" -> total
        self._stack: list[float] = []          # child time of open spans
        self._patches: list[tuple] = []        # (owner, attr, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span: str):
        stat = self.stats.setdefault(span, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(span)
        counts = self.counts
        key = f"{span}.{counter[0]}" if counter else None
        if key:
            counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if key:
                counts[key] += counter[1](args, result)
            return result

        wrapper.__perfbench_span__ = span
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_original = {}
        for short in MODULES:
            mod = self.modules[short]
            for name, value in list(vars(mod).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap(value, _span_name(short, None, name))
                    by_original[id(value)] = (value, wrapper)
                    self._patch(mod, name, wrapper)
                elif inspect.isclass(value):
                    self._install_class(short, value)
        # rebind names other modules imported from the defining module
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                hit = by_original.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])

    def _install_class(self, short, cls):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            span = _span_name(short, cls.__name__, name)
            if isinstance(value, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(value.__func__, span)))
            elif inspect.isfunction(value):
                self._patch(cls, name, self._wrap(value, span))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Layer metrics (name -> (value, unit)) for a traced wall time."""
        out = {}
        for metric, spans in REPORTED.items():
            calls = sum(self.stats.get(s, (0, 0.0))[0] for s in spans)
            self_s = sum(self.stats.get(s, (0, 0.0))[1] for s in spans)
            out[f"{metric}.calls"] = (calls, "count")
            out[f"{metric}.self_s"] = (self_s, "s")
        # every counter is reported, at 0 when its span no longer exists
        for span, (counter, _) in COUNTERS.items():
            total = self.counts.get(f"{span}.{counter}", 0)
            if counter == "hits":
                calls = self.stats.get(span, (0, 0.0))[0]
                out[f"{span}.hit_ratio"] = (total / calls if calls else 0.0, "ratio")
            else:
                out[f"{span}.{counter}"] = (total, "count")
        for short in MODULES:
            self_s = sum(v[1] for k, v in self.stats.items()
                         if k.split(".", 1)[0] == short)
            out[f"{short}.self_s"] = (self_s, "s")
            out[f"{short}.self_share"] = (self_s / wall_s if wall_s else 0.0, "ratio")
        return out


def installed_spans(modules) -> list:
    """Names of wrappers still reachable from the given modules; empty once
    every tracer has been uninstalled."""
    found = []
    for mod in modules.values():
        for value in vars(mod).values():
            members = vars(value).values() if inspect.isclass(value) else (value,)
            for m in members:
                m = m.__func__ if isinstance(m, staticmethod) else m
                span = getattr(m, "__perfbench_span__", None)
                if span is not None:
                    found.append(span)
    return found
