"""Per-layer spans recorded from outside the package.

``instrument(tracer)`` replaces public functions and methods of the
skeinquant modules with timing wrappers, and rebinds every name that
another module imported with ``from .x import y`` so those callers are
timed too.  Spans nest: a layer's self time is its span's duration minus
the time covered by the spans it called.  Counting-only wrappers (no
span) add their counts and leave the time with the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> [module, [public function or "Class.method", ...]]
SPANS = {
    "cli": ("cli", ["main"]),
    "jones.catalog": ("jones", ["catalog_jones_values"]),
    "jones.rmatrix": ("jones", ["colored_jones_rmatrix"]),
    "jones.exact": ("jones", ["colored_jones_exact"]),
    "knotstate.norm": ("knotstate", ["l2_norm_formula"]),
    "knotstate.state": ("knotstate", ["knot_state"]),
    "knotstate.volume": ("knotstate", ["volume_sequence", "reference_volume"]),
    "bracket.transfer": ("bracket", ["braid_closure_bracket"]),
    "bracket.state_sum": ("bracket", ["kauffman_bracket"]),
    "geom.gram": ("geom", ["gram_matrix", "inner_product"]),
    "geom.modular": ("geom", ["modular_phase_check"]),
    "geom.eval_grid": ("geom", ["eval_grid"]),
    "geom.curve_op": ("geom", ["curve_operator_geom", "intertwining_deviation"]),
    "geom.other": ("geom", ["basis_psi", "basis_phi", "translate", "translate_ints",
                            "section_eval", "holomorphic_part", "parity_reflect",
                            "psi_coefficients", "phi_coefficients", "iso_from_skein",
                            "iso_to_skein"]),
    "verify.report": ("verify", ["verification_report"]),
    "tqft": ("tqft", ["rep_T", "rep_S", "sl2z_rep", "curve_operator_skein",
                      "kirby_constants", "rt_invariant", "word_from_matrix",
                      "MappingClassWord.from_text"]),
    "laurent": ("laurent", ["LaurentPoly.__add__", "LaurentPoly.__radd__",
                            "LaurentPoly.__sub__", "LaurentPoly.__rsub__",
                            "LaurentPoly.__neg__", "LaurentPoly.__mul__",
                            "LaurentPoly.__rmul__", "LaurentPoly.__pow__",
                            "LaurentPoly.divexact", "LaurentPoly.in_variable_power",
                            "LaurentPoly.eval_at", "LaurentPoly.format",
                            "quantum_integer_poly", "loop_value", "signed_color_norm"]),
    "diagrams": ("diagrams", ["braid_to_diagram", "BraidWord.from_text",
                              "BraidWord.permutation", "BraidWord.closure_components",
                              "LinkDiagram.from_pd_text", "LinkDiagram.arcs",
                              "LinkDiagram.arc_components", "LinkDiagram.validate"]),
    "roots": ("roots", ["quantum_integer", "eval_at_root", "RootContext.A_value",
                        "RootContext.t_value"]),
}


class Tracer:
    """Span stack plus per-layer call counts, self times and counters."""

    def __init__(self):
        self.stack = []                 # child time accumulated per open span
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counts: dict = {}

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def span(self, name: str, fn, counter=None):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper


# -- counters evaluated from each call's arguments and results ------------

def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _catalog_terms(tr, args, kwargs):
    n_max = _arg(args, kwargs, 2, "n_max")
    tr.count("jones.catalog.terms", n_max * (n_max - 1) // 2)


def _rmatrix_dim(tr, args, kwargs):
    K, n = _arg(args, kwargs, 0, "K"), _arg(args, kwargs, 1, "n")
    tr.count("jones.rmatrix.state_dim", n ** K.braid.strands)


def _state_sum_states(tr, args, kwargs):
    tr.count("bracket.state_sum.states", 2 ** _arg(args, kwargs, 0, "diagram").num_crossings)


def _counted_dispatch(tr, fn):
    """colored_jones: count which backend 'auto' picked, from the returned value."""
    @functools.wraps(fn)
    def wrapper(K, n, ctx, backend="auto"):
        val = fn(K, n, ctx, backend=backend)
        if backend == "auto":
            tr.count(f"jones.auto.{val.backend}")
        return val
    return wrapper


def _counted_report(tr, fn):
    """verification_report: count reports that raised or did not pass."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ok = False
        try:
            report = fn(*args, **kwargs)
            ok = bool(report.get("pass"))
            return report
        finally:
            if not ok:
                tr.count("verify.report.failed")
    return wrapper


def _counted_main(tr, fn):
    """cli.main: count nonzero exits and exceptions escaping main()."""
    @functools.wraps(fn)
    def wrapper(argv=None):
        try:
            rc = fn(argv)
        except SystemExit as exc:
            if exc.code not in (0, None):
                tr.count("cli.exit_nonzero")
            raise
        except Exception:
            tr.count("cli.uncaught")
            raise
        if rc:
            tr.count("cli.exit_nonzero")
        return rc
    return wrapper


_COUNTERS = {
    "jones.catalog_jones_values": _catalog_terms,
    "jones.colored_jones_rmatrix": _rmatrix_dim,
    "bracket.kauffman_bracket": _state_sum_states,
}

_OUTER = {
    "jones.colored_jones": _counted_dispatch,
    "verify.verification_report": _counted_report,
    "cli.main": _counted_main,
}


def instrument(tracer: Tracer) -> None:
    """Wrap every listed function and rebind it wherever it was imported."""
    import skeinquant  # noqa: F401  (loads every module)

    modules = {name[len("skeinquant."):]: mod for name, mod in sys.modules.items()
               if name.startswith("skeinquant.")}
    replaced = {}   # id(original) -> wrapper
    for layer, (modname, names) in SPANS.items():
        mod = modules[modname]
        for name in names:
            key = f"{modname}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    setattr(cls, attr, property(tracer.span(layer, orig.fget)))
                elif isinstance(orig, classmethod):
                    setattr(cls, attr, classmethod(tracer.span(layer, orig.__func__)))
                else:
                    setattr(cls, attr, tracer.span(layer, orig))
                continue
            orig = getattr(mod, name)
            wrapper = tracer.span(layer, orig, _COUNTERS.get(key))
            if key in _OUTER:
                wrapper = _OUTER[key](tracer, wrapper)
            replaced[id(orig)] = wrapper
    for key, outer in _OUTER.items():
        modname, name = key.split(".")
        orig = getattr(modules[modname], name)
        if id(orig) not in replaced:
            replaced[id(orig)] = outer(tracer, orig)
    for mod in list(modules.values()) + [sys.modules["skeinquant"]]:
        for attr, value in list(vars(mod).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def layer_metrics(tracer: Tracer, exact_cache_before, exact_cache_after) -> dict:
    """The per-layer metric values of one traced pass."""
    c, s = tracer.calls, tracer.self_s
    lookups = (exact_cache_after.hits + exact_cache_after.misses
               - exact_cache_before.hits - exact_cache_before.misses)
    hits = exact_cache_after.hits - exact_cache_before.hits
    out = {
        "jones.catalog.calls": c["jones.catalog"],
        "jones.catalog.terms": tracer.counts.get("jones.catalog.terms", 0),
        "jones.catalog.self_s": s["jones.catalog"],
        "jones.rmatrix.calls": c["jones.rmatrix"],
        "jones.rmatrix.state_dim": tracer.counts.get("jones.rmatrix.state_dim", 0),
        "jones.rmatrix.self_s": s["jones.rmatrix"],
        "jones.exact.calls": c["jones.exact"],
        "jones.exact.self_s": s["jones.exact"],
        "jones.exact.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "jones.auto.catalog": tracer.counts.get("jones.auto.catalog", 0),
        "jones.auto.rmatrix": tracer.counts.get("jones.auto.rmatrix", 0),
        "jones.auto.exact": tracer.counts.get("jones.auto.exact", 0),
        "laurent.ops": c["laurent"],
        "laurent.self_s": s["laurent"],
        "bracket.transfer.calls": c["bracket.transfer"],
        "bracket.transfer.self_s": s["bracket.transfer"],
        "bracket.state_sum.calls": c["bracket.state_sum"],
        "bracket.state_sum.states": tracer.counts.get("bracket.state_sum.states", 0),
        "bracket.state_sum.self_s": s["bracket.state_sum"],
        "knotstate.norm.calls": c["knotstate.norm"],
        "knotstate.norm.self_s": s["knotstate.norm"],
        "knotstate.state.self_s": s["knotstate.state"],
        "knotstate.volume.self_s": s["knotstate.volume"],
        "geom.gram.calls": c["geom.gram"],
        "geom.gram.self_s": s["geom.gram"],
        "geom.modular.calls": c["geom.modular"],
        "geom.modular.self_s": s["geom.modular"],
        "geom.eval_grid.self_s": s["geom.eval_grid"],
        "geom.curve_op.self_s": s["geom.curve_op"],
        "geom.other.self_s": s["geom.other"],
        "verify.report.calls": c["verify.report"],
        "verify.report.self_s": s["verify.report"],
        "verify.report.failed": tracer.counts.get("verify.report.failed", 0),
        "tqft.calls": c["tqft"],
        "tqft.self_s": s["tqft"],
        "cli.calls": c["cli"],
        "cli.self_s": s["cli"],
        "cli.exit_nonzero": tracer.counts.get("cli.exit_nonzero", 0),
        "cli.uncaught": tracer.counts.get("cli.uncaught", 0),
        "diagrams.self_s": s["diagrams"],
        "roots.self_s": s["roots"],
    }
    return out
