"""Outside-in tracing of rncgeom's layers, for the benchmark's traced pass.

``Tracer.install`` wraps each traced function in every ``rncgeom`` module
namespace that holds it (``from .linalg import rank`` binds a separate name
in ``rnc``, ``verify`` ... and each binding is replaced), and wraps the traced
methods on their class.  ``Tracer.uninstall`` puts the original objects back.
Spans (name, start, end, parent, job id) are kept in flat arrays in memory
and written out at the end.  A span's self time is its duration minus the
time its child spans cover, where a child covers its whole wrapper,
including the tracer's own bookkeeping, so that cost lands on no layer.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer -> module -> traced attributes ("Class.method" for methods)
TARGETS = {
    "linalg": ("rncgeom.linalg", (
        "rref", "rank", "nullspace", "intersect", "span_of", "join", "try_direct_sum",
        "direct_sum", "projection_from", "kron", "QMatrix.inverse", "QMatrix.__matmul__",
        "QMatrix.matvec", "QMatrix.rank", "QMatrix.is_invertible",
        "ProjSubspace.contains_vector", "ProjSubspace.contains_subspace",
        "LinearProjection.apply_polys", "LinearProjection.image_of",
    )),
    "poly": ("rncgeom.poly", (
        "poly_gcd_univariate", "poly_divexact_univariate", "curve_normalize",
        "Polynomial.__mul__", "Polynomial.__rmul__", "Polynomial.__pow__",
        "Polynomial.eval", "Polynomial.partial", "Polynomial.compose",
        "Polynomial.scale", "RationalCurve.eval",
    )),
    "rnc": ("rncgeom.rnc", (
        "certify_curve", "curve_contains_point", "rnc_through_points", "fit_rnc_through",
        "fit_scroll_section", "conic_on_quadric", "sample_parameter_points",
    )),
    "osculation": ("rncgeom.osculation", (
        "osculator", "regularity_order", "osculating_projection_map",
        "osculating_projection", "admissibility_check", "contact_locus_dim_monomial",
        "curve_projection_check", "Parametrization.span",
    )),
    "catalog": ("rncgeom.catalog", (
        "make_variety", "build_A", "build_A_cone", "spec_to_json", "spec_from_json",
    )),
    "gstructure": ("rncgeom.gstructure", (
        "construct_structure", "is_type_subspace", "grn_relation",
        "TensorStructure.type_subspace_rows", "TensorStructure.left_type_subspace",
        "TensorStructure.type_subspace",
    )),
    "verify": ("rncgeom.verify", (
        "verify_membership", "verify_veronese_projection", "specialness_witness",
        "inequivalence_invariants",
    )),
}

# the span name of a method alias is that of the method it aliases
ALIASES = {"poly.Polynomial.__rmul__": "poly.Polynomial.__mul__"}

MARK = "__perfbench_span__"


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_bits(rows) -> int:
    return max((_bits(x) for row in rows for x in row), default=0)


class Tracer:
    """Spans of one traced pass; ``job`` is the id the runner sets per job."""

    def __init__(self):
        self.names = []  # span name per id
        self.ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.job_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")
        self.error = array("b")
        self.stack = [-1]
        self.job = -1
        self.stats = {}  # counters the probes fill
        self._installed = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        probes = {
            "linalg.rref": self._probe_rref,
            "poly.poly_gcd_univariate": self._probe_gcd,
            "verify.verify_membership": self._probe_membership,
            "verify.verify_veronese_projection": self._probe_projection,
        }
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "rncgeom" or k.startswith("rncgeom.")]
        for layer, (modname, attrs) in TARGETS.items():
            home = sys.modules[modname]
            for attr in attrs:
                span = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._installed.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, span, probes.get(span)))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(original, span, probes.get(span))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, span, probe):
        if span not in self.ids:
            self.ids[span] = len(self.names)
            self.names.append(span)
        nid = self.ids[span]
        perf = time.perf_counter
        stack = self.stack
        name, parent, job_of = self.name, self.parent, self.job_of
        start, end, outer, error = self.start, self.end, self.outer, self.error
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf()
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            job_of.append(tracer.job)
            error.append(0)
            start.append(0.0)
            end.append(0.0)
            outer.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                error[i] = 1
                start[i], end[i] = t0, t1
                outer[i] = perf() - t_in
                raise
            t1 = perf()
            stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            start[i], end[i] = t0, t1
            outer[i] = perf() - t_in
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        setattr(wrapper, MARK, span)
        return wrapper

    # -- probes -----------------------------------------------------------

    def _max(self, key, value):
        if value > self.stats.get(key, 0):
            self.stats[key] = value

    def _add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value

    def _probe_rref(self, args, kwargs, result):
        rows = args[0]
        ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self._max("rref.max_cols", ncols)
        self._max("rref.max_bits", max(_max_bits(rows), _max_bits(result[0])))

    def _probe_gcd(self, args, kwargs, result):
        polys = (args[0], args[1], result)
        self._max("gcd.max_degree", max(p.total_degree() for p in polys[:2]))
        self._max("gcd.max_bits", _max_bits([c for _, c in p.items()] for p in polys))

    def _probe_membership(self, args, kwargs, report):
        self._add("verify.trials", len(report.trials))
        self._add("verify.useful", sum(t["fit"] == "ok" for t in report.trials))

    def _probe_projection(self, args, kwargs, report):
        self._add("verify.trials", len(report.trials))
        self._add("verify.useful", sum("fit" not in t for t in report.trials))

    # -- analysis ---------------------------------------------------------

    def spans(self):
        """Yield ``(name, start, end, parent, job, self_s, error)`` per span."""
        self_s = self.self_times()
        for i in range(len(self.name)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.job_of[i], self_s[i], self.error[i])

    def self_times(self) -> list:
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.outer[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, covered)]

    def tsv(self) -> str:
        lines = ["name\tstart\tend\tparent\tjob\tself_s\terror"]
        lines.extend("\t".join(map(str, span)) for span in self.spans())
        return "\n".join(lines) + "\n"


def installed_wrappers() -> list:
    """Names of tracer wrappers present in any rncgeom namespace or class."""
    found = []
    for key, module in list(sys.modules.items()):
        if key != "rncgeom" and not key.startswith("rncgeom."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for meth, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{key}.{attr}.{meth}")
    return found
