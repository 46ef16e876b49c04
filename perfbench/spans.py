"""
Per-layer tracing from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
with timing wrappers, at the attribute its callers look up: methods on their
class, module functions in every ``iwahecke.*`` module that imported them by
name.  Nothing under ``src/`` changes, and `uninstall()` restores the
originals.

Every wrapped call opens a span that carries the current job id and its
parent span.  Spans are folded into per-name aggregates as they close, so
memory stays bounded however many calls a run makes:

* self time is the span's duration minus the time its child spans cover;
* a call is a hit when no span below it lies in a lower layer (the call
  was answered from a memo cache without doing the layer's work).

Spans longer than `SLOW_SPAN_S` are also kept individually, with job id and
parent name, so a slow job can be traced to the call that made it slow.
"""

from __future__ import annotations

import sys
import time

SLOW_SPAN_S = 0.25
MAX_SLOW_SPANS = 200

# Lower rank = lower layer.  "Hit" means: no descendant span of lower rank.
RANK = {"kernel": 0, "laurent": 0, "series": 0, "weyl": 1, "affine": 1,
        "deeplevel": 1, "hecke": 2, "klpoly": 3, "center": 3, "transfer": 4,
        "cli": 5}
LAYERS = tuple(RANK)


class Stat:
    __slots__ = ("name", "layer", "calls", "total_s", "self_s", "misses",
                 "extra")

    def __init__(self, name: str):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.misses = 0
        self.extra = 0  # an operation count chosen per function (see hooks)


NO_DESCENDANT = 99


class Span:
    __slots__ = ("stat", "rank", "job", "parent", "child_s", "min_below")

    def __init__(self, stat, rank, job, parent):
        self.stat = stat
        self.rank = rank
        self.job = job
        self.parent = parent
        self.child_s = 0.0
        self.min_below = NO_DESCENDANT  # lowest rank among descendants

    @property
    def hit(self):
        return self.min_below >= self.rank


# -- per-function operation counts (Stat.extra) ------------------------------


def _count_result_terms(stat, span, args, result):
    stat.extra += len(result.terms)


def _count_adm_on_miss(stat, span, args, result):
    if not span.hit:
        stat.extra += len(result)


def _count_coeff_products(stat, span, args, result):
    a, b = args[0], args[1]
    stat.extra += len(a.coeffs) * len(getattr(b, "coeffs", ()))


def _count_determinate(stat, span, args, result):
    stat.extra += 1  # only reached when scholze_phi returned a value


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.counters: dict = {}
        self.slow_spans: list = []
        self.active = False
        self.job_id = None
        self.top = None
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        import iwahecke.affine as affine
        import iwahecke.center as center
        import iwahecke.cli as cli
        import iwahecke.deeplevel as deeplevel
        import iwahecke.hecke as hecke
        import iwahecke.klpoly as klpoly
        import iwahecke.laurent as laurent
        import iwahecke.series as series
        import iwahecke.transfer as transfer
        from iwahecke._kernel import _pykernel

        K = _pykernel.Kernel
        for meth in ("mul", "inv", "length", "lmul_gen", "rmul_gen",
                     "left_descent", "apply"):
            self._method(K, meth, f"kernel.{meth}")

        self._method(affine.AffineWeylGroup, "__init__", "weyl.tables")

        E, G = affine.AffineWeylElement, affine.AffineWeylGroup
        self._method(E, "__mul__", "affine.elem_mul")
        self._method(E, "inverse", "affine.inverse")
        for meth in ("translation", "from_word", "reduced_word",
                     "bruhat_leq", "kottwitz_image", "critical_indices"):
            self._method(G, meth, f"affine.{meth}")
        self._method(G, "admissible_set", "affine.admissible_set",
                     _count_adm_on_miss)

        L = laurent.LaurentPoly
        self._method(L, ("__add__", "__radd__"), "laurent.add")
        self._method(L, ("__mul__", "__rmul__"), "laurent.mul")
        self._method(L, "__sub__", "laurent.sub")
        self._method(L, "__neg__", "laurent.neg")

        H = hecke.HeckeAlgebra
        self._method(H, ("lmul_gen", "rmul_gen"), "hecke.fold",
                     _count_result_terms)
        for meth in ("lmul_omega", "rmul_omega", "t_times", "multiply",
                     "t_inverse", "theta", "is_central", "parahoric_descent"):
            self._method(H, meth, f"hecke.{meth}")
        self._method(H, "bernstein_function", "hecke.z", _count_result_terms)
        self._method(hecke.HeckeElement, "__add__", "hecke.element_add")
        self._method(hecke.HeckeElement, "scale", "hecke.element_scale")

        R = klpoly.RPolynomials
        self._method(R, "r", "klpoly.r")
        self._method(R, "closed_form_bernstein", "klpoly.closed_form")

        for fn in ("bernstein_iso", "bernstein_iso_inverse", "constant_term",
                   "monomial_symmetric"):
            self._function(center, fn, f"center.{fn}")
        S = center.SymmetricFunction
        self._method(S, "__add__", "center.sym_add")
        self._method(S, ("__mul__", "__rmul__"), "center.sym_mul")

        for fn in ("normalized_transfer", "kottwitz_fiber_integrate",
                   "grassmannian_count", "base_change"):
            self._function(transfer, fn, f"transfer.{fn}")

        T = series.TruncatedSeries
        self._method(T, "__add__", "series.add")
        self._method(T, "__mul__", "series.mul", _count_coeff_products)
        self._method(T, "__neg__", "series.neg")
        self._method(T, "coeff_at", "series.coeff_at")
        self._method(T, "truncate", "series.truncate")
        M = series.Matrix2
        self._method(M, "__mul__", "series.matrix_mul")
        self._method(M, ("__add__", "__sub__"), "series.matrix_add")
        self._method(M, "det", "series.det")

        self._function(deeplevel, "scholze_phi", "deeplevel.scholze_phi",
                       _count_determinate)
        self._function(deeplevel, "level_compatibility_check",
                       "deeplevel.level_compat")
        for fn in ("scholze_z", "ell_invariant", "k_invariant"):
            self._function(deeplevel, fn, f"deeplevel.{fn}")
        self._count_yields(deeplevel, "kn_coset_reps", "deeplevel.cosets")

        self._function(cli, "main", "cli.main")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(name)
        return st

    def _method(self, cls, attrs, name, hook=None):
        if isinstance(attrs, str):
            attrs = (attrs,)
        stat = self._stat(name)
        for attr in attrs:
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, stat, hook))

    def _function(self, module, attr, name, hook=None):
        orig = getattr(module, attr)
        self._everywhere(attr, orig, self._wrap(orig, self._stat(name), hook))

    def _count_yields(self, module, attr, name):
        """Count the items a generator function yields (no span)."""
        orig = getattr(module, attr)
        counters = self.counters
        counters.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            for item in orig(*args, **kwargs):
                if tracer.active:
                    counters[name] += 1
                yield item

        self._everywhere(attr, orig, wrapper)

    def _everywhere(self, attr, orig, wrapper):
        """Patch `attr` in every iwahecke module that holds `orig` under
        that name: its own module and those that imported it by name."""
        for mod in _package_modules():
            if mod.__dict__.get(attr) is orig:
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def _wrap(self, fn, stat, hook):
        tracer = self
        rank = RANK[stat.layer]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.top
            span = Span(stat, rank, tracer.job_id, parent)
            tracer.top = span
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer.top = parent
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - span.child_s
                if not span.hit:
                    stat.misses += 1
                if parent is not None:
                    parent.child_s += dt
                    low = min(rank, span.min_below)
                    if low < parent.min_below:
                        parent.min_below = low
                if dt >= SLOW_SPAN_S and len(tracer.slow_spans) < MAX_SLOW_SPANS:
                    tracer.slow_spans.append({
                        "job": span.job, "name": stat.name,
                        "parent": parent.stat.name if parent else None,
                        "s": round(dt, 4)})
            if hook is not None:
                hook(stat, span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- use -----------------------------------------------------------------

    def start(self, job_id):
        self.job_id = job_id
        self.active = True

    def stop(self):
        self.active = False
        self.top = None

    def count(self, name, n):
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- results ---------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for st in self.stats.values():
            out[st.layer] += st.self_s
        return out

    def metrics(self) -> dict:
        """Every per-layer metric, by the names BENCHMARK.json declares."""
        s = self.stats
        layer = self.layer_self_s()

        def calls(name):
            return s[name].calls

        def hit_ratio(name):
            st = s[name]
            return (st.calls - st.misses) / st.calls if st.calls else 0.0

        kernel_calls = sum(st.calls for st in s.values()
                           if st.layer == "kernel")
        transfer_calls = sum(st.calls for st in s.values()
                             if st.layer == "transfer")
        phi = s["deeplevel.scholze_phi"]
        m = {
            "weyl.tables.calls": (calls("weyl.tables"), "count"),
            "weyl.tables_s": (s["weyl.tables"].total_s, "s"),
            "kernel.calls": (kernel_calls, "count"),
            "kernel.self_s": (layer["kernel"], "s"),
            "kernel.mul.calls": (calls("kernel.mul"), "count"),
            "kernel.length.calls": (calls("kernel.length"), "count"),
            "kernel.lmul_gen.calls": (calls("kernel.lmul_gen"), "count"),
            "kernel.left_descent.calls": (calls("kernel.left_descent"),
                                          "count"),
            "affine.self_s": (layer["affine"], "s"),
            "affine.elem_mul.calls": (calls("affine.elem_mul"), "count"),
            "affine.reduced_word.calls": (calls("affine.reduced_word"),
                                          "count"),
            "affine.bruhat_leq.calls": (calls("affine.bruhat_leq"), "count"),
            "affine.admissible_set.calls": (calls("affine.admissible_set"),
                                            "count"),
            "affine.admissible_set.hit_ratio": (
                hit_ratio("affine.admissible_set"), "ratio"),
            "affine.adm_elements": (s["affine.admissible_set"].extra,
                                    "count"),
            "laurent.self_s": (layer["laurent"], "s"),
            "laurent.add.calls": (calls("laurent.add"), "count"),
            "laurent.mul.calls": (calls("laurent.mul"), "count"),
            "hecke.self_s": (layer["hecke"], "s"),
            "hecke.fold.calls": (calls("hecke.fold"), "count"),
            "hecke.fold.terms_out": (s["hecke.fold"].extra, "count"),
            "hecke.element_add.calls": (calls("hecke.element_add"), "count"),
            "hecke.multiply.calls": (calls("hecke.multiply"), "count"),
            "hecke.theta.calls": (calls("hecke.theta"), "count"),
            "hecke.theta.hit_ratio": (hit_ratio("hecke.theta"), "ratio"),
            "hecke.t_inverse.hit_ratio": (hit_ratio("hecke.t_inverse"),
                                          "ratio"),
            "hecke.z_terms": (s["hecke.z"].extra, "count"),
            "klpoly.self_s": (layer["klpoly"], "s"),
            "klpoly.r.calls": (calls("klpoly.r"), "count"),
            "center.self_s": (layer["center"], "s"),
            "center.bernstein_iso.calls": (calls("center.bernstein_iso"),
                                           "count"),
            "center.bernstein_iso_inverse.calls": (
                calls("center.bernstein_iso_inverse"), "count"),
            "center.constant_term.calls": (calls("center.constant_term"),
                                           "count"),
            "transfer.self_s": (layer["transfer"], "s"),
            "transfer.calls": (transfer_calls, "count"),
            "series.self_s": (layer["series"], "s"),
            "series.add.calls": (calls("series.add"), "count"),
            "series.mul.calls": (calls("series.mul"), "count"),
            "series.coeff_at.calls": (calls("series.coeff_at"), "count"),
            "series.mul.coeff_products": (s["series.mul"].extra, "count"),
            "series.matrix_mul.calls": (calls("series.matrix_mul"), "count"),
            "deeplevel.self_s": (layer["deeplevel"], "s"),
            "deeplevel.scholze_phi.calls": (phi.calls, "count"),
            "deeplevel.level_compat.calls": (calls("deeplevel.level_compat"),
                                             "count"),
            "deeplevel.cosets": (self.counters.get("deeplevel.cosets", 0),
                                 "count"),
            "deeplevel.determinate_ratio": (
                phi.extra / phi.calls if phi.calls else 0.0, "ratio"),
            "cli.self_s": (layer["cli"], "s"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.bytes_out": (self.counters.get("cli.bytes_out", 0), "count"),
        }
        return m


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "iwahecke" or name.startswith("iwahecke."))]
