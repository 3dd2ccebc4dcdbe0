"""Per-layer spans, recorded from outside the program.

``Tracer.install()`` replaces each traced function by a timing wrapper in every
``polysqueeze`` module that binds it (``cli`` and ``verify`` bind imported names
at import, ``MobiusAut.__call__`` looks up ``hyperbolic.mobius_eval``, and
``squeeze_bounds`` imports ``search_lower_bound`` at call time, so the search
module's own binding must be replaced too).  ``uninstall()`` puts the
originals back.  A name the program no longer defines is skipped and reads 0.

Spans nest on one stack, so each span knows the time its traced children
took; a function's time below is its self time, except the verify suites,
whose time is the whole suite.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from workloads import SUITES

# (module, attribute) of each traced function.  ProductPoint.of is a
# staticmethod and is handled apart.
TRACED = [
    ("cli", "build_parser"), ("cli", "load_domain_spec"), ("cli", "parse_point"), ("cli", "main"),
    ("squeezing", "squeeze_bounds"), ("squeezing", "exact_squeeze"),
    ("squeezing", "puncture_upper_bound"), ("squeezing", "product_lower_bound"),
    ("squeezing", "annulus_clearance_bound"), ("squeezing", "boundary_limit_profile"),
    ("search", "search_lower_bound"), ("search", "build_factor_witness"),
    ("embeddings", "image_inradius_at_zero"), ("embeddings", "image_inradius_analytic"),
    ("embeddings", "product_inradius"),
    ("hyperbolic", "mobius_eval"), ("hyperbolic", "sigma_inv"), ("hyperbolic", "poincare_distance"),
]

PACKAGE = "polysqueeze"
USEFUL_MARGIN = 1e-9


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "points")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.points = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[list[float]] = []
        self._bounds: list[dict] = []      # one frame per open squeeze_bounds call
        self.searches = 0
        self.useful_searches = 0
        self._undo: list = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, key: str, fn):
        stack, stats = self._stack, self.stats
        after = getattr(self, "_after_" + key.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                # A hook sees None when the call raised.
                name = (after(args, kwargs, result) if after else None) or key
                s = stats[name]
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - child[0]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short, attr in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{short}")
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(f"{short}.{attr}", fn)
            if attr == "squeeze_bounds":
                wrapper = self._bounds_frame(wrapper)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._undo.append((setattr, m, name, fn))
        domains = sys.modules.get(f"{PACKAGE}.domains")
        point_cls = getattr(domains, "ProductPoint", None)
        if point_cls is not None and "of" in vars(point_cls):
            original = vars(point_cls)["of"]
            point_cls.of = staticmethod(self._wrap("domains.ProductPoint.of", original.__func__))
            self._undo.append((setattr, point_cls, "of", original))
        verify = sys.modules.get(f"{PACKAGE}.verify")
        table = getattr(verify, "SUITES", None)
        if isinstance(table, dict):
            for suite, fn in list(table.items()):
                table[suite] = self._wrap(f"verify.{suite}", fn)
                self._undo.append((table.__setitem__, suite, fn))

    def uninstall(self) -> None:
        while self._undo:
            setter, *args = self._undo.pop()
            setter(*args)

    # ----------------------------------------------------- per-name hooks

    def _after_hyperbolic_mobius_eval(self, args, kwargs, result):
        zeta = args[1] if len(args) > 1 else kwargs.get("zeta")
        if isinstance(zeta, np.ndarray) and zeta.ndim > 0:
            self.stats["hyperbolic.mobius_eval.array"].points += zeta.size
            return "hyperbolic.mobius_eval.array"
        return "hyperbolic.mobius_eval.scalar"

    def _after_embeddings_image_inradius_at_zero(self, args, kwargs, result):
        f = args[1] if len(args) > 1 else kwargs.get("f")
        m = args[2] if len(args) > 2 else kwargs.get("m", 4096)
        circles = 2 if type(f).__name__ == "Annulus" else 1
        self.stats["embeddings.image_inradius_at_zero"].points += m * circles

    def _after_squeezing_product_lower_bound(self, args, kwargs, result):
        if self._bounds and result is not None:
            self._bounds[-1]["others"].append(float(result))

    _after_squeezing_annulus_clearance_bound = _after_squeezing_product_lower_bound

    def _after_search_search_lower_bound(self, args, kwargs, result):
        if self._bounds and result is not None:
            self._bounds[-1]["search"].append(float(result.value))

    def _bounds_frame(self, wrapped):
        """Scores each search against the other lower bounds of its squeeze_bounds call."""
        frames = self._bounds

        def wrapper(*args, **kwargs):
            frames.append({"others": [0.0], "search": []})
            try:
                return wrapped(*args, **kwargs)
            finally:
                frame = frames.pop()
                best_other = max(frame["others"])
                for v in frame["search"]:
                    self.searches += 1
                    self.useful_searches += v > best_other + USEFUL_MARGIN

        return wrapper

    # ------------------------------------------------------------- report

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit); 0 for a name never called."""
        st = self.stats

        def ms(key):
            return st[key].self_s * 1e3, "ms"

        def calls(key):
            return st[key].calls, "count"

        def points(key):
            return st[key].points, "count"

        ratio = self.useful_searches / self.searches if self.searches else 0.0
        out = {
            "cli.build_parser.ms": ms("cli.build_parser"),
            "cli.load_domain_spec.ms": ms("cli.load_domain_spec"),
            "cli.parse_point.ms": ms("cli.parse_point"),
            "cli.main.self_ms": ms("cli.main"),
            "squeezing.squeeze_bounds.calls": calls("squeezing.squeeze_bounds"),
            "squeezing.squeeze_bounds.self_ms": ms("squeezing.squeeze_bounds"),
            "squeezing.exact_squeeze.ms": ms("squeezing.exact_squeeze"),
            "squeezing.puncture_upper_bound.ms": ms("squeezing.puncture_upper_bound"),
            "squeezing.product_lower_bound.ms": ms("squeezing.product_lower_bound"),
            "squeezing.boundary_limit_profile.ms": ms("squeezing.boundary_limit_profile"),
            "search.search_lower_bound.calls": calls("search.search_lower_bound"),
            "search.search_lower_bound.ms": ms("search.search_lower_bound"),
            "search.build_factor_witness.calls": calls("search.build_factor_witness"),
            "search.useful_ratio": (ratio, "ratio"),
            "embeddings.image_inradius_at_zero.calls": calls("embeddings.image_inradius_at_zero"),
            "embeddings.image_inradius_at_zero.ms": ms("embeddings.image_inradius_at_zero"),
            "embeddings.image_inradius_at_zero.points": points("embeddings.image_inradius_at_zero"),
            "embeddings.image_inradius_analytic.calls": calls("embeddings.image_inradius_analytic"),
            "embeddings.product_inradius.ms": ms("embeddings.product_inradius"),
            "hyperbolic.mobius_eval.array_calls": calls("hyperbolic.mobius_eval.array"),
            "hyperbolic.mobius_eval.array_points": points("hyperbolic.mobius_eval.array"),
            "hyperbolic.mobius_eval.array_ms": ms("hyperbolic.mobius_eval.array"),
            "hyperbolic.mobius_eval.scalar_calls": calls("hyperbolic.mobius_eval.scalar"),
            "hyperbolic.mobius_eval.scalar_ms": ms("hyperbolic.mobius_eval.scalar"),
            "hyperbolic.sigma_inv.calls": calls("hyperbolic.sigma_inv"),
            "hyperbolic.poincare_distance.calls": calls("hyperbolic.poincare_distance"),
            "domains.ProductPoint.of.calls": calls("domains.ProductPoint.of"),
            "domains.ProductPoint.of.ms": ms("domains.ProductPoint.of"),
        }
        for suite in SUITES:
            out[f"verify.{suite}.s"] = (st[f"verify.{suite}"].total_s, "s")
        return out
