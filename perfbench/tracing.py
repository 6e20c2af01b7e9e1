"""Per-layer tracing installed from outside the package.

The traced run rebinds the module-level names through which latticegfun
resolves its own layers (``gfun.weighted_sum_poly``, ``todd.gamma_set``,
...) to timing wrappers, and puts the originals back when it ends.  Nothing
under ``src/`` knows about it.

A layer's self time is its duration minus the time of the wrapped calls
made inside it.  A generator layer (lattice-point enumeration) is timed
only inside its ``next()`` calls, so the consumer's work between items
stays with the caller.  Counters that need the call's result or arguments
are updated outside the timed interval and that bookkeeping is charged to
no layer; it shows up only in the tracing overhead.
"""
from __future__ import annotations

import contextlib
import importlib
import math
from fractions import Fraction
from time import perf_counter


class LayerStat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


def _face_box_points(P, face, q) -> int:
    """Integer points of the bounding box that enumeration scans for q*face."""
    verts = [P.vertices[i] for i in face.vertex_indices]
    return math.prod(q * (max(v[k] for v in verts) - min(v[k] for v in verts)) + 1
                     for k in range(P.ambient_dim))


def _root_order(value) -> int:
    if isinstance(value, Fraction):
        return 1 if value == 1 else 2  # the only rational roots are +1 and -1
    return value.order


def _observe_face_lattice(stat, args, result):
    stat.add("faces", len(result))


def _observe_gamma_set(stat, args, result):
    stat.add("points", len(result.points))
    for values in result.a_values:
        for value in values:
            stat.peak("max_order", _root_order(value))


def _observe_symbolic_integral(stat, args, result):
    stat.add("terms", len(result.poly.terms))


def _observe_lattice_scan(stat, args):
    P, face, q = args[:3]
    stat.add("box_points", _face_box_points(P, face, q))


# layer -> (sites that callers resolve, kind, observer); a site is a
# (module, attribute) pair of latticegfun
LAYERS = {
    "polytope.build_polytope": ([("polytope", "build_polytope"), ("cli", "build_polytope")],
                                "call", None),
    "polytope.face_lattice": ([("polytope", "face_lattice")], "call", _observe_face_lattice),
    "polytope.iter_lattice_points": ([("wsum", "iter_lattice_points")], "iter",
                                     _observe_lattice_scan),
    "wsum.weighted_sum_poly": ([("gfun", "weighted_sum_poly"), ("cli", "weighted_sum_poly")],
                               "call", None),
    "algebra.interpolate": ([("wsum", "interpolate")], "call", None),
    "facepoly.dual_g": ([("gfun", "dual_g")], "call", None),
    "gfun.build_gfun": ([("gfun", "build_gfun"), ("cli", "build_gfun")], "call", None),
    "gfun.check_reciprocity": ([("gfun", "check_reciprocity"), ("cli", "check_reciprocity")],
                               "call", None),
    "todd.normal_fan": ([("todd", "normal_fan")], "call", None),
    "todd.gamma_set": ([("todd", "gamma_set")], "call", _observe_gamma_set),
    "linalg.solve_exact": ([("todd", "solve_exact")], "call", None),
    "todd.todd_coeffs": ([("todd", "todd_coeffs")], "call", None),
    "todd.symbolic_integral": ([("todd", "symbolic_integral")], "call",
                               _observe_symbolic_integral),
    "todd.apply_todd": ([("todd", "apply_todd"), ("cli", "apply_todd")], "call", None),
}

FACE_SUM_LAYERS = ("polytope.iter_lattice_points", "wsum.weighted_sum_poly",
                   "algebra.interpolate", "facepoly.dual_g", "gfun.build_gfun",
                   "gfun.check_reciprocity")
TODD_LAYERS = ("todd.normal_fan", "todd.gamma_set", "linalg.solve_exact",
               "todd.todd_coeffs", "todd.symbolic_integral", "todd.apply_todd")
SHARED_LAYERS = ("polytope.build_polytope", "polytope.face_lattice")


def sites():
    """Every (module object, attribute) pair the tracer rebinds."""
    out = []
    for layer, (where, _, _) in LAYERS.items():
        for module, attr in where:
            out.append((importlib.import_module(f"latticegfun.{module}"), attr, layer))
    return out


class Tracer:
    """Accumulates calls, self time and counters per layer."""

    def __init__(self):
        self.stats = {layer: LayerStat() for layer in LAYERS}
        self._stack: list[float] = []  # child time of each open span

    def wrap(self, layer: str, fn):
        _, kind, observe = LAYERS[layer]
        stat = self.stats[layer]
        stack = self._stack

        if kind == "iter":
            def traced_iter(*args, **kwargs):
                t_open = perf_counter()
                stat.calls += 1
                observe(stat, args)
                it = fn(*args, **kwargs)
                if stack:
                    stack[-1] += perf_counter() - t_open
                items = 0
                try:
                    while True:
                        stack.append(0.0)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = perf_counter() - t0
                            stat.self_s += dt - stack.pop()
                            if stack:
                                stack[-1] += dt
                        items += 1
                        yield item
                finally:
                    stat.add("points", items)
            return traced_iter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                t1 = perf_counter()
                observe(stat, args, result)
                if stack:
                    stack[-1] += perf_counter() - t1
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer site to its wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, layer in sites():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def merge(self, dumped: dict) -> None:
        """Add the stats of another process, as written by ``dump``."""
        for layer, entry in dumped.items():
            stat = self.stats[layer]
            stat.calls += entry["calls"]
            stat.self_s += entry["self_s"]
            for key, value in entry["counts"].items():
                if key == "max_order":
                    stat.peak(key, value)
                else:
                    stat.add(key, value)

    def dump(self) -> dict:
        return {layer: {"calls": s.calls, "self_s": s.self_s, "counts": s.counts}
                for layer, s in self.stats.items()}

    def unreached(self, expected) -> list[str]:
        return [layer for layer in expected if self.stats[layer].calls == 0]
