"""Layer tracing from outside the package: wrap public functions in spans.

A span is one call of a wrapped function.  Spans nest through an explicit
stack, so each span's self time is its duration minus the durations of the
wrapped calls made inside it.  Spans are aggregated per function as they
close (calls, self time, inclusive time) and per caller -> callee edge; the
individual spans are not kept, because a `verify all` sweep makes tens of
thousands of wrapped calls.

Every binding of a wrapped object inside the package is patched: a function
imported by name into another module (`from .exact import rank_and_kernel`)
and a method aliased inside its class (`__rmul__ = __mul__`) are separate
bindings of one object, and each must route through the wrapper.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

PACKAGE = "lefschetz"


def _observe_weyl_group(counters, args, result):
    counters["roots.weyl_elements"] += len(result)


def _observe_module(counters, args, result):
    counters["algebra.module_dim_total"] += result.dimension


def _observe_complex(counters, args, result):
    counters["cohomology.cochains_total"] += sum(
        len(labels) for blocks in result.bases for labels in blocks.values()
    )
    counters["cohomology.weight_blocks_total"] += sum(len(b) for b in result.bases)


def _observe_rank(counters, args, result):
    m = args[0]
    entries = m.rows * m.cols
    counters["exact.rank_entries_total"] += entries
    counters["exact.rank_block_max"] = max(counters["exact.rank_block_max"], entries)


# Wrapped functions of the timed section, named "<module>.<qualname>".
TIMED_TARGETS = (
    "roots.build_root_system",
    "roots.RootDatum.weyl_group",
    "algebra.build_chevalley_algebra",
    "algebra.parabolic_split",
    "algebra.highest_weight_module",
    "algebra.casimir_eigenvalue",
    "cohomology.weight_multiplicities",
    "cohomology.kostant_prediction",
    "cohomology.build_ce_complex",
    "cohomology.CEComplex.verify_complex",
    "cohomology.cohomology_table",
    "cohomology.homology_table",
    "cohomology.euler_character_check",
    "exact.rank_and_kernel",
    "exact.ExactMatrix.__matmul__",
    "exact.ExactMatrix.inverse",
    "exact.LaurentCharacter.__mul__",
    "exact.exterior_power_character",
    "spin.clifford_relation_check",
    "spin.verify_spin_square",
    "spin.epsilon_twist_check",
    "formula.det_identity_check",
    "formula.hecht_schmid_check",
    "euler.comb_identity_check",
    "euler.bundle_betti_transfer",
    "cli.main",
)

# Wrapped functions of the set-up phase, whose cost is part of setup_s.
SETUP_TARGETS = (
    "roots.build_root_system",
    "algebra.build_chevalley_algebra",
    "algebra.parabolic_split",
)

OBSERVERS = {
    "roots.RootDatum.weyl_group": _observe_weyl_group,
    "algebra.highest_weight_module": _observe_module,
    "cohomology.build_ce_complex": _observe_complex,
    "exact.rank_and_kernel": _observe_rank,
}

COUNTERS = (
    "roots.weyl_elements",
    "algebra.module_dim_total",
    "cohomology.cochains_total",
    "cohomology.weight_blocks_total",
    "exact.rank_entries_total",
    "exact.rank_block_max",
)


def _resolve(target):
    """The raw function object a target names, read from its defining scope."""
    module_name, *path = target.split(".")
    owner = sys.modules[f"{PACKAGE}.{module_name}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return vars(owner)[path[-1]]


def _bindings(obj):
    """Every (namespace, name) in the loaded package that holds `obj`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for name, value in list(vars(mod).items()):
            if value is obj:
                yield mod, name
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in list(vars(value).items()):
                    if member is obj:
                        yield value, attr


class Tracer:
    """Span aggregation for a fixed set of targets, patched in with `with`."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        # name -> [calls, self seconds, inclusive seconds]
        self.stats = {t: [0, 0.0, 0.0] for t in self.targets}
        self.edges = {}  # (caller or None, callee) -> [calls, inclusive seconds]
        self.counters = {c: 0 for c in COUNTERS}
        self.bindings = {}  # name -> patched "<namespace>.<attribute>" strings
        self._stack = []  # [name, child seconds] per open span
        self._patched = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        counters = self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[1]
                stats[2] += dt
                if stack:
                    stack[-1][1] += dt
                edge = edges.setdefault((caller, name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
            if observe is not None:
                observe(counters, args, result)
            return result

        return span

    def __enter__(self):
        for target in self.targets:
            raw = _resolve(target)
            wrapper = self._wrap(target, raw)
            for namespace, attr in list(_bindings(raw)):
                setattr(namespace, attr, wrapper)
                self._patched.append((namespace, attr, raw))
                if isinstance(namespace, type):
                    qualified = f"{namespace.__module__}.{namespace.__qualname__}"
                else:
                    qualified = namespace.__name__
                self.bindings.setdefault(target, []).append(f"{qualified}.{attr}")
        return self

    def __exit__(self, *exc):
        for namespace, attr, raw in reversed(self._patched):
            setattr(namespace, attr, raw)
        self._patched.clear()
        return False

    def edge_table(self):
        return [
            {"caller": caller, "callee": callee, "calls": c, "incl_s": s}
            for (caller, callee), (c, s) in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )
        ]
