"""Spans around the public functions of each glicci layer, for traced runs.

A :class:`Tracer` replaces each hooked function by a wrapper that times
the call, and restores the originals on :meth:`Tracer.uninstall`.  A
module-level function is patched in every ``glicci`` module that binds
it, because callers look it up in their own namespace (``planner`` calls
its own ``cubic_surface_type``); a method is patched on its class.

A span's self time is its duration minus the time of the spans it
encloses.  Spans are aggregated in memory per name (calls, self time,
typed errors), which keeps high-frequency leaves such as ``pair`` cheap.
A hooked name that no longer exists is reported with zero calls and a
warning on stderr.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (span, module, attribute) -- attribute may be "Class.method".
HOOKS = (
    ("catalog.carrier", "glicci.catalog", "cubic_surface_type"),
    ("catalog.carrier", "glicci.catalog", "quadric_family"),
    ("catalog.carrier", "glicci.catalog", "plane_curve_family"),
    ("catalog.carrier", "glicci.catalog", "quadric_ruling_line"),
    ("catalog.carrier", "glicci.catalog", "p3_acm_family"),
    ("catalog.family_check", "glicci.catalog", "CurveFamily.__post_init__"),
    ("picard.pair", "glicci.picard", "SurfaceModel.pair"),
    ("picard.degree_of", "glicci.picard", "SurfaceModel.degree_of"),
    ("picard.genus_of", "glicci.picard", "SurfaceModel.genus_of"),
    ("picard.parse", "glicci.picard", "DivisorClass.parse"),
    ("planner.plan", "glicci.planner", "plan"),
    ("planner.build_oracle", "glicci.planner", "build_oracle"),
    ("moves.validate_chain", "glicci.moves", "validate_chain"),
    ("moves.from_json", "glicci.moves", "Chain.from_json"),
    ("claims.verify_all", "glicci.claims", "verify_all"),
    ("hvector.min_genus", "glicci.hvector", "min_genus"),
)

SPANS = tuple(dict.fromkeys(span for span, _, _ in HOOKS))
LAYERS = ("catalog", "picard", "planner", "moves", "claims", "hvector")


def _warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


class Tracer:
    """Per-span aggregates plus the counters that need a span's result."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.plan_total_s = 0.0
        self.lattice_in_plan_s = 0.0
        self._plan_depth = 0
        self.counts = {"planner.steps": 0, "planner.oracle_edges": 0,
                       "moves.steps_validated": 0, "moves.rejected": 0,
                       "claims.records": 0}
        self._stack: list[float] = []
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._caches: list[object] = []
        self._cache_start: list[tuple[int, int]] = []
        self._typed: type = Exception
        self._invalid_move: type | None = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.cached_entries = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        glicci_errors = sys.modules.get("glicci.errors")
        self._typed = getattr(glicci_errors, "GlicciError", Exception)
        self._invalid_move = getattr(glicci_errors, "InvalidMove", None)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "glicci" or name.startswith("glicci."))]
        for span, module_name, attr in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or method not in vars(owner):
                _warn(f"{module_name}.{attr} not found; {span} reports zero calls")
                continue
            raw = vars(owner)[method]
            if owner_name:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._patch(owner, method, wrapped)
                continue
            if span == "catalog.carrier":
                if hasattr(raw, "cache_info"):
                    self._caches.append(raw)
                elif method != "quadric_ruling_line" and method != "p3_acm_family":
                    _warn(f"{module_name}.{attr} has no cache_info; hit ratio omits it")
            wrapped = self._wrap(span, raw)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, wrapped)
        self._cache_start = [self._cache_counts(c) for c in self._caches]

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    @staticmethod
    def _cache_counts(fn) -> tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    def uninstall(self) -> None:
        for (hits0, misses0), fn in zip(self._cache_start, self._caches):
            hits, misses = self._cache_counts(fn)
            self.cache_hits += hits - hits0
            self.cache_misses += misses - misses0
        self.cached_entries = max(
            self.cached_entries, sum(fn.cache_info().currsize for fn in self._caches)
        )
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._caches.clear()
        self._cache_start.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, span: str, fn):
        stack = self._stack
        layer = span.split(".", 1)[0]
        after = {
            "planner.plan": self._after_plan,
            "planner.build_oracle": self._after_oracle,
            "claims.verify_all": self._after_claims,
        }.get(span)
        is_validate = span == "moves.validate_chain"
        is_plan = span == "planner.plan"
        is_lattice = layer in ("catalog", "picard")

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            self._plan_depth += is_plan
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(layer, exc, is_validate)
                raise
            finally:
                duration = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += duration
                self._plan_depth -= is_plan
                self.calls[span] += 1
                self.self_s[span] += duration - inner
                if is_plan:
                    self.plan_total_s += duration
                elif is_lattice and self._plan_depth:
                    self.lattice_in_plan_s += duration - inner
            if after is not None:
                after(result)
            if is_validate and args:
                self.counts["moves.steps_validated"] += len(getattr(args[0], "steps", ()))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_error(self, layer: str, exc: BaseException, is_validate: bool) -> None:
        # An error is counted once, at the innermost span it leaves.
        if exc is self._last_error:
            return
        self._last_error = exc
        if self._invalid_move is not None and is_validate and isinstance(exc, self._invalid_move):
            self.counts["moves.rejected"] += 1
        elif isinstance(exc, self._typed):
            self.errors[layer] += 1

    def _after_plan(self, chain) -> None:
        self.counts["planner.steps"] += len(getattr(chain, "steps", ()))

    def _after_oracle(self, oracle) -> None:
        self.counts["planner.oracle_edges"] += len(getattr(oracle, "edges", ()))

    def _after_claims(self, records) -> None:
        self.counts["claims.records"] += len(records)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data aggregate, summable across processes with :func:`merge`."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "plan_total_s": self.plan_total_s,
            "lattice_in_plan_s": self.lattice_in_plan_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cached_entries": self.cached_entries,
        }


def empty_snapshot() -> dict:
    return Tracer().snapshot()


def merge(total: dict, part: dict) -> dict:
    """Add ``part`` into ``total``; cached entries keep the largest
    single-process value, the memory one process holds at its peak."""
    for key in ("calls", "self_s", "errors", "counts"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for key in ("plan_total_s", "lattice_in_plan_s", "cache_hits", "cache_misses"):
        total[key] += part[key]
    total["cached_entries"] = max(total["cached_entries"], part["cached_entries"])
    return total


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from an aggregate snapshot."""
    out: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        out[f"{span}.calls"] = (snap["calls"][span], "count")
        out[f"{span}.self_s"] = (snap["self_s"][span], "s")
    lookups = snap["cache_hits"] + snap["cache_misses"]
    out["catalog.carrier.hit_ratio"] = (snap["cache_hits"] / lookups if lookups else 0.0, "ratio")
    out["catalog.carrier.cached_entries"] = (snap["cached_entries"], "count")
    steps = snap["counts"]["planner.steps"]
    plan_self = snap["self_s"]["planner.plan"]
    out["planner.steps"] = (steps, "count")
    out["planner.step_self_us"] = (plan_self / steps * 1e6 if steps else 0.0, "us")
    total = snap["plan_total_s"]
    out["planner.lattice_share"] = (snap["lattice_in_plan_s"] / total if total else 0.0, "ratio")
    for name in ("planner.oracle_edges", "moves.steps_validated", "moves.rejected",
                 "claims.records"):
        out[name] = (snap["counts"][name], "count")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (snap["errors"][layer], "count")
    return out
