"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``metaplectic`` modules from the
outside; no library file is changed.  A wrapped function is rebound under
every name it has in every ``metaplectic.*`` module and class, because
``zeta``, ``cover``, ``repn`` and ``cli`` import ``chi_psi``, ``hilbert_frac``,
``decompose_meta``, ``kubota_split`` and friends by name, and because
``CycValue.__rmul__`` / ``__radd__`` are separate bindings of ``__mul__`` /
``__add__``.

Every call is a span.  Calls, self time (span duration minus the time of its
child spans) and inclusive time (outermost call only, so recursion is not
counted twice) are aggregated on the fly.  Spans of the coarse layers are
also kept in memory, up to a cap, with their parent span and the id of the
benchmark op they belong to, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from fractions import Fraction
from time import perf_counter

# (layer metric, module, attribute, keep spans, inclusive groups)
LAYERS = (
    ("exactnum.cyc_mul", "exactnum", "CycValue.__mul__", False, ()),
    ("exactnum.cyc_add", "exactnum", "CycValue.__add__", False, ()),
    ("exactnum.cyc_sum", "exactnum", "CycValue.sum", False, ()),
    ("exactnum.cyc_eq", "exactnum", "CycValue.__eq__", False, ()),
    ("exactnum.laurent_mul", "exactnum", "LaurentPoly.__mul__", False, ()),
    ("localchar.psi_value", "localchar", "AdditiveCharacter.value", False, ()),
    ("localchar.mu_value", "localchar", "MultChar.value", False, ()),
    ("localchar.chi_psi", "localchar", "chi_psi", False, ()),
    ("localchar.hilbert", "localchar", "hilbert_frac", False, ()),
    ("localchar.hilbert_oracle", "localchar", "hilbert_symbol_oracle", False, ()),
    ("cover.sl2_mul", "cover", "SL2Element.__mul__", False, ()),
    ("cover.meta_mul", "cover", "MetaElement.__mul__", False, ()),
    ("cover.meta_inverse", "cover", "MetaElement.inverse", False, ()),
    ("cover.cocycle", "cover", "cocycle", False, ()),
    ("cover.decompose", "cover", "decompose_meta", False, ()),
    ("cover.kubota_split", "cover", "kubota_split", False, ()),
    ("repn.rep_init", "repn", "Representation.__init__", True, ()),
    ("repn.act", "repn", "Representation.act", False, ()),
    ("repn.whittaker_functional", "repn", "Representation.whittaker_functional", False, ()),
    ("repn.genuine_eval", "repn", "Representation.genuine_eval", False, ()),
    ("zeta.integrate_shell", "zeta", "integrate_shell", True, ()),
    ("zeta.integrate_ball", "zeta", "integrate_ball", True, ()),
    ("zeta.zeta_function", "zeta", "zeta_function", True, ()),
    ("zeta.bessel_table", "zeta", "BesselTable.value", False, ()),
    ("zeta.bessel_closed", "zeta", "bessel_closed", True, ("zeta.bessel",)),
    ("zeta.bessel_direct", "zeta", "bessel_direct", True, ("zeta.bessel",)),
    ("zeta.gamma_coefficient", "zeta", "gamma_coefficient", True, ()),
    ("cli.serialize", "cli", "poly_to_json", False, ()),
)

MODULES = ("exactnum", "localchar", "cover", "repn", "zeta", "cli")

# Layers each workload must exercise; a zero call count there means the
# workload no longer measures what it claims, and the traced run fails.
EXPECTED_CALLS = {
    "fe_matrix": (
        "exactnum.cyc_mul", "exactnum.cyc_add", "exactnum.cyc_sum", "exactnum.cyc_eq",
        "exactnum.laurent_mul", "localchar.psi_value", "localchar.mu_value",
        "localchar.chi_psi", "localchar.hilbert", "cover.sl2_mul", "cover.meta_mul",
        "cover.meta_inverse", "cover.cocycle", "cover.decompose", "cover.kubota_split",
        "repn.rep_init", "repn.act", "repn.whittaker_functional", "repn.genuine_eval",
        "zeta.integrate_shell", "zeta.zeta_function", "zeta.bessel_closed",
        "zeta.bessel_direct", "zeta.gamma_coefficient", "cli.serialize",
    ),
    "gamma_deep": (
        "exactnum.cyc_mul", "exactnum.cyc_add", "exactnum.cyc_sum", "exactnum.cyc_eq",
        "localchar.psi_value", "localchar.mu_value", "localchar.chi_psi",
        "localchar.hilbert", "cover.sl2_mul", "cover.meta_mul", "cover.meta_inverse",
        "cover.cocycle", "cover.decompose", "cover.kubota_split", "repn.rep_init",
        "repn.act", "repn.whittaker_functional", "repn.genuine_eval",
        "zeta.integrate_shell", "zeta.bessel_table", "zeta.bessel_closed",
        "zeta.bessel_direct", "zeta.gamma_coefficient", "cli.serialize",
    ),
    "group_suites": (
        "localchar.hilbert", "localchar.hilbert_oracle", "cover.sl2_mul",
        "cover.meta_mul", "cover.cocycle", "cover.decompose", "cover.kubota_split",
    ),
}

SPAN_CAP = 200_000


def _units(p: int, level: int) -> int:
    """|(Z/p^level)^x|, the sample count of one shell-gate pass."""
    return p**level - p ** (level - 1)


def _refinements(evals: int, first: int, size) -> int:
    """Level doublings a refinement gate made, from its evaluation count.

    The gate evaluates levels L and L+1, then 2L and 2L+1, then 4L and 4L+1;
    `size(level)` is the sample count of one level."""
    level, total = first, 0
    for attempt in range(3):
        total += size(level) + size(level + 1)
        if evals <= total:
            return attempt
        level *= 2
    return 2


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}  # calls, self, incl
        self.group_incl = {}
        self.counters = {"zeta.integrand_evals": 0, "zeta.gate_refinements": 0,
                         "zeta.zeta_window_shells": 0, "zeta.bessel_table.hits": 0}
        self.spans = []
        self.dropped_spans = 0
        self.op_id = 0
        self.excluded = 0.0   # handler time inside spans so far
        self._stack = []      # frames: [child seconds, nearest kept span id]
        self._active = {}     # inclusive key -> nesting depth
        self._next_id = 1
        self._tables = {}
        self._lib = None

    # -- span bookkeeping ----------------------------------------------------

    def _make_wrapper(self, name, fn, keep, groups, before=None, after=None):
        stats = self.stats[name]
        stack, active, spans = self._stack, self._active, self.spans
        keys = (name,) + tuple(groups)
        group_incl = self.group_incl
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_id = stack[-1][1] if stack else 0
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent_id
            frame = [0.0, span_id]
            stack.append(frame)
            depths = [active.get(k, 0) for k in keys]
            for k, d in zip(keys, depths):
                active[k] = d + 1
            if before is not None:
                args, token = before(args)
            excluded = tracer.excluded
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0 - (tracer.excluded - excluded)
                if after is not None:
                    after(args, token)
                stack.pop()
                for k, d in zip(keys, depths):
                    active[k] = d
                stats[0] += 1
                stats[1] += dur - frame[0]
                if depths[0] == 0:
                    stats[2] += dur
                for k, d in zip(keys[1:], depths[1:]):
                    if d == 0:
                        group_incl[k] = group_incl.get(k, 0.0) + dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    if len(spans) < SPAN_CAP:
                        spans.append((span_id, name, t0, t1, parent_id, tracer.op_id))
                    else:
                        tracer.dropped_spans += 1

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Keep `seconds` spent outside the library (the reference-loop
        handler) out of the duration of every span it interrupted."""
        self.excluded += seconds

    def run_span(self, name, op_id, fn, *args):
        """Run fn(*args) as the root span of one benchmark op."""
        self.op_id = op_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([0.0, span_id])
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, t0, t1, 0, op_id))
            else:
                self.dropped_spans += 1

    # -- installation ----------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every layer function; `lib` maps module short names to the
        imported ``metaplectic.*`` modules."""
        self._lib = lib
        modules = [m for n, m in sys.modules.items()
                   if n == "metaplectic" or n.startswith("metaplectic.")]
        for name, mod_name, attr, keep, groups in LAYERS:
            mod = lib[mod_name]
            owner, _, fn_name = attr.rpartition(".")
            before, after = self._hooks(name)
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[fn_name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._make_wrapper(
                        name, raw.__func__, keep, groups, before, after))
                else:
                    wrapped = self._make_wrapper(name, raw, keep, groups, before, after)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, wrapped)
            else:
                raw = getattr(mod, fn_name)
                wrapped = self._make_wrapper(name, raw, keep, groups, before, after)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)

    def _hooks(self, name):
        """Extra bookkeeping around a layer call: `before(args)` returns the
        (possibly changed) arguments and a token that `after(args, token)`
        receives once the call has ended."""
        counters = self.counters
        active = self._active

        def counted(f, own):
            # `own` counts this integral's evaluations only; integrals nested
            # inside f (a Bessel value inside a gamma integrand) count theirs
            def g(x):
                counters["zeta.integrand_evals"] += 1
                own[0] += 1
                return f(x)
            return g

        if name == "zeta.integrate_shell":
            def before(args):
                ctx, f, plan = args
                if active.get("zeta.zeta_function", 0) > 0:
                    counters["zeta.zeta_window_shells"] += 1
                own = [0]
                return (ctx, counted(f, own), plan), own

            def after(args, own):
                ctx, _, plan = args
                counters["zeta.gate_refinements"] += _refinements(
                    own[0], max(1, plan.level), lambda lv: _units(ctx.p, lv))

            return before, after
        if name == "zeta.integrate_ball":
            def before(args):
                ctx, f, m, level = args
                own = [0]
                return (ctx, counted(f, own), m, level), own

            def after(args, own):
                ctx, _, m, level = args
                counters["zeta.gate_refinements"] += _refinements(
                    own[0], max(level, m + 1), lambda lv: ctx.p ** (lv - m))

            return before, after
        if name == "zeta.bessel_table":
            tables = self._tables

            def before(args):
                table, x = args
                tables[id(table)] = table
                if Fraction(x) in table._values:
                    counters["zeta.bessel_table.hits"] += 1
                return args, None

            return before, None
        return None, None

    # -- results -----------------------------------------------------------------

    @staticmethod
    def _lru_totals(mod):
        hits = misses = size = 0
        for value in vars(mod).values():
            # a traced lru_cache function is reached through its wrapper
            while not hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
                ci = value.cache_info()
                hits += ci.hits
                misses += ci.misses
                size += ci.currsize
        return hits, misses, size

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics; shares are fractions of the traced wall time."""
        out = {}
        module_self = {m: 0.0 for m in MODULES}
        for name, *_ in LAYERS:
            calls, self_s, incl_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_share"] = self_s / wall_s
            module_self[name.split(".")[0]] += self_s
        for mod_name, self_s in module_self.items():
            out[f"{mod_name}.self_share"] = self_s / wall_s
        out["repn.act.incl_share"] = self.stats["repn.act"][2] / wall_s
        out["zeta.bessel.incl_share"] = self.group_incl.get("zeta.bessel", 0.0) / wall_s
        out["zeta.integrand_evals"] = self.counters["zeta.integrand_evals"]
        out["zeta.gate_refinements"] = self.counters["zeta.gate_refinements"]
        out["zeta.zeta_window_shells"] = self.counters["zeta.zeta_window_shells"]
        lookups = self.stats["zeta.bessel_table"][0]
        out["zeta.bessel_table.entries"] = sum(len(t._values) for t in self._tables.values())
        out["zeta.bessel_table.hit_ratio"] = (
            self.counters["zeta.bessel_table.hits"] / lookups if lookups else 0.0)
        for mod_name in ("exactnum", "localchar"):
            out[f"{mod_name}.lru_entries"] = self._lru_totals(self._lib[mod_name])[2]
        hilbert = self._lib["localchar"].hilbert_frac
        info = getattr(hilbert, "__wrapped__", hilbert).cache_info()
        lookups = info.hits + info.misses
        out["localchar.hilbert.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def self_seconds(self) -> dict:
        return {name: tuple(self.stats[name]) for name, *_ in LAYERS}

    def missing_calls(self, workload: str) -> list:
        return [name for name in EXPECTED_CALLS[workload] if self.stats[name][0] == 0]

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "dropped": self.dropped_spans}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
