"""Per-layer spans and counters, recorded from outside the realcurve package.

The package's modules import each other's functions by name (`blowup` binds
its own `saturate`, `zerodim` its own `quotient`, ...), so wrapping only the
defining module would miss most calls.  `Tracer.install` replaces the function
object at every binding site in every loaded `realcurve` module and
`Tracer.uninstall` puts the originals back.

Each call becomes a span (name, start, end, parent, case).  A span's self time
is its duration minus the durations of the wrapped calls nested directly
inside it, so the self times of one case's spans add up to its root span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

# module.function names, as the benchmark's per-layer metrics spell them
WRAPPED = (
    "decide.classify_point",
    "fourbar.analyze_fourbar",
    "parsing.parse_ideal",
    "report.build_report",
    "report.machine_format",
    "blowup.resolve_curve",
    "blowup.blowup_origin",
    "blowup.fiber_summary",
    "singular.radicality_certificate",
    "singular.singular_locus_ideal",
    "singular.minors_ideal",
    "singular.is_smooth_at",
    "ideals.saturate",
    "ideals.quotient",
    "ideals.intersect",
    "ideals.eliminate",
    "ideals.krull_dimension",
    "ideals.is_unit_ideal",
    "zerodim.build",
    "zerodim.count_points",
    "zerodim.nonreduced_locus",
    "zerodim.zerodim_radical",
    "zerodim.rational_points",
    "zerodim.rational_roots",
    "groebner.buchberger",
    "groebner.normal_form",
    "linalg.symmetric_signature",
    "polynomials.ring_map",
    "polynomials.squarefree_part",
)

COUNTERS = (
    "groebner.buchberger.distinct_inputs",
    "groebner.buchberger.repeat_share",
    "groebner.buchberger.basis_len_max",
    "groebner.buchberger.coeff_bits_max",
    "singular.minors_ideal.generators",
    "ideals.saturate.iterations",
    "blowup.depth_max",
    "blowup.leaf_charts",
    "zerodim.build.algebra_dim_max",
)


def _coeff_bits(basis) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for g in basis
            for c in g.terms.values()
        ),
        default=0,
    )


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.case = -1
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._gb_inputs: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> int:
        """Wrap every binding of the listed functions; returns the binding count."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "realcurve" or name.startswith("realcurve."))
        }
        wrappers = {}
        for qual in WRAPPED:
            mod_name, fn_name = qual.split(".")
            original = getattr(modules["realcurve." + mod_name], fn_name)
            wrappers[id(original)] = (original, self._wrap(qual, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin_case(self, case: int) -> None:
        self.case = case
        self._stack.clear()
        self._gb_inputs = set()

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        observe = getattr(self, "_observe_" + qual.replace(".", "_"), None)
        clock, stack, spans, active = time.perf_counter, self._stack, self.spans, self._active

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, qual, 0.0, 0.0]
            stack.append(frame)
            active[qual] += 1
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[qual] -= 1
                duration = end - start
                self.calls[qual] += 1
                self.self_s[qual] += duration - frame[3]
                if not active[qual]:
                    self.total_s[qual] += duration  # outermost call only
                if stack:
                    stack[-1][3] += duration
                spans.append((span_id, qual, start, end, parent, self.case))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counters, read off arguments and results --------------------------------

    def _observe_groebner_buchberger(self, args, kwargs, result) -> None:
        order = args[1] if len(args) > 1 else kwargs.get("order")
        key = (tuple(args[0]), str(order))
        if key not in self._gb_inputs:
            self._gb_inputs.add(key)
            self.counts["groebner.buchberger.distinct_inputs"] += 1
        c = self.counts
        c["groebner.buchberger.basis_len_max"] = max(
            c["groebner.buchberger.basis_len_max"], len(result.basis)
        )
        c["groebner.buchberger.coeff_bits_max"] = max(
            c["groebner.buchberger.coeff_bits_max"], _coeff_bits(result.basis)
        )

    def _observe_singular_minors_ideal(self, args, kwargs, result) -> None:
        self.counts["singular.minors_ideal.generators"] += len(result.generators)

    def _observe_ideals_saturate(self, args, kwargs, result) -> None:
        self.counts["ideals.saturate.iterations"] += result.iterations

    def _observe_blowup_resolve_curve(self, args, kwargs, result) -> None:
        c = self.counts
        c["blowup.depth_max"] = max(c["blowup.depth_max"], result.depth)
        c["blowup.leaf_charts"] += len(result.charts)

    def _observe_zerodim_build(self, args, kwargs, result) -> None:
        c = self.counts
        c["zerodim.build.algebra_dim_max"] = max(
            c["zerodim.build.algebra_dim_max"], result.dimension
        )

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric: calls, total_s and self_s per function, then counters."""
        out: dict[str, float] = {}
        for qual in WRAPPED:
            out[qual + ".calls"] = self.calls[qual]
            out[qual + ".total_s"] = self.total_s[qual]
            out[qual + ".self_s"] = self.self_s[qual]
        calls = self.calls["groebner.buchberger"]
        distinct = self.counts["groebner.buchberger.distinct_inputs"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["groebner.buchberger.repeat_share"] = 1 - distinct / calls if calls else 0.0
        return out

    def self_time_residuals(self, roots: tuple[str, ...]) -> list[float]:
        """Per root span: |sum of self times in its subtree - its duration|."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        residuals = []
        for span in self.spans:
            if span[1] not in roots or span[4] != -1:
                continue
            self_sum, todo = 0.0, [span]
            while todo:
                s = todo.pop()
                kids = children.get(s[0], ())
                self_sum += (s[3] - s[2]) - sum(k[3] - k[2] for k in kids)
                todo.extend(kids)
            residuals.append(abs(self_sum - (span[3] - span[2])))
        return residuals

    def write_spans(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,case\n")
            for span_id, name, start, end, parent, case in sorted(self.spans):
                fh.write(f"{span_id},{name},{start - t0:.9f},{end - t0:.9f},{parent},{case}\n")
