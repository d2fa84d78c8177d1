"""Span tracing around the public functions of each sqlab module.

The tracer replaces a function in every loaded ``sqlab`` module namespace
that holds it (``lp_solve`` is bound in both ``sqlab.games`` and
``sqlab.dimension``, so both names must point at the wrapper for the calls
inside ``max_margin`` and inside the hardest-measure LP to be seen). Methods
are replaced on their class. Each span is ``[name, start_ns, end_ns,
parent, note]``; spans stay in memory until :meth:`Tracer.dump`.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

#: Margin slack of ``sqlab.games.STRICT_EPS``: a signed set is achievable
#: when its max-margin value reaches tau + STRICT_EPS.
_STRICT_EPS = 1e-9

_NORMS = ("norms.kbar1", "norms.kbar2", "norms.kbar2_spectral", "norms.rho", "norms.kbarv")
_DIMENSIONS = ("dimension.rsd_decision", "dimension.sd_decision", "dimension.crsd")

#: (metric name, unit) for every per-layer metric, in report order.
PER_LAYER = [
    ("games.lp_solve.calls", "count/op"),
    ("games.lp_solve.self_ms", "ms/op"),
    ("games.max_margin.calls", "count/op"),
    ("games.max_margin.hit_ratio", "ratio"),
    ("games.achievable_subsets.calls", "count/op"),
    ("games.achievable_subsets.self_ms", "ms/op"),
    ("games.zero_sum.ms", "ms/op"),
    ("games.fractional_cover.calls", "count/op"),
    ("dimension.rsd_decision.ms", "ms/op"),
    ("dimension.sd_decision.ms", "ms/op"),
    ("dimension.crsd.ms", "ms/op"),
    ("dimension.family_builds_per_report", "count/op"),
    ("norms.ms", "ms/op"),
    ("oracles.query.calls", "count/op"),
    ("oracles.query.us_mean", "us"),
    ("solvers.cover_step.calls", "count/op"),
    ("solvers.cover_step.self_ms", "ms/op"),
    ("solvers.mw_update.calls", "count/op"),
    ("solvers.mw_update.us_mean", "us"),
    ("streaming.draw_block.calls", "count/op"),
    ("streaming.samples", "count/op"),
    ("streaming.draw_block.ms", "ms/op"),
    ("problems.build_ms", "ms"),
    ("io.dumps_report.ms", "ms/op"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    """Records one span per call of each wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._swaps: list[tuple] | None = None  # (holder, attr, original, wrapper)

    def wrap(self, name, fn, note=None):
        """Return ``fn`` recording a span called ``name`` per call.

        ``note(args, kwargs, result)`` may attach one value to the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Put the wrappers in place (built on first use, once every sqlab
        module the run needs has been imported)."""
        if self._swaps is None:
            self._swaps = self._build()
        for holder, attr, _, wrapper in self._swaps:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for holder, attr, original, _ in self._swaps:
            setattr(holder, attr, original)

    def _build(self) -> list[tuple]:
        """Wrappers for the public functions the per-layer metrics are named
        after, with every place that binds each of them."""
        from sqlab import dimension, games, norms, oracles, problems, solvers, streaming
        from sqlab import io as sqio

        def arg(args, kwargs, pos, key):
            return args[pos] if len(args) > pos else kwargs[key]

        functions = [
            (games, "lp_solve", "games.lp_solve", None),
            (games, "max_margin", "games.max_margin", lambda a, k, r: r.value),
            (games, "achievable_subsets", "games.achievable_subsets",
             lambda a, k, r: arg(a, k, 2, "tau")),
            (games, "zero_sum", "games.zero_sum", None),
            (games, "fractional_cover", "games.fractional_cover", None),
            (dimension, "rsd_decision", "dimension.rsd_decision", None),
            (dimension, "sd_decision", "dimension.sd_decision", None),
            (dimension, "crsd", "dimension.crsd", None),
            (problems, "biclique", "problems.build", None),
            (problems, "line_problem", "problems.build", None),
            (sqio, "dumps_report", "io.dumps_report", None),
            # The streaming solver applies the MW rule through its own copy.
            (streaming, "_mw_apply", "solvers.mw_update", None),
        ]
        functions += [(norms, name.split(".")[1], name, None) for name in _NORMS]
        swaps = []
        for module, attr, name, note in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, note)
            swaps += [(holder, a, original, wrapper) for holder, a in self._bindings(original)]

        methods = [
            (oracles.OracleSession, "query", "oracles.query", None),
            (solvers.MWState, "update", "solvers.mw_update", None),
            (streaming.SampleStream, "draw_block", "streaming.draw_block",
             lambda a, k, r: len(r)),
        ]
        for cls, attr, name, note in methods:
            original = vars(cls)[attr]
            swaps.append((cls, attr, original, self.wrap(name, original, note)))

        # margin_cover builds the cover oracle; each call of that oracle is
        # one cover step.
        factory = solvers.margin_cover

        def traced_margin_cover(*args, **kwargs):
            return self.wrap("solvers.cover_step", factory(*args, **kwargs))

        swaps += [(holder, a, factory, traced_margin_cover) for holder, a in self._bindings(factory)]
        return swaps

    @staticmethod
    def _bindings(original) -> list[tuple]:
        """Every (sqlab module, name) that holds ``original``."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sqlab" or mod_name.startswith("sqlab.")):
                continue
            found += [(module, attr) for attr, value in vars(module).items() if value is original]
        return found

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, note."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over the recorded spans, normalised per operation."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]

        def has_ancestor(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]

        hits = inner_margins = family_builds = 0
        norms_ns = samples = 0
        # A call that raised has no note (and neither has its raising parent).
        for i, (name, start, end, parent, note) in enumerate(spans):
            if (name == "games.max_margin" and note is not None and parent >= 0
                    and spans[parent][0] == "games.achievable_subsets" and spans[parent][4] is not None):
                inner_margins += 1
                hits += note >= spans[parent][4] + _STRICT_EPS
            elif name == "games.achievable_subsets" and has_ancestor(i, _DIMENSIONS):
                family_builds += 1
            elif name in _NORMS and not has_ancestor(i, _NORMS):
                norms_ns += end - start
            elif name == "streaming.draw_block" and note is not None:
                samples += note

        def per_op(value):
            return value / n_ops

        def ms_per_op(ns):
            return ns / 1e6 / n_ops

        def mean_us(name):
            return total.get(name, 0) / 1e3 / calls[name] if calls.get(name) else 0.0

        builds = calls.get("problems.build", 0)
        return {
            "games.lp_solve.calls": per_op(calls.get("games.lp_solve", 0)),
            "games.lp_solve.self_ms": ms_per_op(self_ns.get("games.lp_solve", 0)),
            "games.max_margin.calls": per_op(calls.get("games.max_margin", 0)),
            "games.max_margin.hit_ratio": hits / inner_margins if inner_margins else 0.0,
            "games.achievable_subsets.calls": per_op(calls.get("games.achievable_subsets", 0)),
            "games.achievable_subsets.self_ms": ms_per_op(self_ns.get("games.achievable_subsets", 0)),
            "games.zero_sum.ms": ms_per_op(total.get("games.zero_sum", 0)),
            "games.fractional_cover.calls": per_op(calls.get("games.fractional_cover", 0)),
            "dimension.rsd_decision.ms": ms_per_op(total.get("dimension.rsd_decision", 0)),
            "dimension.sd_decision.ms": ms_per_op(total.get("dimension.sd_decision", 0)),
            "dimension.crsd.ms": ms_per_op(total.get("dimension.crsd", 0)),
            "dimension.family_builds_per_report": per_op(family_builds),
            "norms.ms": ms_per_op(norms_ns),
            "oracles.query.calls": per_op(calls.get("oracles.query", 0)),
            "oracles.query.us_mean": mean_us("oracles.query"),
            "solvers.cover_step.calls": per_op(calls.get("solvers.cover_step", 0)),
            "solvers.cover_step.self_ms": ms_per_op(self_ns.get("solvers.cover_step", 0)),
            "solvers.mw_update.calls": per_op(calls.get("solvers.mw_update", 0)),
            "solvers.mw_update.us_mean": mean_us("solvers.mw_update"),
            "streaming.draw_block.calls": per_op(calls.get("streaming.draw_block", 0)),
            "streaming.samples": per_op(samples),
            "streaming.draw_block.ms": ms_per_op(total.get("streaming.draw_block", 0)),
            "problems.build_ms": total.get("problems.build", 0) / 1e6 / builds if builds else 0.0,
            "io.dumps_report.ms": ms_per_op(total.get("io.dumps_report", 0)),
        }
