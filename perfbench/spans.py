"""Spans around the calls into each innerorbit module, installed from outside.

``engine`` and ``cli`` import their callees by name, so the module
attributes they look up at call time are replaced; methods the whole
library shares (sequence indexing, automorphism transforms, tree
evaluation, report rendering) are replaced on their classes. Tree
evaluation recurses through the nodes, so only the outermost call opens a
span. Nothing under ``src/`` changes, and ``Tracer.uninstall`` restores
every replaced attribute.

Spans stay in memory, each with its parent and op id, and are written out
when the benchmark ends. A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("sid", "parent", "op", "name", "amount", "start", "end", "raised")

    def __init__(self, sid, parent, op, name, amount):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.amount = amount
        self.start = self.end = 0.0
        self.raised = False


def _blaschke_leaves(node, holo) -> int:
    if isinstance(node, holo.BlaschkeFactor):
        return 1
    if isinstance(node, holo.Product):
        return sum(_blaschke_leaves(c, holo) for c in node.children)
    if isinstance(node, holo.Power):
        return _blaschke_leaves(node.child, holo)
    if isinstance(node, holo.Composed):
        return _blaschke_leaves(node.outer, holo)
    return 0


def _sweep_length(args, kwargs) -> int:
    """Orbit indices one verify_orbit(x, seq, targets, probe, horizon,
    indices) call scans."""
    indices = args[5] if len(args) > 5 else kwargs.get("indices")
    if indices:
        return len(indices)
    seq, horizon = args[1], args[4]
    return horizon if seq.length is None else min(horizon, seq.length)


class Tracer:
    """Records spans for the op whose id is ``op``; records nothing while
    ``op`` is None, so output checks between ops stay untraced."""

    def __init__(self, cli, engine, automorphisms, holo):
        self.modules = (cli, engine, automorphisms, holo)
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> n
        self.op = None
        self._stack: list = []
        self._in_eval = False
        self._leaves: dict = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, amount=0):
        if self.op is None:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self.op, name, amount)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        if self.op is not None:
            self.counts[self.op][name] += n

    def begin_op(self, op):
        self.op = op
        self._leaves.clear()

    def end_op(self):
        self.op = None

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _span(self, owner, attr, name, amount=None):
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                n = amount(args, kwargs) if amount and tracer.op is not None else 0
                return tracer.call(name, fn, args, kwargs, n)
            return traced

        self._replace(owner, attr, wrapper)

    def _counter(self, owner, attr, name):
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)
            return counted

        self._replace(owner, attr, wrapper)

    def install(self):
        cli, engine, automorphisms, holo = self.modules

        def points(args, kwargs):  # transform(self, pts)
            return args[1].shape[0]

        span = self._span
        span(engine, "choose_stage_index", "engine.index_search")
        span(engine, "stage_condition_values", "engine.admissibility_probe")
        span(engine, "build_factor", "engine.build_factor")
        span(engine, "select_subsequence", "automorphisms.select_subsequence")
        span(engine, "pullback", "holo.pullback")
        span(engine, "taylor_coeffs", "holo.taylor_coeffs")
        span(engine, "schur_project_adaptive", "inner_tools.schur_project")
        span(engine, "make_generating_element", "inner_tools.generating_element")
        span(engine, "probe_sup", "geometry.probe_sup")
        span(cli, "verify_orbit", "engine.verify_orbit", _sweep_length)
        span(cli, "good_inner_trend", "inner_tools.good_inner")
        span(cli, "radial_modulus_report", "inner_tools.radial_report")
        span(cli, "parse_function_dsl", "dsl.parse")
        span(cli, "serialize_function", "dsl.serialize")
        span(cli, "load_config", "cli.load_config")
        span(cli, "write_csv", "cli.write_csv")
        span(cli.Report, "render", "cli.render")
        span(automorphisms.GeneratedSequence, "at", "automorphisms.sequence_at")
        span(automorphisms.PolydiskAutomorphism, "transform",
             "automorphisms.transform", points)
        self._counter(engine, "auto_inverse", "automorphisms.auto_inverse")
        self._counter(holo, "mobius_compose", "automorphisms.mobius_compose")
        self._counter(automorphisms, "mobius_compose", "automorphisms.mobius_compose")

        tracer = self

        def run_wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                run = tracer.call("engine.run", fn, args, kwargs)
                tracer.count("engine.stages_completed", len(run.stages))
                return run
            return traced

        self._replace(cli, "run_universality", run_wrapper)

        def eval_wrapper(fn):
            @functools.wraps(fn)
            def traced(node, pts):
                if tracer.op is None or tracer._in_eval:
                    return fn(node, pts)
                tracer._in_eval = True
                try:
                    tracer.count("holo.factor_evals", pts.shape[0] * tracer._leaf_count(node))
                    return tracer.call("holo.eval", fn, (node, pts), {}, pts.shape[0])
                finally:
                    tracer._in_eval = False
            return traced

        for cls in (holo.Constant, holo.Coordinate, holo.BlaschkeFactor,
                    holo.Product, holo.Power, holo.Composed):
            self._replace(cls, "_eval", eval_wrapper)

    def _leaf_count(self, node) -> int:
        # keyed by id, holding the node so the id cannot be reused this op
        hit = self._leaves.get(id(node))
        if hit is None:
            hit = self._leaves[id(node)] = (node, _blaschke_leaves(node, self.modules[3]))
        return hit[1]

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def per_op(self) -> dict:
        """op -> name -> {s, self_s, calls, amount, raised} plus the counts."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        ops: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for s in self.spans:
            agg = ops[s.op][s.name]
            agg["s"] += s.end - s.start
            agg["self_s"] += s.end - s.start - child_time[s.sid]
            agg["calls"] += 1
            agg["amount"] += s.amount
            agg["raised"] += s.raised
        for op, counts in self.counts.items():
            for name, n in counts.items():
                ops[op][name]["calls"] += n
        return ops

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start, "end": s.end, "amount": s.amount,
                    "raised": s.raised,
                }) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: dict) -> dict:
    """Per-layer metrics as name -> (value, unit), read from the per-op
    aggregates of ``Tracer.per_op``: medians over traced ops, except the
    ratios, which are taken over all traced ops."""
    rows = list(ops.values())

    def med(name, field):
        return _median([op[name][field] if name in op else 0.0 for op in rows])

    def total(name, field):
        return sum(op[name][field] for op in rows if name in op)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "engine.index_search.s": (med("engine.index_search", "s"), "s"),
        "engine.index_search.self_s": (med("engine.index_search", "self_s"), "s"),
        "engine.index_search.calls": (med("engine.index_search", "calls"), "count"),
        "engine.admissibility_probes": (
            med("engine.admissibility_probe", "calls"), "count"),
        "engine.probes_per_stage": (ratio(
            total("engine.admissibility_probe", "calls"),
            total("engine.stages_completed", "calls")), "probes/stage"),
        "engine.build_factor.s": (med("engine.build_factor", "s"), "s"),
        "engine.build_factor.attempts": (med("engine.build_factor", "calls"), "count"),
        "engine.escalations": (med("engine.build_factor", "raised"), "count"),
        "engine.stages_completed": (med("engine.stages_completed", "calls"), "count"),
        "engine.verify_orbit.s_per_index": (ratio(
            total("engine.verify_orbit", "s"),
            total("engine.verify_orbit", "amount")), "s/index"),
        "engine.verify_orbit.self_s": (med("engine.verify_orbit", "self_s"), "s"),
        "automorphisms.sequence_at.calls": (
            med("automorphisms.sequence_at", "calls"), "count"),
        "automorphisms.sequence_at.s": (med("automorphisms.sequence_at", "s"), "s"),
        "automorphisms.transform.calls": (
            med("automorphisms.transform", "calls"), "count"),
        "automorphisms.transform.points": (
            med("automorphisms.transform", "amount"), "count"),
        "automorphisms.transform.s": (med("automorphisms.transform", "s"), "s"),
        "automorphisms.select_subsequence.s": (
            med("automorphisms.select_subsequence", "s"), "s"),
        "automorphisms.auto_inverse.calls": (
            med("automorphisms.auto_inverse", "calls"), "count"),
        "automorphisms.mobius_compose.calls": (
            med("automorphisms.mobius_compose", "calls"), "count"),
        "holo.eval.calls": (med("holo.eval", "calls"), "count"),
        "holo.eval.points": (med("holo.eval", "amount"), "count"),
        "holo.eval.s": (med("holo.eval", "s"), "s"),
        "holo.eval.self_s": (med("holo.eval", "self_s"), "s"),
        "holo.factor_evals": (med("holo.factor_evals", "calls"), "count"),
        "holo.pullback.s": (med("holo.pullback", "s"), "s"),
        "holo.taylor_coeffs.s": (med("holo.taylor_coeffs", "s"), "s"),
        "inner_tools.schur_project.s": (med("inner_tools.schur_project", "s"), "s"),
        "inner_tools.generating_element.s": (
            med("inner_tools.generating_element", "s"), "s"),
        "inner_tools.generating_element.calls": (
            med("inner_tools.generating_element", "calls"), "count"),
        "inner_tools.good_inner.s": (med("inner_tools.good_inner", "s"), "s"),
        "inner_tools.good_inner.self_s": (med("inner_tools.good_inner", "self_s"), "s"),
        "inner_tools.radial_report.s": (med("inner_tools.radial_report", "s"), "s"),
        "inner_tools.radial_report.self_s": (
            med("inner_tools.radial_report", "self_s"), "s"),
        "geometry.probe_sup.s": (med("geometry.probe_sup", "s"), "s"),
        "geometry.probe_sup.calls": (med("geometry.probe_sup", "calls"), "count"),
        "dsl.parse.s": (med("dsl.parse", "s"), "s"),
        "dsl.serialize.s": (med("dsl.serialize", "s"), "s"),
        "cli.load_config.s": (med("cli.load_config", "s"), "s"),
        "cli.render.s": (med("cli.render", "s"), "s"),
        "cli.write_csv.s": (med("cli.write_csv", "s"), "s"),
        "cli.run.s": (med("cli.run", "s"), "s"),
        "cli.run.self_s": (med("cli.run", "self_s"), "s"),
    }
