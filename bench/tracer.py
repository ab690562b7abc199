"""Per-layer spans for the campaign benchmark, installed from outside ``src``.

The package imports functions by name (``from .matrices import inverse``),
so a function is wrapped on every starinv module that binds it, not only
where it is defined; methods are wrapped on their class.  Each wrapped
call records a span (name, start, end, parent) in flat arrays, kept in
memory and written out once, at the end of a run.  Calls, inclusive time
and self time (duration minus the time of child spans) are summed as
spans close, and survive ``clear_spans``.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.clear_spans()
        self._open: list[int] = []  # indices of open spans, innermost last
        self._child_time: list[float] = []  # time of closed children, per open span
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # work counters fed by hooks
        self.distinct: defaultdict = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    def clear_spans(self) -> None:
        """Drop recorded spans (not the sums); call only while no span is open."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, fn, name, hook=None):
        """A traced stand-in for fn.

        ``name`` is a span name or a function of the call's arguments;
        ``hook(tracer, name, args, result)`` adds work counters.
        """
        tracer = self
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if fixed else name(args)
            opened = tracer._open
            index = len(tracer.span_start)
            tracer.span_name.append(tracer._name_id(span))
            tracer.span_parent.append(opened[-1] if opened else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            opened.append(index)
            tracer._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened.pop()
                child = tracer._child_time.pop()
                duration = end - start
                if tracer._child_time:
                    tracer._child_time[-1] += duration
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                tracer.calls[span] += 1
                tracer.total[span] += duration
                tracer.self_time[span] += duration - child
            if hook is not None:
                hook(tracer, span, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def trace_function(self, fn, name, hook=None) -> int:
        """Wrap fn on every loaded starinv module binding it; return the count."""
        traced = self.wrap(fn, name, hook)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != "starinv" and not module_name.startswith("starinv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)
                    bound += 1
        return bound

    def trace_method(self, cls, attr: str, name, hook=None) -> None:
        self._patch(cls, attr, self.wrap(vars(cls)[attr], name, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path: Path) -> None:
        """Write every span as a tab-separated line: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                out.write(f"{i}\t{names[n]}\t{s!r}\t{e!r}\t{p}\n")


def count_distinct(tracer: Tracer, span: str, args, result) -> None:
    """Engine hook: remember the element asked about (args[0] is the engine)."""
    tracer.distinct[span].add(args[1])


def count_scalar_mults(tracer: Tracer, span: str, args, result) -> None:
    a, b = args
    tracer.counts[span + ".scalar_mults"] += a.rows * a.cols * b.cols


def count_projection_scan(tracer: Tracer, span: str, args, result) -> None:
    n, field = args
    tracer.counts[span + ".scanned"] += field.size ** (n * n)
    tracer.counts[span + ".found"] += len(result)


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer boundaries; return the targets that were not found."""
    import starinv
    from starinv import algebra, campaign, cli, generators, matrices, ring

    functions = [
        (cli, "main", "cli.main", None),
        (campaign, "run_campaign", "campaign.run_campaign", None),
        (campaign, "run_battery", lambda args: "campaign.battery." + args[0], None),
        (generators, "trial_pair", "generators.trial_pair", None),
        (generators, "all_projections_matrix", "generators.all_projections", count_projection_scan),
        (ring, "verify_mp", "ring.verify_mp", None),
        (ring, "is_projection", "ring.is_projection", None),
        (matrices, "rref", "matrices.rref", None),
        (matrices, "inverse", "matrices.inverse", None),
        (matrices, "mp_inverse", "matrices.mp_inverse", None),
        (matrices, "drazin_inverse", "matrices.drazin_inverse", None),
        (algebra, "brute_force_mp", "algebra.brute_force_mp", None),
        (algebra, "brute_force_drazin", "algebra.brute_force_drazin", None),
        (algebra, "enumerate_projections", "algebra.enumerate_projections", None),
    ]
    methods = [
        ("ExactMatrix", "__mul__", "matrices.matmul", count_scalar_mults),
        ("MatrixInverseEngine", "mp", "matrices.engine_mp", count_distinct),
        ("MatrixInverseEngine", "drazin", "matrices.engine_drazin", count_distinct),
        ("ExhaustiveEngine", "mp", "algebra.engine_mp", count_distinct),
        ("ExhaustiveEngine", "drazin", "algebra.engine_drazin", count_distinct),
        ("ProjectionPairContext", "__init__", "ring.context", None),
        ("CampaignReport", "to_json", "campaign.report", None),
    ]
    missing = []
    for module, attr, name, hook in functions:
        fn = getattr(module, attr, None)
        if fn is None or tracer.trace_function(fn, name, hook) == 0:
            missing.append(f"{module.__name__}.{attr}")
    for cls_name, attr, name, hook in methods:
        cls = getattr(starinv, cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"starinv.{cls_name}.{attr}")
        else:
            tracer.trace_method(cls, attr, name, hook)
    return missing
