"""Spans around the calls into each layer of purefields, and their totals.

The traced run rebinds the module attributes that the library's entry
points look up at call time (``oracle.certify`` inside ``integral_basis``,
``oracle.p_maximality_enum`` inside ``certify``, and so on), so every span
is made from this directory and the library itself is left untouched.
Per-element hot calls such as ``oracle.mul`` or ``coordinates_in_basis``
are deliberately not wrapped: a span costs about a microsecond, which
would swamp them.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (None for a root) and ``op`` the id of the operation it
belongs to.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a span
# name: the span name is the layer metric the time is charged to.
WRAPPED = (
    ("purebasis", "prime_power_basis", "purebasis.build"),
    ("purebasis", "compose_bases", "purebasis.build"),
    ("purebasis", "index_report", "purebasis.ledger"),
    ("purebasis", "square_free_check", "exactmath.square_free"),
    ("oracle", "certify", "oracle.certify"),
    ("oracle", "is_algebraic_integer", "oracle.integrality"),
    ("oracle", "_multiplicatively_closed", "oracle.closure"),
    ("oracle", "_discriminant_exact", "oracle.disc"),
    ("oracle", "index_report", "purebasis.ledger"),
    ("oracle", "p_maximality_enum", "oracle.pmax"),
    ("oracle", "_structure_constants", "oracle.structure"),
    ("oracle", "charpoly", "exactmath.charpoly"),
    ("oracle", "det_rational", "exactmath.det"),
    ("oracle", "fp_kernel", "exactmath.fp_kernel"),
    ("oracle", "hnf_rows", "exactmath.hnf"),
    ("periodicity", "integral_basis", "purebasis.build"),
    ("periodicity", "square_free_check", "exactmath.square_free"),
    ("newton", "distinct_irreducible_factors", "newton.factor"),
    ("newton", "phi_development", "newton.development"),
    ("newton", "principal_polygon", "newton.polygon"),
)

_PMAX_OUTCOMES = {
    "Proved": "oracle.pmax.proved",
    "CounterexampleFound": "oracle.pmax.counterexample",
    "Skipped": "oracle.pmax.skipped",
}


def _count_result(counts: Counter, key: str, args: tuple, result) -> None:
    # counts are taken at the layer boundary, so each ratio has the layer's
    # own calls as its base; key is "module.attribute" or a call-site name
    if key == "oracle.p_maximality_enum":
        counts[_PMAX_OUTCOMES[type(result).__name__]] += 1
    elif key == "oracle.fp_kernel":
        counts["exactmath.fp_kernel.rows"] += len(args[0])
    elif key == "oracle.charpoly":
        counts["exactmath.charpoly.dim_sum"] += args[0].rows
    elif key == "periodicity.square_free_check":
        counts["periodicity.witness_checks"] += 1
        counts["periodicity.witness_hits"] += type(result).__name__ == "SquareFree"
    elif key == "newton.index_bound":
        counts["newton.exact"] += bool(result[1])


def span_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call, timed on a function that does nothing.

    Two back-to-back runs differ by more than the whole tracing overhead on
    a busy machine, so trace.overhead_s alone can even come out negative;
    spans times this cost is the steadier estimate of the same quantity.
    """
    tracer = Tracer()

    def nothing():
        return None

    start = perf_counter()
    for _ in range(samples):
        nothing()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        tracer.call("calibration", nothing)
    return max(perf_counter() - start - bare, 0.0) / samples


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    op = None
    recording = True

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def install(self, package: str) -> None:
        pass

    def restore(self) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        return self._span(name, name, fn, args, kwargs)

    def _span(self, name, key, fn, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        span = [name, perf_counter(), None, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        _count_result(self.counts, key, args, result)
        return result

    def install(self, package: str) -> None:
        """Rebind every attribute in WRAPPED; a missing one is an error."""
        for module_name, attribute, name in WRAPPED:
            module = importlib.import_module(f"{package}.{module_name}")
            if not hasattr(module, attribute):
                raise AttributeError(
                    f"{package}.{module_name}.{attribute} no longer exists; "
                    "update perfbench/tracing.py rather than report zeros"
                )
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(
                module,
                attribute,
                self._wrapper(name, f"{module_name}.{attribute}", original),
            )

    def _wrapper(self, name, key, fn):
        def traced(*args, **kwargs):
            return self._span(name, key, fn, args, kwargs)

        return traced

    def restore(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over the whole traced run: (value, unit)."""
        child_time = [0.0] * len(self.spans)
        has_charpoly_child = set()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if name == "exactmath.charpoly":
                    has_charpoly_child.add(parent)
        self_time: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
            inclusive[name] += end - start
            calls[name] += 1
        integrality_to_charpoly = sum(
            1 for i in has_charpoly_child if self.spans[i][0] == "oracle.integrality"
        )

        def ratio(part, whole):
            return part / whole if whole else 0.0

        seconds = {
            "oracle.pmax_s": "oracle.pmax",
            "oracle.structure_s": "oracle.structure",
            "oracle.integrality_s": "oracle.integrality",
            "oracle.closure_s": "oracle.closure",
            "oracle.disc_s": "oracle.disc",
            "oracle.certify_self_s": "oracle.certify",
            "exactmath.fp_kernel_s": "exactmath.fp_kernel",
            "exactmath.hnf_s": "exactmath.hnf",
            "exactmath.charpoly_s": "exactmath.charpoly",
            "exactmath.det_s": "exactmath.det",
            "exactmath.square_free_s": "exactmath.square_free",
            "purebasis.build_s": "purebasis.build",
            "purebasis.ledger_s": "purebasis.ledger",
            "periodicity.atlas_self_s": "periodicity.atlas",
            "newton.index_bound_s": "newton.index_bound",
            "newton.factor_s": "newton.factor",
            "newton.development_s": "newton.development",
            "newton.polygon_s": "newton.polygon",
            "trace.unattributed_s": "op",
        }
        metrics = {metric: (self_time[name], "s") for metric, name in seconds.items()}
        metrics.update(
            {
                "oracle.pmax.calls": (calls["oracle.pmax"], "count"),
                "oracle.pmax.proved": (self.counts["oracle.pmax.proved"], "count"),
                "oracle.pmax.counterexample": (
                    self.counts["oracle.pmax.counterexample"],
                    "count",
                ),
                "oracle.pmax.skipped": (self.counts["oracle.pmax.skipped"], "count"),
                "oracle.pmax.share": (
                    ratio(inclusive["oracle.pmax"], inclusive["oracle.certify"]),
                    "ratio",
                ),
                "oracle.integrality.calls": (calls["oracle.integrality"], "count"),
                "oracle.integrality.charpoly_ratio": (
                    ratio(integrality_to_charpoly, calls["oracle.integrality"]),
                    "ratio",
                ),
                "exactmath.fp_kernel.rows": (
                    self.counts["exactmath.fp_kernel.rows"],
                    "count",
                ),
                "exactmath.charpoly.dim_sum": (
                    self.counts["exactmath.charpoly.dim_sum"],
                    "count",
                ),
                "periodicity.witness_hit_ratio": (
                    ratio(
                        self.counts["periodicity.witness_hits"],
                        self.counts["periodicity.witness_checks"],
                    ),
                    "ratio",
                ),
                "newton.exact_ratio": (
                    ratio(self.counts["newton.exact"], calls["newton.index_bound"]),
                    "ratio",
                ),
                "trace.spans": (len(self.spans), "count"),
            }
        )
        return metrics
