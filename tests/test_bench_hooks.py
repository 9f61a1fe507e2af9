"""The benchmark's tracer rebinds library attributes by name; a refactor
that drops one of them must fail here rather than break a traced run."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from purefields import newton, oracle, periodicity, purebasis
from purefields.exactmath import QPolynomial
from purefields.purebasis import BasisElement, IntegralBasis, PureField

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    originals = {
        (module, attribute): getattr(
            importlib.import_module(f"purefields.{module}"), attribute
        )
        for module, attribute, _ in tracing.WRAPPED
    }
    tracer = tracing.Tracer()
    try:
        tracer.install("purefields")
    finally:
        tracer.restore()
    for (module, attribute), original in originals.items():
        assert getattr(importlib.import_module(f"purefields.{module}"), attribute) is original


def test_hooked_entry_points_exist():
    assert callable(oracle.certify)
    assert callable(oracle.p_maximality_enum)
    assert callable(periodicity._square_free_witnesses)


def test_every_reported_layer_records_a_span():
    # a refactor that stops calling a wrapped name would turn its layer
    # metric into a quiet zero; exactmath.det (det_rational) is only
    # bound for the tracer and is never called
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install("purefields")
    try:
        field = PureField.create(12, 17)
        power_order = IntegralBasis(
            field, tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(12))
        )
        # a^6/2 has integer traces but is not integral, and its square
        # 17/4 leaves the lattice
        not_closed = IntegralBasis(
            field,
            tuple(BasisElement(QPolynomial.x_power(j), 1 + (j == 6)) for j in range(12)),
        )
        for basis in (power_order, not_closed):
            oracle.certify(basis)
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    reported = {
        name
        for _, _, name in tracing.WRAPPED
        if name.startswith(("oracle.", "exactmath."))
    }
    assert reported - recorded == {"exactmath.det"}


def test_construction_layers_record_spans():
    # integral_basis reaches compose_bases and index_report through the
    # module attributes the tracer rebinds, so purebasis.build_s and
    # purebasis.ledger_s cannot quietly read zero
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install("purefields")
    try:
        purebasis.integral_basis(PureField.create(30, 7), enum_budget=5 ** 30)
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    assert {"purebasis.build", "purebasis.ledger"} <= recorded


def test_newton_layers_record_spans():
    # index_lower_bound reaches the factorization, the development and the
    # polygon through the module attributes the tracer rebinds, so
    # newton.factor_s, newton.development_s and newton.polygon_s cannot
    # quietly read zero
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install("purefields")
    try:
        newton.index_lower_bound(QPolynomial([-28] + [0] * 8 + [1]), 3)
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    assert {"newton.factor", "newton.development", "newton.polygon"} <= recorded


class NoClock:
    """Stands in for the host-speed clock, whose samples take real time."""

    def sample_if_due(self):
        pass


@pytest.mark.parametrize("name", ["large-field", "atlas", "refute", "ledger"])
def test_workload_verdicts_hold(name):
    # the benchmark checks every verdict against an independent answer; run
    # one seed-1 cycle here so that a wrong verdict fails Tier-1, not only
    # a bench run
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS[name](random.Random(f"{name}/1"))
    workload.install(load_tracing().NullTracer(), NoClock())
    total = 0
    try:
        for item in workload.cycle():
            _, result = workload.run(item)
            verdicts, failures = workload.check(item, result)
            assert failures == []
            total += verdicts
    finally:
        workload.restore()
    assert total > 0


def test_refute_integrality_goes_through_charpoly():
    # refute's integrality calls must keep reaching charpoly on the matrix
    # the tracer counts, so a faster charpoly shows in exactmath.charpoly_s
    # rather than a route round it emptying the layer
    workload = load_perfbench("workloads").WORKLOADS["refute"](random.Random("refute/1"))
    tracer = load_tracing().Tracer()
    workload.install(tracer, NoClock())
    tracer.install("purefields")
    try:
        for item in workload.cycle():
            _, result = workload.run(item)
            assert workload.check(item, result)[1] == []
    finally:
        tracer.restore()
        workload.restore()
    metrics = tracer.layer_metrics()
    assert metrics["exactmath.charpoly.dim_sum"][0] > 0
    assert 0 < metrics["oracle.integrality.charpoly_ratio"][0] <= 1
