"""The benchmark's tracer rebinds library attributes by name; a refactor
that drops one of them must fail here rather than break a traced run."""

import importlib
import importlib.util
from pathlib import Path

from purefields import oracle, periodicity

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
