"""The traced benchmark run (``bench/spans.py``) patches package names by string.

Renaming or removing one of its entry points, or changing a method's kind,
makes the traced run crash at install time; these tests catch that first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves(spans):
    for modname, attr, _ in spans.ENTRY_POINTS:
        mod = importlib.import_module(f"ganduality.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(mod, attr)), f"{modname}.{attr}"


def test_method_kinds(spans):
    from ganduality.distributions import FiniteDistribution

    attrs = {attr for _, attr, _ in spans.ENTRY_POINTS}
    assert {"FiniteDistribution.from_weighted_points", "FiniteDistribution.weights_on"} <= attrs
    assert isinstance(vars(FiniteDistribution)["from_weighted_points"], classmethod)
    assert inspect.isfunction(vars(FiniteDistribution)["weights_on"])


def test_counted_and_patched_names_exist():
    import scipy.optimize

    from ganduality import distributions, duality, transport

    assert callable(distributions.find_atom)
    assert duality.linprog is scipy.optimize.linprog
    # transport binds linprog at import, so the traced run's patch of
    # scipy.optimize.linprog (billed to the hybrid layer) does not reach it
    assert transport.linprog is scipy.optimize.linprog


def test_instrumentation_installs_and_uninstalls(spans):
    from ganduality import distributions, transport

    before = (transport.transport_simplex, distributions.find_atom,
              vars(distributions.FiniteDistribution)["weights_on"])
    inst = spans.Instrumentation(spans.Tracer())
    inst.install()
    try:
        assert transport.transport_simplex is not before[0]
    finally:
        inst.uninstall()
    assert (transport.transport_simplex, distributions.find_atom,
            vars(distributions.FiniteDistribution)["weights_on"]) == before
