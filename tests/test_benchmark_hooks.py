"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracer.py`` rebinds crorbit's public functions from outside the
package; a deletion or rename there would only surface when a traced
benchmark run fails at install.  These checks make it a test failure.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    targets = [target for layer in tracer.LAYERS.values() for target in layer]
    assert ("crorbit.linalg", "SubspaceBasis.from_spanning") in targets
    for module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)


def test_integrator_entry_point_exists():
    flow_module = importlib.import_module("crorbit.flow")
    assert callable(flow_module._integrate)


def test_integrator_takes_rhs_first():
    """The tracer wraps ``_integrate`` as ``wrapped(rhs, *args, **kwargs)``."""
    flow_module = importlib.import_module("crorbit.flow")
    first = next(iter(inspect.signature(flow_module._integrate).parameters.values()))
    assert first.name == "rhs"
    assert first.kind in (first.POSITIONAL_ONLY, first.POSITIONAL_OR_KEYWORD)


def test_flow_result_fields_the_tracer_reads():
    """``_on_flow`` counts ``trajectory`` points and ``_on_composed`` reads ``drift_exceeded``."""
    import dataclasses

    from crorbit.flow import FlowResult

    names = {f.name for f in dataclasses.fields(FlowResult)}
    assert {"trajectory", "drift_exceeded"} <= names


def test_benchmark_calls_bind(tmp_path):
    """The calls ``perfbench/child.py`` makes into the CLI layer still bind."""
    from crorbit.cli import cmd_orbit, cmd_verify

    orbit = inspect.signature(cmd_orbit)
    orbit.bind("scenario", "origin", 256, 0)
    orbit.bind("scenario", "0.1,0.2,0.3,0.05", 64, 7, out_dir=tmp_path)
    inspect.signature(cmd_verify).bind("all", 0)


def test_verify_suites_match_tracer(tracer):
    from crorbit.verify import SUITES

    assert len(tracer.SUITES) == 5
    assert set(tracer.SUITES) == set(SUITES)
