"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracer.py`` rebinds crorbit's public functions from outside the
package; a deletion or rename there would only surface when a traced
benchmark run fails at install.  These checks make it a test failure.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as a module, read from the checkout without importing perfbench."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


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


def test_traced_verify_counts_in_the_tracing_process():
    """With the tracer installed, ``cmd_verify``'s checks run where it counts them.

    The tracer replaces the ``SUITES`` entries, so ``run_checks`` runs every
    suite through them in this process instead of in forked workers, whose
    calls the tracer would never see.  Installing it rebinds crorbit's
    functions for good, so it runs in a fresh interpreter.
    """
    script = (
        "import json, sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import crorbit.cli\n"
        "from tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        "report = crorbit.cli.cmd_verify('hamiltonian', 0)\n"
        "print(json.dumps([sorted(t.suite_s), t.calls['expr.compile'], report.timings]))\n"
    )
    src = PERFBENCH.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", script, str(src), str(PERFBENCH)],
        capture_output=True, text=True, check=True,
    )
    suites, compiles, timings = json.loads(out.stdout)
    assert suites == ["hamiltonian"]
    assert compiles > 0
    assert timings == {"workers": 1}


def test_orbit_reports_pass_the_benchmark_verdicts(tmp_path):
    """``judge_orbit`` of ``perfbench/child.py`` on the orbit workloads' reports.

    The orbit workloads judge ``cmd_orbit`` detail keys; a renamed or dropped
    key would otherwise show only as a lower benchmark ``pass_frac``.
    Certificates are written under ``tmp_path``, not the child's ``CERT_OUT``.
    """
    from crorbit.cli import cmd_orbit
    from crorbit.scenario import builtin_scenario

    child = _load("child")
    verdicts = child.Verdicts()
    for name in ("flat", "tube3"):
        report = cmd_orbit(builtin_scenario(name), "origin", child.EXHAUST_BUDGET, 0)
        child.judge_orbit(report, name, name, verdicts)
    for i, (spec, seed) in enumerate(child.lewy_points(0)[:3]):
        out = tmp_path / f"lewy{i}"
        report = cmd_orbit(builtin_scenario("lewy"), spec, child.CERT_BUDGET, seed, out_dir=out)
        path = out / "certificate.json"
        certificate = json.loads(path.read_text()) if path.exists() else None
        child.judge_orbit(report, "lewy", f"lewy[{i}]", verdicts, certificate)
    assert verdicts.attempted == 20
    assert verdicts.failures == []
