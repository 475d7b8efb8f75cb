"""One cold run of a benchmark workload, in a fresh interpreter.

Usage (started by ``run.py`` with the checkout as working directory)::

    python3 perfbench/child.py --workload NAME --input-seed N [--trace] [--setup-only]

Set-up is the import of crorbit plus loading the workload's scenarios.  The
timed region covers only the calls into crorbit's public entry points;
the correctness oracle runs between calls, outside it.  The last line of
standard output is one JSON object with the measurements, the verdicts and
the sha256 of every report's ``comparable_json()``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path.cwd() / "src"  # the checkout's sources, never an installed copy

# Theory, not the code under test: the orbit of the origin is all of the Lewy
# quadric (dim 3), the complex line {Im w = 0} x R in `flat` (dim 2) and a
# 3-dimensional slice of the 4-dimensional `tube3`.
ORBIT_DIM = {"lewy": 3, "flat": 2, "tube3": 3}
MINIMAL = {"lewy": True, "flat": False, "tube3": False}

# every pinned check of `crorbit verify --suite all`, by suite
VERIFY_CHECKS = {
    "connection": (
        "transport-equivalence-expchart", "transport-equivalence-random",
        "connection-axioms", "bracket-exactness-lewy", "commutator-loop",
        "flow-group-law", "flow-drift-retraction", "flow-chart-tangency",
    ),
    "duality": (
        "duality-expchart", "duality-random", "transport-linearity",
        "transport-reversibility", "theta-duality",
    ),
    "hamiltonian": (
        "xhat-hamiltonian-identification", "multiplier-independence",
        "symbol-conservation",
    ),
    "lemma21": ("lemma21-lewy", "lemma21-tube3", "theta-isomorphism"),
    "orbits": (
        "orbit-dimensions-lie-hull", "orbit-dimensions-pushforward",
        "lewy-certificate", "flat-no-certificate", "orbit-invariants",
        "cloud-pca-dimensions",
    ),
}

SCENARIOS = {
    "verify_all": ("lewy", "flat", "tube3", "expchart"),
    "orbit_exhaust": ("flat", "tube3"),
    "orbit_cert": ("lewy",),
}
EXHAUST_BUDGET = 256
CERT_BUDGET = 64
CERT_POINTS = 16  # points per cold run: a few seconds of work
CERT_BOX = 0.5  # x, y, u uniform in [-CERT_BOX, CERT_BOX], v = x^2 + y^2
CERT_OUT = Path(".perfbench_out") / "orbit_cert"


class Verdicts:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _result(report, name):
    return next((r for r in report.results if r.name == name), None)


def judge_verify(report, v: Verdicts) -> None:
    for suite, names in VERIFY_CHECKS.items():
        for name in names:
            r = _result(report, name)
            ok = r is not None and r.passed
            if ok and name.startswith("orbit-dimensions-"):
                ok = all(
                    r.details[sc]["dimension"] == dim for sc, dim in ORBIT_DIM.items()
                )
            v.judge(f"{suite}/{name}", ok)
    v.judge("verify/check-count", len(report.results) == sum(map(len, VERIFY_CHECKS.values())))


def judge_orbit(report, scenario: str, label: str, v: Verdicts, certificate=None) -> None:
    dim = ORBIT_DIM[scenario]
    hull = _result(report, "lie-hull")
    v.judge(
        f"{label}/lie-hull",
        hull is not None and hull.passed and hull.details["dimension"] == dim
        and hull.details["minimal"] == MINIMAL[scenario],
    )
    cert = _result(report, "global-minimality-certificate")
    if MINIMAL[scenario]:
        ok = (
            cert is not None and cert.passed and cert.details["found"]
            and certificate is not None
            and certificate["span_dimension"] == dim
            and certificate["smallest_singular_value"] >= certificate["tau"]
        )
    else:
        ok = (
            cert is not None and cert.passed and not cert.details["found"]
            and cert.details["budget_exhausted"]
            and cert.details["best_span_dimension"] == dim
        )
    v.judge(f"{label}/certificate", ok)
    span = _result(report, "pushforward-span")
    v.judge(
        f"{label}/pushforward-span",
        span is not None and span.passed and span.details["dimension"] == dim,
    )
    cloud = _result(report, "reachable-samples")
    v.judge(
        f"{label}/reachable-drift",
        cloud is not None and cloud.passed and cloud.value <= cloud.bound,
    )


def lewy_points(input_seed: int):
    """Seeded points of the Lewy quadric v = x^2 + y^2, each with a word seed."""
    import numpy as np

    rng = np.random.default_rng(input_seed)
    points = []
    for _ in range(CERT_POINTS):
        x, y, u = (float(c) for c in rng.uniform(-CERT_BOX, CERT_BOX, 3))
        spec = ",".join(repr(c) for c in (x, y, u, x * x + y * y))
        points.append((spec, int(rng.integers(0, 2**31))))
    return points


def workload_calls(workload: str, input_seed: int, scenarios: dict):
    """(label, call, judge) triples; ``call`` runs crorbit, ``judge`` checks it."""
    from crorbit.cli import cmd_orbit, cmd_verify

    if workload == "verify_all":
        return [("verify", lambda: cmd_verify("all", input_seed), judge_verify)]
    if workload == "orbit_exhaust":
        return [
            (
                name,
                lambda sc=scenarios[name]: cmd_orbit(sc, "origin", EXHAUST_BUDGET, input_seed),
                lambda rep, v, name=name: judge_orbit(rep, name, name, v),
            )
            for name in ("flat", "tube3")
        ]

    def judge_cert(rep, v, label):
        path = CERT_OUT / "certificate.json"
        certificate = json.loads(path.read_text()) if path.exists() else None
        judge_orbit(rep, "lewy", label, v, certificate)
        if path.exists():
            path.unlink()

    return [
        (
            f"lewy[{i}]",
            lambda spec=spec, seed=seed: cmd_orbit(
                scenarios["lewy"], spec, CERT_BUDGET, seed, out_dir=CERT_OUT
            ),
            lambda rep, v, i=i: judge_cert(rep, v, f"lewy[{i}]"),
        )
        for i, (spec, seed) in enumerate(lewy_points(input_seed))
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--input-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import crorbit
    import crorbit.cli  # noqa: F401  (loads verify too, before tracing)

    if not Path(crorbit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"crorbit imported from {crorbit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from crorbit.scenario import load_scenario

    scenarios = {name: load_scenario(name) for name in SCENARIOS[args.workload]}
    setup_s = time.perf_counter() - T_START
    import numpy

    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not args.setup_only:
        out.update(run_workload(args.workload, args.input_seed, scenarios, tracer))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


def run_workload(workload: str, input_seed: int, scenarios: dict, tracer) -> dict:
    calls = workload_calls(workload, input_seed, scenarios)
    verdicts = Verdicts()
    digests, call_wall = [], []
    wall = cpu = 0.0
    if tracer is not None:
        tracer.start_workload()
    try:
        for label, call, judge in calls:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                report = call()
            except Exception as exc:  # a crash is a wrong verdict, not the end
                traceback.print_exc()
                verdicts.judge(f"{label}/raised {type(exc).__name__}", False)
                continue
            finally:
                call_wall.append([label, time.perf_counter() - w0])
                wall += call_wall[-1][1]
                cpu += time.process_time() - c0
            judge(report, verdicts)
            digests.append(
                [label, hashlib.sha256(report.comparable_json().encode()).hexdigest()]
            )
    finally:
        shutil.rmtree(CERT_OUT.parent, ignore_errors=True)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": verdicts.attempted,
        "failures": verdicts.failures,
        "digests": digests,
        "call_wall_s": call_wall,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["counts"] = tracer.counts_snapshot()
    return out


if __name__ == "__main__":
    sys.exit(main())
