"""Scenario-driven command line: analyze, transport, orbit, verify.

Exit codes are a stable contract: 0 success, 1 check failure, 2 input
error (schema violations, unknown points, non-finite coordinates,
non-positive budgets, expression errors, expressions undefined at the
point, unreadable or unwritable paths).  Reports are JSON; trajectories
and point clouds are CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .connection import (
    TANGENCY_TOL,
    ChartValidationError,
    dual_transport,
    flow_transport,
    horizontal_transport,
    validate_chart,
)
from .crmanifold import (
    THETA_SV_MIN,
    ManifoldError,
    complex_tangent_space,
    genericity_check,
    lemma21_residuals,
    tangent_space,
    theta_isomorphism_check,
)
from .expr import ExprError
from .flow import DRIFT_BOUND, FlowError, FlowWord
from .orbit import (
    SPAN_WORDS,
    TAU_CERT,
    cloud_words,
    global_minimality_certificate,
    lie_hull,
    orbit_checks,
    span_words,
)
from .report import CheckResult, Report
from .scenario import Scenario, ScenarioError, _finite_coordinates, load_scenario
from .verify import SUITES, TOL_DUALITY, TOL_LEMMA21, TOL_TRANSPORT_RANDOM, run_suite

__all__ = ["main", "cmd_analyze", "cmd_transport", "cmd_orbit", "cmd_verify"]

_INPUT_ERRORS = (
    ScenarioError,
    ExprError,
    ManifoldError,
    ChartValidationError,
    ValueError,
    OSError,
)


def _parse_vector(text: str, option: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ScenarioError(f"{option} {text!r} must be comma-separated numbers") from None
    return _finite_coordinates(values, f"{option} {text!r}")


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return seed


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV file of ``header`` and ``rows``, whose floats the caller has written with repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_word(text: str) -> FlowWord:
    """A JSON list of [field index, time] steps; a JSON true is not a number here."""
    try:
        steps = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"--word must be JSON like [[1, 0.5], [2, -0.25]]: {exc}") from exc
    if not isinstance(steps, list):
        raise ScenarioError(f"--word {text!r} must be a JSON list of [field index, time] steps")
    if not steps:
        raise ScenarioError("--word [] has no steps: a word takes at least one [field index, time]")
    for k, step in enumerate(steps):
        if not isinstance(step, list) or [type(v) for v in step] not in ([int, int], [int, float]):
            raise ScenarioError(f"--word step {k} {json.dumps(step)} must be [field index, time]")
    try:
        return FlowWord(tuple(map(tuple, steps)))
    except OverflowError as exc:  # an integer time beyond the float range
        raise ScenarioError(f"--word time: {exc}") from None


# ---------------------------------------------------------------------------
# commands (in-process API used by the CLI and the tests)
# ---------------------------------------------------------------------------

def cmd_analyze(scenario: Scenario, point_spec: str, seed: int | None = None) -> Report:
    """Genericity, tangent dimensions, transposedness spot checks, minimality."""
    seed = scenario.seed if seed is None else seed
    report = Report(
        "analyze",
        {"point": point_spec},
        seed,
        scenario_name=scenario.name,
        scenario_digest=scenario.digest,
    )
    pt = scenario.point(point_spec)

    if scenario.kind == "chart":
        chart = scenario.model_chart
        rep = validate_chart(chart, pt)
        report.results.append(
            CheckResult(
                "chart-validation",
                rep.rank_ok,
                rep.max_tangency_violation,
                TANGENCY_TOL,
                details={"rank_ok": rep.rank_ok, "l": chart.l, "m": chart.m},
            )
        )
        return report

    m = scenario.manifold
    gen = genericity_check(m, pt)
    report.results.append(
        CheckResult(
            "genericity",
            gen.generic,
            details={
                "real_rank": gen.real_rank,
                "complex_rank": gen.complex_rank,
                "codimension": m.d,
            },
        )
    )
    if not gen.generic:
        return report

    tm = tangent_space(m, pt)
    tc = complex_tangent_space(m, pt)
    report.results.append(
        CheckResult(
            "tangent-dimensions",
            tm.dim == m.dim and tc.dim == 2 * m.cr_dim,
            details={
                "tangent_dim": tm.dim,
                "complex_tangent_dim": tc.dim,
                "cr_dim": m.cr_dim,
            },
        )
    )

    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(-1.0, 1.0, m.d), rng.uniform(-1.0, 1.0, m.dim)) for _ in range(20)]
    weights, coeffs = (np.array(v) for v in zip(*draws))
    worst = max(0.0, *(float(np.max(r)) for r in lemma21_residuals(m, pt[None], weights, coeffs)))
    report.results.append(CheckResult("lemma21-spot", value=worst, bound=TOL_LEMMA21))
    (sv,) = theta_isomorphism_check(m, pt[None])
    report.results.append(
        CheckResult("theta-isomorphism", value=sv, bound=THETA_SV_MIN, comparator=">=")
    )

    hull = lie_hull(m, scenario.default_frame(), pt)
    report.results.append(
        CheckResult(
            "minimality",
            hull.stabilized,
            details={
                "local_orbit_dimension": hull.dimension,
                "manifold_dimension": m.dim,
                "minimal": hull.dimension == m.dim,
                "depth_reached": hull.depth_reached,
            },
        )
    )
    return report


def cmd_transport(
    scenario: Scenario,
    word: FlowWord = FlowWord.of((1, 1.0)),
    point_spec: str | None = None,
    eta0: np.ndarray | None = None,
    xi0: np.ndarray | None = None,
    out_dir: Path | None = None,
) -> Report:
    """Compare the three transport descriptions along ``word`` on the chart model."""
    if scenario.kind != "chart":
        raise ScenarioError("transport needs a chart-model scenario")
    chart = scenario.model_chart
    x0 = np.zeros(chart.l) if point_spec is None else scenario.point(point_spec)
    eta0 = np.ones(chart.m) if eta0 is None else eta0
    xi0 = np.ones(chart.m) if xi0 is None else xi0
    if eta0.shape != (chart.m,) or xi0.shape != (chart.m,):
        raise ScenarioError(f"eta and xi need {chart.m} components")

    rep = validate_chart(chart, x0)
    if not rep.passed:
        raise ChartValidationError(f"chart failed validation at {x0}: {rep}")

    report = Report(
        "transport",
        {"word": [list(s) for s in word.steps], "eta0": eta0.tolist(), "xi0": xi0.tolist()},
        scenario.seed,
        scenario_name=scenario.name,
        scenario_digest=scenario.digest,
    )

    cfg = scenario.integrator
    eta_path: list = []
    xi_path: list = []
    h = horizontal_transport(chart, word, x0, eta0, cfg, path=eta_path)
    d_xi = dual_transport(chart, word, x0, xi0, cfg, path=xi_path).xi
    fv = flow_transport(chart, word, x0, eta0, cfg)

    deviation = float(np.max(np.abs(h.eta - fv.eta), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(h.eta), initial=0.0)))
    pairing_drift = abs(float(h.eta @ d_xi) - float(eta0 @ xi0))
    report.results.append(
        CheckResult(
            "horizontal-vs-flow",
            value=deviation / scale,
            bound=TOL_TRANSPORT_RANDOM,
            details={
                "horizontal": h.eta.tolist(),
                "flow": fv.eta.tolist(),
                "endpoint": h.base.tolist(),
            },
        )
    )
    report.results.append(
        CheckResult(
            "duality-pairing",
            value=pairing_drift,
            bound=TOL_DUALITY,
            details={"xi": d_xi.tolist(), "initial_pairing": float(eta0 @ xi0)},
        )
    )

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for fname, rows, label in (
            ("transport_eta.csv", eta_path, "eta"),
            ("transport_xi.csv", xi_path, "xi"),
        ):
            header = ["t", *[f"xp{i + 1}" for i in range(chart.l)],
                      *[f"{label}{i + 1}" for i in range(chart.m)]]
            _write_csv(out_dir / fname, header, (
                [repr(float(v)) for v in (tt, *base, *fiber)] for tt, base, fiber in rows
            ))
            report.outputs[fname] = str(out_dir / fname)
    return report


def cmd_orbit(
    scenario: Scenario,
    point_spec: str,
    budget: int = 64,
    seed: int | None = None,
    out_dir: Path | None = None,
) -> Report:
    """Orbit dimension estimates, minimality certificate search, sample cloud."""
    if budget < 1:
        raise ScenarioError(f"--budget must be at least 1, got {budget}")
    if scenario.kind != "embedded":
        raise ScenarioError("orbit analysis needs an embedded-manifold scenario")
    seed = scenario.seed if seed is None else seed
    m = scenario.manifold
    frame = scenario.default_frame()
    cfg = scenario.integrator
    pt = scenario.point(point_spec)
    m.require_on_manifold(pt)

    report = Report(
        "orbit",
        {"point": point_spec, "budget": budget},
        seed,
        scenario_name=scenario.name,
        scenario_digest=scenario.digest,
    )

    hull = lie_hull(m, frame, pt)
    report.results.append(
        CheckResult(
            "lie-hull",
            hull.stabilized,
            details={
                "dimension": hull.dimension,
                "manifold_dimension": m.dim,
                "minimal": hull.dimension == m.dim,
            },
        )
    )

    cert_rep = global_minimality_certificate(m, frame, pt, budget, seed, cfg)
    cert = cert_rep.certificate
    words = span_words(len(frame), seed, min(budget, SPAN_WORDS))
    verdict, span, cloud = orbit_checks(
        m, frame, pt, cfg, cert, words, cloud_words(len(frame), seed, min(budget, 60))
    )
    if cert is not None:
        ok, sigma = verdict
        report.results.append(
            CheckResult(
                "global-minimality-certificate",
                ok,
                cert.smallest_singular_value,
                TAU_CERT,
                comparator=">=",
                details={
                    "found": True,
                    "words": len(cert.words),
                    "reverified_sigma": sigma,
                },
            )
        )
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            cert_path = out_dir / "certificate.json"
            cert_path.write_text(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
            report.outputs["certificate.json"] = str(cert_path)
    else:
        report.results.append(
            CheckResult(
                "global-minimality-certificate",
                True,  # budget exhaustion is reported in-band, not a failure
                details={
                    "found": False,
                    "budget_exhausted": cert_rep.budget_exhausted,
                    "best_span_dimension": cert_rep.best_span.dimension,
                    "note": cert_rep.note,
                },
            )
        )

    report.results.append(
        CheckResult(
            "pushforward-span",
            span.dimension == hull.dimension,
            details={
                "dimension": span.dimension,
                "lie_hull_dimension": hull.dimension,
                "words": len(words),
            },
        )
    )

    max_drift = max(cloud.drifts, default=0.0)
    report.results.append(
        CheckResult(
            "reachable-samples",
            value=max_drift,
            bound=DRIFT_BOUND,
            details={"points": len(cloud.points), "failures": cloud.failures},
        )
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        cloud_path = out_dir / "orbit_cloud.csv"
        header = ["word", *[f"x{i + 1}" for i in range(len(pt))], "drift"]
        _write_csv(cloud_path, header, (
            [i, *[repr(float(v)) for v in (*point, drift)]]
            for i, (point, drift) in enumerate(zip(cloud.points, cloud.drifts))
        ))
        report.outputs["orbit_cloud.csv"] = str(cloud_path)
    return report


def cmd_verify(suite: str = "all", seed: int = 0) -> Report:
    """Run the named verification suite(s); exit 0 iff every check passes."""
    names = sorted(SUITES) if suite == "all" else [suite]
    report = Report("verify", {"suite": suite}, seed)
    for name in names:
        report.results.extend(run_suite(name, seed))
    return report


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crorbit",
        description=(
            "Partial connections, flow transport and CR-orbit minimality "
            "certificates for generic submanifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "--format", choices=("json",), default=None,
            help="print the JSON report instead of the summary lines",
        )

    p = sub.add_parser("analyze", help="genericity, tangent ranks, minimality")
    p.add_argument("--scenario", required=True, help="builtin name or JSON file")
    p.add_argument("--point", required=True, help="point name or comma-separated coords")
    p.add_argument("--seed", type=_seed, default=None)
    common(p)

    p = sub.add_parser("transport", help="compare the three transport descriptions")
    p.add_argument("--scenario", required=True, help="chart-model builtin name or JSON file")
    p.add_argument(
        "--word", default="[[1, 1.0]]",
        help="JSON list of [1-based field index, time] steps (default %(default)s)",
    )
    p.add_argument("--point", default=None, help="base point (x' coordinates)")
    p.add_argument("--eta", default=None, help="comma-separated eta components")
    p.add_argument("--xi", default=None, help="comma-separated xi components")
    common(p)

    p = sub.add_parser("orbit", help="orbit dimensions, certificate search, cloud")
    p.add_argument("--scenario", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=None)
    common(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        default="all",
        help=f"one of {sorted(SUITES)} or 'all'",
    )
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    return parser


def _emit(report: Report, args) -> int:
    if args.out is not None:
        (args.out / "report.json").write_text(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        for r in report.results:
            flag = "PASS" if r.passed else "FAIL"
            if r.value is not None and r.bound is not None:
                print(f"[{flag}] {r.name}: {r.value:.3e} {r.comparator} {r.bound:.1e}")
            else:
                print(f"[{flag}] {r.name}: {json.dumps(r.to_dict()['details'], sort_keys=True)}")
        print(f"{'OK' if report.passed else 'FAILED'} ({len(report.results)} checks)")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.out is not None:  # an unusable --out fails before any work
            args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "analyze":
            scenario = load_scenario(args.scenario)
            report = cmd_analyze(scenario, args.point, args.seed)
        elif args.command == "transport":
            scenario = load_scenario(args.scenario)
            report = cmd_transport(
                scenario,
                _parse_word(args.word),
                point_spec=args.point,
                eta0=None if args.eta is None else _parse_vector(args.eta, "--eta"),
                xi0=None if args.xi is None else _parse_vector(args.xi, "--xi"),
                out_dir=args.out,
            )
        elif args.command == "orbit":
            scenario = load_scenario(args.scenario)
            report = cmd_orbit(
                scenario, args.point, args.budget, args.seed, out_dir=args.out
            )
        elif args.command == "verify":
            report = cmd_verify(args.suite, args.seed)
        else:  # pragma: no cover - argparse enforces the choices
            return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlowError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.timings = {"total_seconds": time.perf_counter() - t0}
    return _emit(report, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
