"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; the checks reuse the library's
verification suites so the CLI ``verify`` command exercises the same code.
"""

import json
import math

import numpy as np

from crorbit.cli import cmd_verify, main
from crorbit.connection import (
    dual_transport,
    flow_transport,
    horizontal_transport,
)
from crorbit.flow import FlowWord, composed_flow, flow
from crorbit.orbit import (
    global_minimality_certificate,
    lie_hull,
    pushforward_span,
    random_words,
    verify_certificate,
)
from crorbit.scenario import builtin_scenario
from crorbit.vectorfield import VectorFieldSpec, lie_bracket
from crorbit.verify import (
    N_RANDOM_CHARTS,
    _check_axioms,
    _check_chart_tangency,
    _check_manifold_drift,
    _check_multiplier,
    _check_xhat_hamiltonian,
    _expchart,
    _lemma_pairs,
    transport_corpus,
)

SEED = 2026


def _line(criterion: int, label: str, passed: bool, detail: str = "") -> None:
    flag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} [{flag}] {label}{suffix}")


class TestAcceptance:
    def test_01_transport_equivalence(self):
        chart, _ = _expchart()
        h = horizontal_transport(chart, FlowWord.of((1, 1.0)), [0.0], [1.0])
        f = flow_transport(chart, FlowWord.of((1, 1.0)), [0.0], [1.0])
        exp_ok = abs(h.eta[0] - math.e) <= 1e-8 and abs(f.eta[0] - math.e) <= 1e-8

        worst = 0.0
        for case in transport_corpus(SEED):
            hh = horizontal_transport(
                case.chart, FlowWord.of((1, case.t_equiv)), case.x0, case.eta0
            )
            ff = flow_transport(case.chart, FlowWord.of((1, case.t_equiv)), case.x0, case.eta0)
            dev = float(np.max(np.abs(hh.eta - ff.eta)))
            worst = max(worst, dev / max(1.0, float(np.max(np.abs(hh.eta)))))
        passed = exp_ok and worst <= 1e-7
        _line(
            1,
            "transport equivalence",
            passed,
            f"expchart |eta - e| ok, {N_RANDOM_CHARTS} charts rel dev {worst:.2e} <= 1e-7",
        )
        assert passed

    def test_02_duality_conservation(self):
        worst = 0.0
        for case in transport_corpus(SEED):
            h = horizontal_transport(case.chart, FlowWord.of((1, case.t_dual)), case.x0, case.eta0)
            d = dual_transport(case.chart, FlowWord.of((1, case.t_dual)), case.x0, case.xi0)
            worst = max(worst, abs(float(h.eta @ d.xi) - float(case.eta0 @ case.xi0)))
        passed = worst <= 1e-8
        _line(2, "duality conservation", passed, f"max pairing drift {worst:.2e} <= 1e-8")
        assert passed

    def test_03_hamiltonian_identification(self):
        ident = _check_xhat_hamiltonian(SEED)
        mult = _check_multiplier(SEED + 1)
        passed = ident.passed and mult.passed
        _line(
            3,
            "hamiltonian identification",
            passed,
            f"identification {ident.value:.2e} <= 1e-12, multiplier {mult.value:.2e} <= 1e-10",
        )
        assert passed

    def test_04_lemma21(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for name in ("lewy", "tube3"):
            manifold = builtin_scenario(name).manifold
            wc, wr = _lemma_pairs(manifold, name, rng)
            worst = max(worst, wc, wr)
        passed = worst <= 1e-12
        _line(4, "lemma 2.1 identities", passed, f"1000 pairs each, max residual {worst:.2e}")
        assert passed

    def test_05_orbit_dimensions(self):
        expected = {"lewy": (3, True), "flat": (2, False), "tube3": (3, False)}
        passed = True
        parts = []
        for name, (dim, minimal) in expected.items():
            sc = builtin_scenario(name)
            hull = lie_hull(sc.manifold, sc.frames["cr"], sc.points["origin"])
            rng = np.random.default_rng(SEED)
            words = [FlowWord.empty()] + random_words(
                rng, 8, len(sc.frames["cr"]), 3, 0.4
            )
            span = pushforward_span(
                sc.manifold, sc.frames["cr"], sc.points["origin"], words, sc.integrator
            )
            ok = (
                hull.dimension == dim
                and span.dimension == dim
                and (hull.dimension == sc.manifold.dim) == minimal
            )
            passed &= ok
            parts.append(f"{name}: hull {hull.dimension}, push {span.dimension}")
        _line(5, "orbit dimensions", passed, "; ".join(parts))
        assert passed

    def test_06_bracket_exactness(self):
        rng = np.random.default_rng(SEED)
        x1 = VectorFieldSpec.parse(["1", "0", "2*x2"], 3)
        x2 = VectorFieldSpec.parse(["0", "1", "-2*x1"], 3)
        worst = 0.0
        for _ in range(100):
            pt = rng.uniform(-2, 2, 3)
            worst = max(
                worst,
                float(np.max(np.abs(lie_bracket(x1, x2, pt) - [0.0, 0.0, -4.0]))),
            )
        s = t = 0.1
        loop = composed_flow(
            [x1, x2], FlowWord.of((1, s), (2, t), (1, -s), (2, -t)), np.zeros(3)
        )
        loop_dev = float(np.max(np.abs(loop.endpoint - [0.0, 0.0, -4 * s * t])))
        passed = worst <= 1e-12 and loop_dev <= 2e-3
        _line(
            6,
            "bracket exactness",
            passed,
            f"bracket dev {worst:.2e} <= 1e-12, loop dev {loop_dev:.2e} <= 2e-3",
        )
        assert passed

    def test_07_global_minimality_certificate(self):
        lewy = builtin_scenario("lewy")
        rep = global_minimality_certificate(
            lewy.manifold,
            lewy.frames["cr"],
            lewy.points["origin"],
            64,
            SEED,
            lewy.integrator,
        )
        cert = rep.certificate
        cert_ok = (
            cert is not None
            and len(cert.words) <= 3
            and cert.smallest_singular_value >= 1e-3
        )
        if cert_ok:
            ok, _sigma = verify_certificate(
                lewy.manifold, lewy.frames["cr"], lewy.points["origin"], cert, lewy.integrator
            )
            cert_ok = ok

        flat = builtin_scenario("flat")
        repf = global_minimality_certificate(
            flat.manifold,
            flat.frames["cr"],
            flat.points["origin"],
            64,
            SEED,
            flat.integrator,
        )
        flat_ok = (
            repf.certificate is None
            and repf.budget_exhausted
            and repf.best_span.dimension == 2
        )
        passed = cert_ok and flat_ok
        detail = (
            f"lewy: {len(cert.words) if cert else 0} words, "
            f"sigma {cert.smallest_singular_value if cert else 0:.2e}; "
            f"flat: best span {repf.best_span.dimension}"
        )
        _line(7, "global minimality certificate", passed, detail)
        assert passed

    def test_08_connection_axioms(self):
        res = _check_axioms(SEED + 1)
        _line(
            8,
            "connection axioms",
            res.passed,
            f"{res.details['instances']} instances, max residual {res.value:.2e} <= 1e-10",
        )
        assert res.passed

    def test_09_flow_hygiene(self):
        rng = np.random.default_rng(SEED)
        chart, x_exp = _expchart()
        worst_group = worst_rev = 0.0
        fields = [x_exp] + [c.field for c in transport_corpus(SEED, 5)]
        for f in fields:
            x0 = rng.uniform(-0.2, 0.2, f.dim)
            s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            two_leg = flow(f, flow(f, x0, s).endpoint, t)
            worst_group = max(
                worst_group,
                float(np.max(np.abs(flow(f, x0, s + t).endpoint - two_leg.endpoint))),
            )
            back = flow(f, flow(f, x0, t).endpoint, -t)
            worst_rev = max(worst_rev, float(np.max(np.abs(back.endpoint - x0))))
        drift = _check_manifold_drift(SEED + 4)
        tangency = _check_chart_tangency(SEED + 5)
        passed = (
            worst_group <= 1e-8
            and worst_rev <= 1e-8
            and drift.passed
            and tangency.passed
        )
        _line(
            9,
            "flow hygiene",
            passed,
            f"group {worst_group:.2e}, reverse {worst_rev:.2e}, "
            f"drift {drift.value:.2e} <= 1e-9, |x''| {tangency.value:.2e} <= 1e-9",
        )
        assert passed

    def test_10_determinism_and_exit_codes(self, monkeypatch, tmp_path, capsys):
        a = cmd_verify("all", seed=SEED)
        b = cmd_verify("all", seed=SEED)
        deterministic = a.comparable_json() == b.comparable_json() and a.passed

        with capsys.disabled():
            pass
        code_ok = main(["verify", "--suite", "lemma21", "--seed", str(SEED)]) == 0

        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"name": "broken"}))
        schema_code = main(["analyze", "--scenario", str(bad), "--point", "origin"])

        import crorbit.connection as connection
        import crorbit.verify as verify

        original = connection.xhat_field

        def flipped(c, x_field, p):
            out = original(c, x_field, p)
            out[c.l:] = -out[c.l:]
            return out

        monkeypatch.setattr(verify, "xhat_field", flipped)
        failure_code = main(["verify", "--suite", "hamiltonian", "--seed", str(SEED)])
        monkeypatch.undo()

        capsys.readouterr()  # swallow CLI output from the exit-code probes
        passed = deterministic and code_ok and schema_code == 2 and failure_code == 1
        _line(
            10,
            "determinism and exit codes",
            passed,
            f"reports identical: {deterministic}, exit codes 0/2/1: "
            f"{code_ok}/{schema_code == 2}/{failure_code == 1}",
        )
        assert passed
