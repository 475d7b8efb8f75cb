"""Named verification suites over the built-in scenarios and random corpora.

Every check compares a measured residual against a pinned bound and is
reproducible from its seed.  The suites back both the ``verify`` CLI
command and the acceptance test module; sizes and tolerances are module
constants, not call-site choices.  One table, ``CHECKS``, lists each
suite's checks in report order, and :func:`run_checks` runs them on every
usable CPU.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .connection import (
    ChartSetup,
    connection_axioms_check,
    dual_transport,
    flow_transport,
    hamiltonian_restriction_check,
    horizontal_transport,
    restricted_hamiltonian,
    xhat_field,
)
from .crmanifold import (
    THETA_SV_MIN,
    AdaptedChart,
    EmbeddedManifold,
    ManifoldError,
    e_fiber,
    lemma21_residuals,
    pair_e_estar,
    tangent_space,
    theta_isomorphism_check,
    theta_star_transport,
    theta_transport,
)
from .expr import ScalarExpr, add, const, mul, parse_expr, var
from .flow import FlowError, FlowWord, IntegratorConfig, _integrate, composed_flow, flow
from .orbit import (
    TAU_CERT,
    global_minimality_certificate,
    lie_hull,
    pushforward_span,
    random_words,
    reachable_samples,
    span_words,
    verify_certificate,
)
from .report import CheckResult
from .scenario import builtin_scenario
from .vectorfield import CotangentPoint, VectorFieldSpec, hamiltonian_field, lie_bracket, symbol

__all__ = ["CHECKS", "SUITES", "run_checks", "transport_corpus", "random_chart"]

# corpus and sample sizes (pinned)
N_RANDOM_CHARTS = 200
N_AXIOM_INSTANCES = 500
N_HAMILTONIAN_SAMPLES = 1000
N_HAMILTONIAN_CHARTS = 10
N_LEMMA_PAIRS = 1000
N_BRACKET_POINTS = 100
N_CLOUD_WORDS = 80
N_CERT_BUDGET = 64

# bounds (pinned)
TOL_TRANSPORT_EXPCHART = 1e-8
TOL_TRANSPORT_RANDOM = 1e-7
TOL_DUALITY = 1e-8
TOL_LINEARITY = 1e-9
TOL_REVERSIBILITY = 1e-8
TOL_HAMILTONIAN = 1e-12
TOL_MULTIPLIER = 1e-10
TOL_SYMBOL_DRIFT = 1e-8
TOL_LEMMA21 = 1e-12
TOL_AXIOMS = 1e-10
TOL_GROUP_LAW = 1e-8
TOL_COCYCLE = 1e-7
TOL_DRIFT = 1e-9
TOL_CHART_TANGENCY = 1e-9
TOL_BRACKET = 1e-12
TOL_COMMUTATOR_LOOP = 2e-3
TOL_ORBIT_INVARIANT = 1e-9
PCA_SIGNIFICANCE = 1e-6


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------

def _random_poly(
    rng: np.random.Generator,
    dim: int,
    max_extra_degree: int,
    n_terms: int,
    scale: float,
    forced_factor_range: tuple[int, int] | None = None,
) -> ScalarExpr:
    """Sparse random polynomial; optionally force a factor from an index range."""
    e = const(0.0)
    for _ in range(n_terms):
        term: ScalarExpr = const(float(rng.uniform(-scale, scale)))
        for _ in range(int(rng.integers(0, max_extra_degree + 1))):
            term = mul(term, var(int(rng.integers(0, dim))))
        if forced_factor_range is not None:
            lo, hi = forced_factor_range
            term = mul(term, var(int(rng.integers(lo, hi))))
        e = add(e, term)
    return e


def random_chart(rng: np.random.Generator, l: int, m: int) -> ChartSetup:
    """Random polynomial chart: coefficients of the normal block vanish on x'' = 0."""
    dim = l + m
    coeffs = []
    for j in range(dim):
        if j < l:
            coeffs.append(_random_poly(rng, dim, 3, 3, 0.25))
        else:
            coeffs.append(_random_poly(rng, dim, 2, 3, 0.25, (l, dim)))
    return ChartSetup(l, m, (VectorFieldSpec(tuple(coeffs), dim),))


@dataclass
class TransportCase:
    chart: ChartSetup
    x0: np.ndarray
    eta0: np.ndarray
    xi0: np.ndarray
    t_equiv: float
    t_dual: float

    @property
    def field(self) -> VectorFieldSpec:
        return self.chart.frame[0]


def transport_corpus(seed: int, count: int = N_RANDOM_CHARTS) -> tuple[TransportCase, ...]:
    """The first ``count`` cases of the seed's one corpus of random polynomial charts.

    Cases are drawn from the seed's generator as far as they are asked for
    and cached, so a prefix is the same chart objects, with the same
    compiled fields, as the longer corpus.
    """
    rng, cases = _corpus(seed)
    while len(cases) < count:
        l = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        chart = random_chart(rng, l, m)
        x0 = rng.uniform(-0.2, 0.2, l)
        eta0 = rng.uniform(-1.0, 1.0, m)
        norm = float(np.linalg.norm(eta0))
        if norm > 1.0:
            eta0 /= norm
        xi0 = rng.uniform(-1.0, 1.0, m)
        cases.append(
            TransportCase(
                chart,
                x0,
                eta0,
                xi0,
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(-2.0, 2.0)),
            )
        )
    return tuple(cases[:count])


@lru_cache(maxsize=8)
def _corpus(seed: int) -> tuple[np.random.Generator, list[TransportCase]]:
    """A seed's generator and the cases drawn from it so far."""
    return np.random.default_rng(seed), []


def _expchart() -> tuple[ChartSetup, VectorFieldSpec]:
    sc = builtin_scenario("expchart")
    chart = sc.model_chart
    return chart, chart.frame[0]


def _canonical_trio():
    """(manifold, frame, origin, integrator, name) of lewy, flat and tube3."""
    scs = [builtin_scenario(n) for n in ("lewy", "flat", "tube3")]
    return [
        (sc.manifold, sc.default_frame(), sc.points["origin"], sc.integrator, sc.name)
        for sc in scs
    ]


def _uniform_draws(rng: np.random.Generator, count: int, *parts) -> list[np.ndarray]:
    """``count`` samples of one ``rng.uniform(low, high, size)`` per part: arrays (count, size).

    One ``rng.random`` call draws the same bits: uniform is low + (high - low) * random().
    """
    sizes = [size for _, _, size in parts]
    u = np.split(rng.random((count, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    return [low + (high - low) * col for (low, high, _), col in zip(parts, u)]


def _quadric_points(name: str, rng: np.random.Generator, count: int, *parts) -> list:
    """``count`` points of the builtin quadric ``name``, free coordinates in U[-0.7, 0.7],
    each drawn before its own ``parts`` (see :func:`_uniform_draws`)."""
    free, *rest = _uniform_draws(rng, count, (-0.7, 0.7, 4 if name == "tube3" else 3), *parts)
    x, y, u, *u2 = free.T
    if name == "tube3":
        return [np.column_stack((x, y, u, x * x + y * y, u2[0], np.zeros(count))), *rest]
    return [np.column_stack((x, y, u, x * x + y * y if name == "lewy" else np.zeros(count))), *rest]


def _lewy_intrinsic_frame() -> list[VectorFieldSpec]:
    return [
        VectorFieldSpec.parse(["1", "0", "2*x2"], 3),
        VectorFieldSpec.parse(["0", "1", "-2*x1"], 3),
    ]


# ---------------------------------------------------------------------------
# connection suite
# ---------------------------------------------------------------------------

def _check_transport_expchart() -> CheckResult:
    chart, _ = _expchart()
    h = horizontal_transport(chart, FlowWord.of((1, 1.0)), [0.0], [1.0])
    f = flow_transport(chart, FlowWord.of((1, 1.0)), [0.0], [1.0])
    worst = max(abs(h.eta[0] - math.e), abs(f.eta[0] - math.e))
    return CheckResult(
        "transport-equivalence-expchart",
        value=worst,
        bound=TOL_TRANSPORT_EXPCHART,
        details={"horizontal": h.eta[0], "flow": f.eta[0], "expected": math.e},
    )


def _check_transport_random(seed: int) -> CheckResult:
    worst, worst_idx = 0.0, -1
    for idx, case in enumerate(transport_corpus(seed)):
        word = FlowWord.of((1, case.t_equiv))
        h = horizontal_transport(case.chart, word, case.x0, case.eta0)
        f = flow_transport(case.chart, word, case.x0, case.eta0)
        dev = float(np.max(np.abs(h.eta - f.eta)))
        rel = dev / max(1.0, float(np.max(np.abs(h.eta))))
        if rel > worst:
            worst, worst_idx = rel, idx
    return CheckResult(
        "transport-equivalence-random",
        value=worst,
        bound=TOL_TRANSPORT_RANDOM,
        details={"charts": N_RANDOM_CHARTS, "worst_case": worst_idx},
    )


def _check_axioms(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst, worst_axiom = 0.0, None
    instances = 0
    while instances < N_AXIOM_INSTANCES:
        l = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        chart = random_chart(rng, l, m)
        for _ in range(4):
            if instances >= N_AXIOM_INSTANCES:
                break
            eta = [_random_poly(rng, l, 2, 2, 1.0) for _ in range(m)]
            phi = _random_poly(rng, l + m, 2, 3, 1.0)
            samples = [rng.uniform(-0.4, 0.4, l)]
            rep = connection_axioms_check(chart, chart.frame[0], eta, phi, samples)
            resid = max(
                rep.max_scaling_residual, rep.max_leibniz_residual, rep.max_lifting_residual
            )
            if resid > worst:
                worst, worst_axiom = resid, rep.worst_axiom
            instances += 1
    return CheckResult(
        "connection-axioms",
        value=worst,
        bound=TOL_AXIOMS,
        details={"instances": instances, "worst_axiom": worst_axiom},
    )


def _check_bracket_exactness(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    x1, x2 = _lewy_intrinsic_frame()
    expected = np.array([0.0, 0.0, -4.0])
    worst = 0.0
    for _ in range(N_BRACKET_POINTS):
        pt = rng.uniform(-2.0, 2.0, 3)
        worst = max(worst, float(np.max(np.abs(lie_bracket(x1, x2, pt) - expected))))
    return CheckResult(
        "bracket-exactness-lewy",
        value=worst,
        bound=TOL_BRACKET,
        details={"points": N_BRACKET_POINTS},
    )


def _check_commutator_loop() -> CheckResult:
    frame = _lewy_intrinsic_frame()
    s = t = 0.1
    word = FlowWord.of((1, s), (2, t), (1, -s), (2, -t))
    res = composed_flow(frame, word, [0.0, 0.0, 0.0])
    expected = np.array([0.0, 0.0, -4 * s * t])
    dev = float(np.max(np.abs(res.endpoint - expected)))
    return CheckResult(
        "commutator-loop",
        value=dev,
        bound=TOL_COMMUTATOR_LOOP,
        details={"endpoint": res.endpoint, "expected": expected},
    )


def _check_flow_group_law(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    chart, x_exp = _expchart()
    fields = [x_exp] + [transport_corpus(seed, 3)[i].field for i in range(3)]
    worst_group = worst_cocycle = worst_rev = 0.0
    for f in fields:
        x0 = rng.uniform(-0.2, 0.2, f.dim)
        s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        full = flow(f, x0, s + t)
        first = flow(f, x0, s)
        second = flow(f, first.endpoint, t)
        worst_group = max(
            worst_group, float(np.max(np.abs(full.endpoint - second.endpoint)))
        )
        worst_cocycle = max(
            worst_cocycle,
            float(
                np.max(np.abs(full.differential - second.differential @ first.differential))
            ),
        )
        back = flow(f, first.endpoint, -s)
        worst_rev = max(worst_rev, float(np.max(np.abs(back.endpoint - x0))))
    # report the gate nearest its bound (a failing gate first), so the check
    # fails exactly when some gate misses its bound
    value, bound = max(
        ((worst_group, TOL_GROUP_LAW), (worst_cocycle, TOL_COCYCLE),
         (worst_rev, TOL_REVERSIBILITY)),
        key=lambda gate: (gate[0] > gate[1], gate[0] / gate[1]),
    )
    return CheckResult(
        "flow-group-law",
        value=value,
        bound=bound,
        details={
            "group_law": worst_group,
            "cocycle": worst_cocycle,
            "cocycle_bound": TOL_COCYCLE,
            "reversibility": worst_rev,
        },
    )


def _check_manifold_drift(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for manifold, frame, origin, cfg, _name in _canonical_trio():
        for f in frame:
            t = float(rng.uniform(-1.0, 1.0))
            res = flow(f, origin, t, cfg, manifold=manifold)
            worst = max(worst, res.drift)
    return CheckResult("flow-drift-retraction", value=worst, bound=TOL_DRIFT)


def _check_chart_tangency(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    chart, x_exp = _expchart()
    cases = [(chart, x_exp, np.zeros(1))]
    for case in transport_corpus(seed, 5):
        cases.append((case.chart, case.field, case.x0))
    worst = 0.0
    for c, f, x0 in cases:
        start = np.concatenate((x0, np.zeros(c.m)))
        res = flow(f, start, float(rng.uniform(-1.0, 1.0)))
        for _t, pt in res.trajectory:
            worst = max(worst, float(np.max(np.abs(pt[c.l:]), initial=0.0)))
    return CheckResult("flow-chart-tangency", value=worst, bound=TOL_CHART_TANGENCY)


# ---------------------------------------------------------------------------
# duality suite
# ---------------------------------------------------------------------------

def _check_duality_expchart() -> CheckResult:
    chart, _ = _expchart()
    worst = 0.0
    for t in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        h = horizontal_transport(chart, FlowWord.of((1, t)), [0.0], [1.0])
        d = dual_transport(chart, FlowWord.of((1, t)), [0.0], [1.0])
        worst = max(worst, abs(float(h.eta @ d.xi) - 1.0))
    return CheckResult("duality-expchart", value=worst, bound=TOL_DUALITY)


def _check_duality_random(seed: int) -> CheckResult:
    worst, worst_idx = 0.0, -1
    for idx, case in enumerate(transport_corpus(seed)):
        word = FlowWord.of((1, case.t_dual))
        h = horizontal_transport(case.chart, word, case.x0, case.eta0)
        d = dual_transport(case.chart, word, case.x0, case.xi0)
        drift = abs(float(h.eta @ d.xi) - float(case.eta0 @ case.xi0))
        if drift > worst:
            worst, worst_idx = drift, idx
    return CheckResult(
        "duality-random",
        value=worst,
        bound=TOL_DUALITY,
        details={"charts": N_RANDOM_CHARTS, "worst_case": worst_idx},
    )


def _check_linearity(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in transport_corpus(seed, 25):
        zeta0 = rng.uniform(-1.0, 1.0, case.chart.m)
        alpha, beta = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        mixed = alpha * case.eta0 + beta * zeta0
        word = FlowWord.of((1, case.t_equiv))
        ha = horizontal_transport(case.chart, word, case.x0, case.eta0)
        hb = horizontal_transport(case.chart, word, case.x0, zeta0)
        hm = horizontal_transport(case.chart, word, case.x0, mixed)
        worst = max(
            worst, float(np.max(np.abs(hm.eta - alpha * ha.eta - beta * hb.eta)))
        )
    return CheckResult("transport-linearity", value=worst, bound=TOL_LINEARITY)


def _check_transport_reversibility(seed: int) -> CheckResult:
    worst = 0.0
    for case in transport_corpus(seed, 25):
        word = FlowWord.of((1, case.t_equiv))
        out = horizontal_transport(case.chart, word, case.x0, case.eta0)
        back = horizontal_transport(case.chart, word.inverse(), out.base, out.eta)
        worst = max(
            worst,
            float(np.max(np.abs(back.eta - case.eta0))),
            float(np.max(np.abs(back.base - case.x0))),
        )
    return CheckResult("transport-reversibility", value=worst, bound=TOL_REVERSIBILITY)


def _quotient_duality_cases():
    """Adapted-chart fixtures: the flat complex line and a twisted manifold
    containing it, whose quotient-bundle transport has genuine holonomy."""
    flat_chart = AdaptedChart(
        l=2, m=1, psi=tuple(parse_expr(t, 3) for t in ["x1", "x2", "x3", "0"])
    )
    flat_frame = [VectorFieldSpec.parse(t, 3) for t in (["1", "0", "0"], ["0", "1", "0"])]
    twisted = EmbeddedManifold.parse(
        2, ["v - u*(x^2 + y^2)"], ["x", "y", "u", "v"]
    )
    tw_chart = AdaptedChart(
        l=2,
        m=1,
        psi=tuple(parse_expr(t, 3) for t in ["x1", "x2", "x3", "x3*(x1^2 + x2^2)"]),
    )
    r2 = "(x1^2 + x2^2)"
    den = f"(1 + {r2}^2)"
    tw_frame = [
        VectorFieldSpec.parse(["1", "0", f"2*x3*(x2 - {r2}*x1)/{den}"], 3),
        VectorFieldSpec.parse(["0", "1", f"-(2*x3*(x1 + {r2}*x2)/{den})"], 3),
    ]
    return [
        ("flat", builtin_scenario("flat").manifold, flat_chart, flat_frame, np.zeros(2)),
        ("twisted", twisted, tw_chart, tw_frame, np.array([0.0, 1.0])),
    ]


def _check_theta_duality(seed: int) -> CheckResult:
    """Pairings between transported quotient classes and paired forms are conserved."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = {}
    for name, manifold, chart, frame, xp in _quotient_duality_cases():
        fib = e_fiber(manifold, chart, xp)
        eta0 = fib.e_basis.basis[:, 0]
        omega0 = fib.estar_forms[0]
        for word in random_words(rng, 5, 2, 3, 0.6):
            moved_eta = theta_transport(manifold, chart, frame, word, eta0, xp)
            moved_omega = theta_star_transport(manifold, chart, frame, word, omega0, xp)
            drift = abs(
                pair_e_estar(moved_omega.value, moved_eta.value)
                - pair_e_estar(omega0, eta0)
            )
            worst = max(worst, drift)
            details[name] = max(details.get(name, 0.0), drift)
    return CheckResult("theta-duality", value=worst, bound=TOL_DUALITY, details=details)


# ---------------------------------------------------------------------------
# hamiltonian suite
# ---------------------------------------------------------------------------

def _hamiltonian_charts(seed: int, count: int) -> list[tuple[ChartSetup, VectorFieldSpec]]:
    """The expchart field followed by ``count`` random charts drawn from ``seed``."""
    chart, x_exp = _expchart()
    charts = [(chart, x_exp)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        l = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        c = random_chart(rng, l, m)
        charts.append((c, c.frame[0]))
    return charts


def _check_xhat_hamiltonian(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    charts = _hamiltonian_charts(seed + 1, N_HAMILTONIAN_CHARTS)
    worst = 0.0
    for c, f in charts:
        xp, xi = _uniform_draws(rng, N_HAMILTONIAN_SAMPLES, (-0.5, 0.5, c.l), (-1.0, 1.0, c.m))
        restricted, tangency = restricted_hamiltonian(c, f, xp, xi)
        mismatch = np.abs(restricted - xhat_field(c, f, (xp, xi)))
        worst = max(worst, float(np.max(tangency)), float(np.max(mismatch)))
    return CheckResult(
        "xhat-hamiltonian-identification",
        value=worst,
        bound=TOL_HAMILTONIAN,
        details={
            "charts": len(charts),
            "samples_per_chart": N_HAMILTONIAN_SAMPLES,
        },
    )


def _check_multiplier(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c, f in _hamiltonian_charts(seed + 1, 4):
        phi = _random_poly(rng, c.dim, 2, 3, 1.0)
        xp, xi = _uniform_draws(rng, 50, (-0.5, 0.5, c.l), (-1.0, 1.0, c.m))
        rep = hamiltonian_restriction_check(c, f, xp, xi, multiplier=phi)
        worst = max(worst, rep.max_multiplier_mismatch)
    return CheckResult("multiplier-independence", value=worst, bound=TOL_MULTIPLIER)


def _check_symbol_conservation(seed: int) -> CheckResult:
    """The Hamiltonian flow of the symbol conserves the symbol itself."""
    rng = np.random.default_rng(seed)
    fields = [
        VectorFieldSpec.parse(["x2", "-1*x1"], 2),
        VectorFieldSpec.parse(["x1*x2", "1 - x2^2"], 2),
        VectorFieldSpec.parse(["sin(x2)", "cos(x1)"], 2),
    ]
    worst = 0.0
    for f in fields:
        x0 = rng.uniform(-0.5, 0.5, 2)
        xi0 = rng.uniform(-1.0, 1.0, 2)
        sigma0 = symbol(f, CotangentPoint(x0, xi0))
        drift = [0.0]

        def rhs(_t, y, f=f):
            xdot, xidot = hamiltonian_field(f, CotangentPoint(y[:2], y[2:]))
            return np.concatenate((xdot, xidot))

        def watch(_t, y, f=f, sigma0=sigma0, drift=drift):
            drift[0] = max(
                drift[0], abs(symbol(f, CotangentPoint(y[:2], y[2:])) - sigma0)
            )

        _integrate(rhs, 1.0, np.concatenate((x0, xi0)), IntegratorConfig(), on_step=watch)
        worst = max(worst, drift[0])
    return CheckResult("symbol-conservation", value=worst, bound=TOL_SYMBOL_DRIFT)


# ---------------------------------------------------------------------------
# lemma21 suite
# ---------------------------------------------------------------------------

def _lemma_pairs(manifold: EmbeddedManifold, name: str, rng) -> tuple[float, float]:
    """Max residuals of the two identities over random conormal/tangent pairs."""
    parts = (-1.0, 1.0, manifold.d), (-1.0, 1.0, manifold.dim)
    residuals = lemma21_residuals(manifold, *_quadric_points(name, rng, N_LEMMA_PAIRS, *parts))
    worst_c, worst_r = (float(np.max(r, initial=0.0)) for r in residuals)
    return worst_c, worst_r


def _check_lemma21(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for name in ("lewy", "tube3"):
        manifold = builtin_scenario(name).manifold
        worst_c, worst_r = _lemma_pairs(manifold, name, rng)
        out.append(
            CheckResult(
                f"lemma21-{name}",
                value=max(worst_c, worst_r),
                bound=TOL_LEMMA21,
                details={
                    "pairs": N_LEMMA_PAIRS,
                    "complex_identity": worst_c,
                    "real_convention": worst_r,
                },
            )
        )
    return out


def _check_theta_isomorphism(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    smallest = math.inf
    for name in ("lewy", "flat", "tube3"):
        manifold = builtin_scenario(name).manifold
        (points,) = _quadric_points(name, rng, 20)
        smallest = min(smallest, float(np.min(theta_isomorphism_check(manifold, points))))
    return CheckResult(
        "theta-isomorphism", value=smallest, bound=THETA_SV_MIN, comparator=">="
    )


# ---------------------------------------------------------------------------
# orbits suite
# ---------------------------------------------------------------------------

_EXPECTED_ORBIT = {"lewy": (3, True), "flat": (2, False), "tube3": (3, False)}


def _check_orbit_dimensions(seed: int) -> list[CheckResult]:
    out = []
    hull_ok, push_ok = True, True
    hull_detail, push_detail = {}, {}
    for manifold, frame, origin, cfg, name in _canonical_trio():
        expected_dim, expected_minimal = _EXPECTED_ORBIT[name]
        hull = lie_hull(manifold, frame, origin)
        hull_detail[name] = {
            "dimension": hull.dimension,
            "minimal": hull.dimension == manifold.dim,
            "stabilized": hull.stabilized,
        }
        if hull.dimension != expected_dim or (hull.dimension == manifold.dim) != expected_minimal:
            hull_ok = False
        span = pushforward_span(manifold, frame, origin, span_words(len(frame), seed), cfg)
        push_detail[name] = {"dimension": span.dimension}
        if span.dimension != expected_dim:
            push_ok = False
    out.append(
        CheckResult("orbit-dimensions-lie-hull", hull_ok, details=hull_detail)
    )
    out.append(
        CheckResult("orbit-dimensions-pushforward", push_ok, details=push_detail)
    )
    return out


def _check_certificates(seed: int) -> list[CheckResult]:
    out = []
    lewy, flat, _tube3 = _canonical_trio()
    manifold, frame, origin, cfg, _ = lewy
    rep = global_minimality_certificate(manifold, frame, origin, N_CERT_BUDGET, seed, cfg)
    cert = rep.certificate
    if cert is None:
        out.append(CheckResult("lewy-certificate", False, details={"found": False}))
    else:
        ok, sigma = verify_certificate(manifold, frame, origin, cert, cfg)
        out.append(
            CheckResult(
                "lewy-certificate",
                len(cert.words) <= 3 and ok,
                cert.smallest_singular_value,
                TAU_CERT,
                comparator=">=",
                details={
                    "words": len(cert.words),
                    "reverified_sigma": sigma,
                    "certificate": cert.to_dict(),
                },
            )
        )
    manifold, frame, origin, cfg, _ = flat
    repf = global_minimality_certificate(manifold, frame, origin, N_CERT_BUDGET, seed, cfg)
    passed_flat = repf.certificate is None and repf.best_span.dimension == 2
    out.append(
        CheckResult(
            "flat-no-certificate",
            passed_flat,
            details={
                "budget_exhausted": repf.budget_exhausted,
                "best_span_dimension": repf.best_span.dimension,
            },
        )
    )
    return out


def _check_orbit_invariants(seed: int) -> CheckResult:
    worst = 0.0
    details = {}
    _lewy, flat, tube3 = _canonical_trio()
    for (manifold, frame, origin, cfg, name), coords in ((flat, (2,)), (tube3, (4, 5))):
        cloud = reachable_samples(manifold, frame, origin, 40, cfg, seed)
        dev = max(float(abs(p[c] - origin[c])) for p in cloud.points for c in coords)
        details[name] = dev
        worst = max(worst, dev)
    return CheckResult(
        "orbit-invariants",
        value=worst,
        bound=TOL_ORBIT_INVARIANT,
        details=details,
    )


def _check_cloud_pca(seed: int) -> CheckResult:
    """Tangent-projected PCA of reachable clouds has the orbit dimension."""
    ok = True
    details = {}
    for manifold, frame, origin, cfg, name in _canonical_trio():
        expected_dim, _ = _EXPECTED_ORBIT[name]
        cloud = reachable_samples(
            manifold, frame, origin, N_CLOUD_WORDS, cfg, seed,
            word_length_cap=3, time_range=0.1,
        )
        tangent = tangent_space(manifold, origin)
        pts = np.array([tangent.basis.T @ (p - origin) for p in cloud.points])
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        significant = int(np.sum(sv > PCA_SIGNIFICANCE * sv[0]))
        details[name] = {
            "significant": significant,
            "singular_values": sv,
        }
        if significant != expected_dim:
            ok = False
    return CheckResult("cloud-pca-dimensions", ok, details=details)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

# suite -> its checks in report order: the name of each check function in this
# module, and its seed's offset from the run's seed (None: the check takes no seed).
# A job names its check, and the name is looked up where the job runs, so a
# check replaced in this module (as tests do with monkeypatch) runs instead.
CHECKS: dict[str, tuple[tuple[str, int | None], ...]] = {
    "connection": (
        ("_check_transport_expchart", None),
        ("_check_transport_random", 0),
        ("_check_axioms", 1),
        ("_check_bracket_exactness", 2),
        ("_check_commutator_loop", None),
        ("_check_flow_group_law", 3),
        ("_check_manifold_drift", 4),
        ("_check_chart_tangency", 5),
    ),
    "duality": (
        ("_check_duality_expchart", None),
        ("_check_duality_random", 0),
        ("_check_linearity", 1),
        ("_check_transport_reversibility", 2),
        ("_check_theta_duality", 3),
    ),
    "hamiltonian": (
        ("_check_xhat_hamiltonian", 0),
        ("_check_multiplier", 1),
        ("_check_symbol_conservation", 2),
    ),
    "lemma21": (("_check_lemma21", 0), ("_check_theta_isomorphism", 1)),
    "orbits": (
        ("_check_orbit_dimensions", 0),
        ("_check_certificates", 1),
        ("_check_orbit_invariants", 2),
        ("_check_cloud_pca", 3),
    ),
}


def _jobs(name: str, seed: int) -> list[tuple[str, int | None]]:
    """The (check name, seed) jobs of suite ``name`` at ``seed``, in report order."""
    if name not in CHECKS:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(CHECKS)} or 'all'")
    return [(check, None if offset is None else seed + offset) for check, offset in CHECKS[name]]


def _stem(check_name: str) -> str:
    """A check's name in reports: ``_check_linearity`` is ``linearity``."""
    return check_name.removeprefix("_check_").replace("_", "-")


def _run_job(job: tuple[str, int | None]) -> tuple[list[CheckResult], float]:
    """One (check name, seed) job's results and its wall time where it ran.

    The check is the function this module binds to the name when the job
    runs, without a seed when it is None.  A flow or manifold fault (a
    pathological seed can blow up a random-corpus flow) fails only this job,
    as ``<stem>-aborted`` named from the job; the other jobs still run.
    """
    name, seed = job
    check = globals()[name]
    t0 = time.perf_counter()
    try:
        res = check() if seed is None else check(seed)
    except (FlowError, ManifoldError) as exc:
        details = {"error": str(exc), "seed": seed}
        res = CheckResult(f"{_stem(name)}-aborted", False, details=details)
    return (res if isinstance(res, list) else [res]), time.perf_counter() - t0


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_checks(names: Sequence[str], seed: int) -> tuple[list[CheckResult], dict]:
    """The results of the named suites at ``seed`` in report order, and their timings.

    Every check is one job, run by :func:`_run_job`.  The jobs run in one
    process pool of ``min(jobs, usable CPUs)`` workers started by fork, so
    the workers inherit this process's modules as they are, monkeypatched
    checks included.  With one worker, or where the platform cannot fork,
    they run in this process.  Results come back in report order either way,
    so the report is the same bit for bit.  An exception other than
    ``<check>-aborted`` propagates from the first job that raised it, and no
    worker outlives the call.

    The timings hold each check's wall time where it ran, keyed by its name
    in reports (``timings["checks"]``), and the worker count.

    A caller that replaces an entry of :data:`SUITES` observes the suites
    through it (the benchmark's tracer times each suite and counts the calls
    under it), and what it records must land in its own process.  So then
    every named suite runs through its entry, in this process, and the
    timings hold only the worker count.
    """
    jobs = [job for name in names for job in _jobs(name, seed)]
    if SUITES != _STOCK_SUITES:
        return [r for name in names for r in SUITES[name](seed)], {"workers": 1}
    workers = min(len(jobs), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers > 1:  # imported here, so no command pays for them at import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            timed = list(pool.map(_run_job, jobs))
    else:
        timed = [_run_job(job) for job in jobs]
    results = [r for job_results, _ in timed for r in job_results]
    checks = {_stem(name): seconds for (name, _), (_, seconds) in zip(jobs, timed)}
    return results, {"checks": checks, "workers": workers}


# suite -> the callable that runs it in this process: only an observation hook.
# A caller may replace an entry to observe its suite; run_checks then runs the
# suites through SUITES, and reads it for nothing else.
SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    name: lambda seed, name=name: [r for job in _jobs(name, seed) for r in _run_job(job)[0]]
    for name in CHECKS
}
_STOCK_SUITES = dict(SUITES)
