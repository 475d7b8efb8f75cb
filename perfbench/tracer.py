"""Per-layer tracing of crorbit, installed from outside the package.

The tracer wraps the public functions of each crorbit module and rebinds
every name that refers to them in every loaded ``crorbit.*`` module, so
calls between modules, recursive calls through the module namespace and
calls made through the package root all pass through the wrapper.  Nothing
inside the package is edited.

Each wrapped call is a span.  A layer's self time is the sum of its span
durations minus the part covered by child spans.  A call that enters a
layer from inside the same layer (recursion, ``load_scenario`` calling
``builtin_scenario``) opens no new span, so ``calls`` counts entries into
the layer.  Evaluators returned by the code generator are wrapped as leaf
spans of ``expr.eval``; ``flow._integrate`` is wrapped for counting only
(integrations and right-hand-side evaluations, attributed to the layer
that started the integration), so its arithmetic stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from crorbit.flow import FlowError

# layer -> (module, public function) pairs whose calls are spans of the layer
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "expr.compile": (
        ("crorbit.expr", "compile_values"),
        ("crorbit.expr", "compile_values_and_jacobian"),
    ),
    "expr.differentiate": (("crorbit.expr", "differentiate"),),
    "expr.parse": (("crorbit.expr", "parse_expr"),),
    "vectorfield.bracket": (
        ("crorbit.vectorfield", "lie_bracket"),
        ("crorbit.vectorfield", "lie_bracket_field"),
    ),
    "flow.flow": (("crorbit.flow", "flow"),),
    "flow.composed": (("crorbit.flow", "composed_flow"),),
    "flow.retract": (("crorbit.flow", "retract"),),
    "connection.transport": (
        ("crorbit.connection", "horizontal_transport"),
        ("crorbit.connection", "dual_transport"),
        ("crorbit.connection", "flow_transport"),
        ("crorbit.connection", "curve_transport"),
    ),
    "connection.checks": (
        ("crorbit.connection", "validate_chart"),
        ("crorbit.connection", "covariant_derivative"),
        ("crorbit.connection", "covariant_derivative_via_bracket"),
        ("crorbit.connection", "xhat_field"),
        ("crorbit.connection", "hamiltonian_restriction_check"),
        ("crorbit.connection", "connection_axioms_check"),
    ),
    "crmanifold.spaces": (
        ("crorbit.crmanifold", "genericity_check"),
        ("crorbit.crmanifold", "tangent_space"),
        ("crorbit.crmanifold", "complex_tangent_space"),
        ("crorbit.crmanifold", "cr_frame"),
        ("crorbit.crmanifold", "conormal_fiber"),
        ("crorbit.crmanifold", "e_fiber"),
    ),
    "crmanifold.checks": (
        ("crorbit.crmanifold", "lemma21_check"),
        ("crorbit.crmanifold", "theta_isomorphism_check"),
        ("crorbit.crmanifold", "validate_adapted_chart"),
    ),
    "crmanifold.theta": (
        ("crorbit.crmanifold", "theta_transport"),
        ("crorbit.crmanifold", "theta_star_transport"),
    ),
    "linalg": (
        ("crorbit.linalg", "rank"),
        ("crorbit.linalg", "nullspace"),
        ("crorbit.linalg", "orthonormal_columns"),
        ("crorbit.linalg", "SubspaceBasis.from_spanning"),
    ),
    "orbit.certificate": (("crorbit.orbit", "global_minimality_certificate"),),
    "orbit.pushforward": (("crorbit.orbit", "pushforward_span"),),
    "orbit.reachable": (("crorbit.orbit", "reachable_samples"),),
    "orbit.lie_hull": (("crorbit.orbit", "lie_hull"),),
    "orbit.verify_certificate": (("crorbit.orbit", "verify_certificate"),),
    "scenario.load": (
        ("crorbit.scenario", "load_scenario"),
        ("crorbit.scenario", "builtin_scenario"),
    ),
}

EVAL = "expr.eval"
SUITES = ("connection", "duality", "hamiltonian", "lemma21", "orbits")

# which integrations count where: the layer on top of the stack when
# ``_integrate`` starts
_INTEGRATION_OWNERS = {"flow.flow": "flow", "connection.transport": "connection"}


class Tracer:
    """Span stack plus per-layer aggregates (calls and self time) and counts."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, time covered by child spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.function_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.suite_s: dict[str, float] = {}
        self._self_before = 0.0

    # -- wrappers -------------------------------------------------------

    def span(self, layer: str, name: str, fn, on_result=None, on_error=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[layer] += 1
                self.function_calls[name] += 1
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                result = on_result(result)
            return result

        return wrapped

    def leaf(self, fn):
        """Wrap a generated evaluator: a leaf span of ``expr.eval``."""
        stack = self.stack
        calls, self_s, counts = self.calls, self.self_s, self.counts

        @functools.wraps(fn)
        def evaluator(x):
            t0 = perf_counter()
            result = fn(x)
            dt = perf_counter() - t0
            calls[EVAL] += 1
            self_s[EVAL] += dt
            if stack:
                stack[-1][1] += dt
                counts[f"eval_in.{stack[-1][0]}"] += 1
            else:
                counts["eval_in.untraced"] += 1
            return result

        return evaluator

    def integrate(self, fn):
        """Count integrations and RHS evaluations; opens no span."""
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapped(rhs, *args, **kwargs):
            owner = _INTEGRATION_OWNERS.get(stack[-1][0] if stack else None, "other")
            counts[f"{owner}.integrations"] += 1
            key = f"{owner}.rhs_evals"

            def counted_rhs(t, y):
                counts[key] += 1
                return rhs(t, y)

            return fn(counted_rhs, *args, **kwargs)

        return wrapped

    def suite(self, name: str, fn):
        """Inclusive wall time of one verification suite."""

        @functools.wraps(fn)
        def wrapped(seed):
            t0 = perf_counter()
            try:
                return fn(seed)
            finally:
                self.suite_s[name] = self.suite_s.get(name, 0.0) + perf_counter() - t0

        return wrapped

    # -- hooks ------------------------------------------------------------

    def _on_flow(self, result):
        self.counts["flow.steps_accepted"] += len(result.trajectory) - 1
        return result

    def _on_composed(self, result):
        self.counts["flow.composed_failures"] += int(result.drift_exceeded)
        return result

    def _on_composed_error(self, exc):
        if isinstance(exc, FlowError):
            self.counts["flow.composed_failures"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind it across all crorbit modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "crorbit" or n.startswith("crorbit."))
        ]
        hooks = {
            "expr.compile": (self.leaf, None),
            "flow.flow": (self._on_flow, None),
            "flow.composed": (self._on_composed, self._on_composed_error),
        }
        for layer, targets in LAYERS.items():
            on_result, on_error = hooks.get(layer, (None, None))
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = getattr(cls, meth)
                    setattr(cls, meth, staticmethod(
                        self.span(layer, attr, original, on_result, on_error)
                    ))
                    continue
                original = getattr(module, attr)
                wrapped = self.span(layer, attr, original, on_result, on_error)
                _rebind(modules, original, wrapped)
        flow_module = sys.modules["crorbit.flow"]
        _rebind(modules, flow_module._integrate, self.integrate(flow_module._integrate))
        suites = sys.modules["crorbit.verify"].SUITES
        for name in list(suites):
            suites[name] = self.suite(name, suites[name])

    # -- summary ----------------------------------------------------------

    def start_workload(self) -> None:
        """Mark the start of the timed calls (self time before it is set-up)."""
        self._self_before = sum(self.self_s.values())

    def counts_snapshot(self) -> dict:
        """Every count (no times): equal across runs of the same input."""
        out = {f"{layer}.calls": self.calls[layer] for layer in [*LAYERS, EVAL]}
        out.update({f"fn.{k}": v for k, v in sorted(self.function_calls.items())})
        out.update(sorted(self.counts.items()))
        return out

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced run whose workload took ``wall_s``."""
        c, s = self.calls, self.self_s
        counts = self.counts
        out: dict[str, float] = {}
        for layer in [*LAYERS, EVAL]:
            out[f"{layer}.calls"] = c[layer]
            out[f"{layer}.self_s"] = s[layer]
        out["expr.eval_per_compile"] = c[EVAL] / max(c["expr.compile"], 1)
        out["flow.steps_accepted"] = counts["flow.steps_accepted"]
        out["flow.rhs_evals"] = counts["flow.rhs_evals"]
        out["flow.evals_per_step"] = counts["flow.rhs_evals"] / max(
            counts["flow.steps_accepted"], 1
        )
        out["flow.fail_frac"] = counts["flow.composed_failures"] / max(
            c["flow.composed"], 1
        )
        out["connection.integrations"] = counts["connection.integrations"]
        out["connection.rhs_evals"] = counts["connection.rhs_evals"]
        out["integrate.calls"] = sum(
            v for k, v in counts.items() if k.endswith(".integrations")
        )
        out["integrate.rhs_evals"] = sum(
            v for k, v in counts.items() if k.endswith(".rhs_evals")
        )
        for name in SUITES:
            out[f"verify.suite.{name}_s"] = self.suite_s.get(name, 0.0)
        # time in the timed calls that no traced layer covers (cli, report,
        # the verify suites' own loops)
        out["other.self_s"] = wall_s - (sum(s.values()) - self._self_before)
        return out


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)
