"""Regression witnesses for the sampled paper checks of ``verify``, and its check pool."""

import multiprocessing
import os

import numpy as np
import pytest

from crorbit import verify
from crorbit.cli import cmd_verify
from crorbit.flow import FlowError
from crorbit.report import Report
from crorbit.verify import (
    N_RANDOM_CHARTS, _corpus, _quadric_points, _uniform_draws, run_checks, transport_corpus,
)

# float.hex of each check's value at seed 0, as computed one sample at a time
# before the checks were batched; a batched change that moves a bit fails here
SEED0_VALUES = {
    "xhat-hamiltonian-identification": "0x1.0000000000000p-56",
    "multiplier-independence": "0x1.0000000000000p-54",
    "lemma21-lewy": "0x1.0000000000000p-53",
    "lemma21-tube3": "0x1.0000000000000p-52",
    "theta-isomorphism": "0x1.0000000000000p-1",
}


def test_sampled_check_values_at_seed_0():
    results = {r.name: r.value for r in run_checks(["hamiltonian", "lemma21"], 0)[0]}
    assert {name: float(results[name]).hex() for name in SEED0_VALUES} == SEED0_VALUES


# float.hex of the seed-0 value of checks that walk transport words leg by leg
# and integrate with ``_integrate``
TRANSPORT_SEED0_VALUES = {
    "_check_theta_duality": "0x1.1b0a000000000p-35",
    "_check_transport_expchart": "0x1.f03c000000000p-36",
    "_check_duality_expchart": "0x1.0a35800000000p-35",
}

# check name -> the seed its suite passes it at seed 0 (its offset)
SEED0 = dict(job for jobs in verify.CHECKS.values() for job in jobs)


def test_transport_check_values_at_seed_0():
    values = {}
    for name in TRANSPORT_SEED0_VALUES:
        (result,), _ = verify._run_job((name, SEED0[name]))
        values[name] = float(result.value).hex()
    assert values == TRANSPORT_SEED0_VALUES


def _quadric_point(name, rng):
    """The one-point draw the sampled checks were written with: the reference."""
    if name == "tube3":
        x, y, u1, u2 = rng.uniform(-0.7, 0.7, 4)
        return np.array([x, y, u1, x * x + y * y, u2, 0.0])
    x, y, u = rng.uniform(-0.7, 0.7, 3)
    return np.array([x, y, u, x * x + y * y if name == "lewy" else 0.0])


def test_uniform_draws_are_one_uniform_call_per_part():
    parts = ((-0.7, 0.7, 4), (-1.0, 1.0, 2), (-0.5, 0.5, 3))
    batched = _uniform_draws(np.random.default_rng(7), 300, *parts)
    rng = np.random.default_rng(7)
    loop = [[rng.uniform(low, high, size) for low, high, size in parts] for _ in range(300)]
    for k, block in enumerate(batched):
        assert block.tobytes() == np.array([draws[k] for draws in loop]).tobytes()


@pytest.mark.parametrize("name", ["lewy", "flat", "tube3"])
def test_quadric_points_are_the_one_point_draws(name):
    points, weights = _quadric_points(name, np.random.default_rng(3), 50, (-1.0, 1.0, 2))
    rng = np.random.default_rng(3)
    for z, w in zip(points, weights):
        assert z.tobytes() == _quadric_point(name, rng).tobytes()
        assert w.tobytes() == rng.uniform(-1.0, 1.0, 2).tobytes()


def test_every_count_reads_one_corpus_per_seed():
    """A short corpus is the prefix of the long one: the same cases, drawn once."""
    _corpus.cache_clear()
    short = transport_corpus(11, 25)
    full = transport_corpus(11)
    assert len(short) == 25 and len(full) == N_RANDOM_CHARTS
    assert all(a is b for a, b in zip(short, full))
    _corpus.cache_clear()
    for a, b in zip(full, transport_corpus(11)):  # drawn in one pass
        assert a is not b and a.chart == b.chart
        assert (a.t_equiv, a.t_dual) == (b.t_equiv, b.t_dual)
        for x, y in ((a.x0, b.x0), (a.eta0, b.eta0), (a.xi0, b.xi0)):
            assert x.tobytes() == y.tobytes()


class TestCheckPool:
    """``cmd_verify`` runs one job per check in a forked pool: the same report, no child left."""

    @pytest.mark.parametrize("suite", ["hamiltonian", "lemma21", "orbits"])
    def test_pooled_report_equals_in_process_reference(self, suite, monkeypatch):
        jobs = verify.CHECKS[suite]  # at seed 0 each check's seed is its offset
        pooled = cmd_verify(suite, 0)
        assert pooled.timings["workers"] == min(len(jobs), verify._usable_cpus())
        assert list(pooled.timings["checks"]) == [verify._stem(name) for name, _ in jobs]
        results = [r for job in jobs for r in verify._run_job(job)[0]]
        reference = Report("verify", {"suite": suite}, 0, results)
        assert pooled.comparable_json() == reference.comparable_json()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        in_process = cmd_verify(suite, 0)
        assert in_process.timings["workers"] == 1
        assert in_process.comparable_json() == reference.comparable_json()
        assert not multiprocessing.active_children()

    def test_flow_error_comes_back_aborted(self, monkeypatch):
        def fault(seed):
            raise FlowError("injected")

        monkeypatch.setattr(verify, "_check_symbol_conservation", fault)
        report = cmd_verify("hamiltonian", 0)
        assert report.timings["workers"] == min(3, verify._usable_cpus())
        names = [r.name for r in report.results]
        assert names == ["xhat-hamiltonian-identification", "multiplier-independence",
                         "symbol-conservation-aborted"]
        aborted = report.results[-1]
        assert not aborted.passed
        assert aborted.details == {"error": "injected", "seed": 2}
        assert not multiprocessing.active_children()

    def test_other_exceptions_propagate_and_leave_no_child(self, monkeypatch):
        def fault(*args):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(verify, "hamiltonian_field", fault)
        with pytest.raises(ZeroDivisionError, match="injected"):
            cmd_verify("hamiltonian", 0)
        assert not multiprocessing.active_children()

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            cmd_verify("nope", 0)
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            run_checks(["nope"], 0)

    def test_a_replaced_suite_entry_runs_in_this_process(self, monkeypatch):
        """A caller that wraps a ``SUITES`` entry (the benchmark's tracer) sees it run."""
        reference = cmd_verify("lemma21", 0)
        stock = verify.SUITES["lemma21"]
        calls = []

        def observed(seed):
            calls.append((seed, os.getpid()))
            return stock(seed)

        monkeypatch.setitem(verify.SUITES, "lemma21", observed)
        report = cmd_verify("lemma21", 0)
        assert calls == [(0, os.getpid())]
        assert report.timings == {"workers": 1}
        assert report.comparable_json() == reference.comparable_json()
