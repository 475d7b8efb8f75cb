"""Mutation tests: a one-line defect in the library must turn the named ``verify`` results red.

Each row copies a function's source with one text replacement, executes the
copy in its module's namespace and installs it with ``monkeypatch`` in every
crorbit module that holds the original (``verify`` imports names such as
``lie_bracket`` from their modules).  It then runs only the ``verify.CHECKS``
jobs the row names, at the seeds the suites pass them at seed 0, and
asserts that exactly the named results fail: a check can report several
results, and a defect need not turn all of them red.  A check the defect
cannot turn red is no evidence against it.
"""

import inspect
import sys

import pytest

from crorbit import connection, orbit, vectorfield, verify

ROWS = {
    "dual-transport-with-plus-BT": (
        connection._transport_ode,
        "-(b.T @ y[l:]) if dual",
        "(b.T @ y[l:]) if dual",
        ["_check_duality_expchart", "_check_duality_random", "_check_theta_duality"],
        {"duality-expchart", "duality-random", "theta-duality"},
    ),
    "normal-block-transposed": (
        connection._transport_ode,
        "b = jac[l:, l:]",
        "b = jac[l:, l:].T",
        ["_check_transport_random"],
        {"transport-equivalence-random"},
    ),
    "lie-bracket-sign-flipped": (
        vectorfield.lie_bracket,
        "return jy @ ax - jx @ ay",
        "return jx @ ay - jy @ ax",
        ["_check_bracket_exactness"],
        {"bracket-exactness-lewy"},
    ),
    "word-columns-push-T-not-Tc": (
        orbit._columns,
        "_, complex_tangent, *_, errors = _conormal_geometry(",
        "complex_tangent, _, *_, errors = _conormal_geometry(",
        ["_check_orbit_dimensions", "_check_certificates"],
        {"orbit-dimensions-pushforward", "lewy-certificate", "flat-no-certificate"},
    ),
}

# check name -> the seed its suite passes it at seed 0 (its offset)
SEED0 = dict(job for jobs in verify.CHECKS.values() for job in jobs)


def _install_mutant(monkeypatch, fn, old: str, new: str) -> None:
    """Replace ``fn`` wherever crorbit binds it by a copy of its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{old!r} is not one line of {fn.__name__}"
    module = inspect.getmodule(fn)
    defined: dict = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), defined)
    for holder in list(sys.modules.values()):
        if getattr(holder, "__name__", "").startswith("crorbit"):
            for name, value in list(vars(holder).items()):
                if value is fn:
                    monkeypatch.setattr(holder, name, defined[fn.__name__])


@pytest.mark.parametrize("row", ROWS)
def test_defect_fails_its_checks(row, monkeypatch):
    fn, old, new, checks, failing = ROWS[row]
    _install_mutant(monkeypatch, fn, old, new)
    results = [r for name in checks for r in verify._run_job((name, SEED0[name]))[0]]
    assert {r.name for r in results if not r.passed} == failing
