"""Mutation tests: a one-line defect in the library must turn the named ``verify`` checks red.

Each row copies a function's source with one text replacement, executes the
copy in its module's namespace and installs it with ``monkeypatch``, then
runs only the ``_check_*`` functions the row names, at the seeds the suites
pass them at seed 0.  A check the defect cannot turn red is no evidence
against it.
"""

import inspect

import pytest

from crorbit import connection, verify

ROWS = {
    "dual-transport-with-plus-BT": (
        connection._transport_ode,
        "-(b.T @ y[l:]) if dual",
        "(b.T @ y[l:]) if dual",
        [(verify._check_duality_expchart, None), (verify._check_duality_random, 0),
         (verify._check_theta_duality, 3)],
    ),
    "normal-block-transposed": (
        connection._transport_ode,
        "b = jac[l:, l:]",
        "b = jac[l:, l:].T",
        [(verify._check_transport_random, 0)],
    ),
}


def _install_mutant(monkeypatch, fn, old: str, new: str) -> None:
    """Replace ``fn`` in its module by a copy of its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{old!r} is not one line of {fn.__name__}"
    module = inspect.getmodule(fn)
    defined: dict = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), defined)
    monkeypatch.setattr(module, fn.__name__, defined[fn.__name__])


@pytest.mark.parametrize("row", ROWS)
def test_defect_fails_its_checks(row, monkeypatch):
    fn, old, new, checks = ROWS[row]
    _install_mutant(monkeypatch, fn, old, new)
    results = verify._run_checks(*checks)
    assert len(results) == len(checks)
    assert not [r.name for r in results if r.passed]
