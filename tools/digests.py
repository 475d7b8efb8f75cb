"""Print the pinned report digests of crorbit, one ``label sha256[:16]`` line each.

Each digest is the sha256 of a report's ``comparable_json()``, the part of
a report that must not change when the program is only refactored or made
faster.  The reports come from in-process ``cmd_verify``, ``cmd_orbit``,
``cmd_analyze`` and ``cmd_transport`` calls, and nothing is written to disk.

    python3 tools/digests.py

The digests depend on string hashing, so the script re-runs itself with
``PYTHONHASHSEED=0`` when that is not already set.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crorbit.cli import cmd_analyze, cmd_orbit, cmd_transport, cmd_verify  # noqa: E402
from crorbit.flow import FlowWord  # noqa: E402
from crorbit.scenario import builtin_scenario  # noqa: E402

REPORTS = [
    *((f"verify-all-seed{s}", lambda s=s: cmd_verify("all", s)) for s in range(4)),
    *((f"orbit-{name}-origin-256-seed0",
       lambda name=name: cmd_orbit(builtin_scenario(name), "origin", 256, 0))
      for name in ("flat", "tube3")),
    ("orbit-lewy-origin-64-seed0", lambda: cmd_orbit(builtin_scenario("lewy"), "origin", 64, 0)),
    ("orbit-lewy-0.1,0.2,0.3,0.05-64-seed7",
     lambda: cmd_orbit(builtin_scenario("lewy"), "0.1,0.2,0.3,0.05", 64, 7)),
    *((f"analyze-{name}-origin", lambda name=name: cmd_analyze(builtin_scenario(name), "origin"))
      for name in ("lewy", "tube3", "flat")),
    ("analyze-expchart-origin", lambda: cmd_analyze(builtin_scenario("expchart"), "origin")),
    ("transport-expchart-default", lambda: cmd_transport(builtin_scenario("expchart"))),
    ("transport-expchart-(1,-0.7),(1,1.3)",
     lambda: cmd_transport(builtin_scenario("expchart"), FlowWord.of((1, -0.7), (1, 1.3)))),
]


def main() -> None:
    for label, run in REPORTS:
        digest = hashlib.sha256(run().comparable_json().encode()).hexdigest()[:16]
        print(label, digest, flush=True)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    main()
