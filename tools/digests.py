"""Print the pinned report digests of crorbit, one ``label sha256[:16]`` line each.

Each digest is the sha256 of a report's ``comparable_json()``, the part of
a report that must not change when the program is only refactored or made
faster.  The reports come from in-process ``cmd_verify``, ``cmd_orbit``,
``cmd_analyze`` and ``cmd_transport`` calls, and nothing is written to disk.

    python3 tools/digests.py
    python3 tools/digests.py --check

With ``--check`` the script also compares every digest with its pin in
``PINNED``; it exits 1 naming each label whose digest differs, and 0 when
all of them match.  The digests depend on string hashing, so the script
re-runs itself with ``PYTHONHASHSEED=0`` when that is not already set.
"""

from __future__ import annotations

import argparse
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

PINNED = {
    "verify-all-seed0": "62bbfd00941118f5",
    "verify-all-seed1": "c40fc1927b956ea4",
    "verify-all-seed2": "bd6aa06038e4901f",
    "verify-all-seed3": "cd8265ebba9be2bd",
    "orbit-flat-origin-256-seed0": "ec5d43c40767cb02",
    "orbit-tube3-origin-256-seed0": "4b6e847383831436",
    "orbit-lewy-origin-64-seed0": "4f4c3515ce3c86aa",
    "orbit-lewy-0.1,0.2,0.3,0.05-64-seed7": "dc0e45e85e08b043",
    "analyze-lewy-origin": "24184740045f50e3",
    "analyze-tube3-origin": "baaa1fb36db4c457",
    "analyze-flat-origin": "5a22a75cf5be56c2",
    "analyze-expchart-origin": "bad31864671975ff",
    "transport-expchart-default": "7a296794e4ea923a",
    "transport-expchart-(1,-0.7),(1,1.3)": "d5b5161da047bb24",
}


def digest(report) -> str:
    """The first 16 hex digits of the sha256 of ``report.comparable_json()``."""
    return hashlib.sha256(report.comparable_json().encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 unless every pin matches")
    args = parser.parse_args()
    differ = []
    for label, run in REPORTS:
        value = digest(run())
        print(label, value, flush=True)
        if value != PINNED.get(label):
            differ.append(label)
    if args.check and differ:
        for label in differ:
            print(f"differs: {label} (pinned {PINNED.get(label, 'nothing')})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
