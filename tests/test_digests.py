"""The pinned report digests of ``tools/digests.py`` hold.

A refactor or speed-up must leave every report's ``comparable_json()``
as it was; ``tools/digests.py`` pins the sha256 of each.  This test runs
its ``REPORTS`` rows in a fresh interpreter with ``PYTHONHASHSEED=0``, as
the script does, except ``verify all`` at seeds 1-3 (``--check`` runs
those), and compares each digest with its pin in ``PINNED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"

SCRIPT = """
import json, runpy, sys
tables = runpy.run_path(sys.argv[1])
skipped = {f"verify-all-seed{s}" for s in (1, 2, 3)}
rows = [(label, run) for label, run in tables["REPORTS"] if label not in skipped]
print(json.dumps([{label: tables["digest"](run()) for label, run in rows}, tables["PINNED"]]))
"""


def test_reports_match_their_pinned_digests():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(DIGESTS)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    digests, pinned = json.loads(out.stdout)
    assert len(digests) == 11
    assert digests == {label: pinned.get(label) for label in digests}
