"""crorbit benchmark: cold-process runs of three workloads, one child at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 38 --trace 0

Every timed run is a fresh interpreter (``child.py``), because every CLI
call is a cold process.  The parent first starts one untimed child that
writes the bytecode caches.  Then it alternates workload children, on
inputs ``seed, seed + 1, ...``, with set-up probes (import and scenario
loading only), at least three times and until the next pair would end more
than half a pair past ``--seconds``.  End-to-end metrics are medians over
the children; ``setup_s`` is the median over the probes and the children.
The host's speed drifts on a scale of tens of seconds, so samples spread
over the whole run are steadier than a block of probes at its start.

With ``--trace 1`` the parent runs input ``seed`` untraced once and traced
twice, then alternates untraced and traced runs of it.  The traced children
wrap crorbit's public functions from outside the package (``tracer.py``) and
give the per-layer metrics.  Three self-checks gate ``correct``: traced and
untraced runs give identical report digests, traced runs give identical
counts, and ``verify_all`` at seed 0 compiles exactly 2,504 Jacobian
evaluators (the count measured independently with cProfile).

The last line of standard output is the result object; the line before it
holds the pinned environment, the per-child numbers and the report digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify_all", "orbit_exhaust", "orbit_cert")
MIN_CHILDREN = 3
DEADLINE_S = 170.0  # the whole run must end within 180 s
VERIFY_JACOBIAN_COMPILES_SEED0 = 2504

# No thread pools, no BLAS/OpenMP threads, fixed string hashing: the tiny
# SVDs of crorbit then run on the calling thread only.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
DROPPED_ENV = ("CRORBIT_THREADS", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONOPTIMIZE")


class BenchError(Exception):
    """A child process failed: no result can be reported."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    return env


class Runner:
    def __init__(self, workload: str, root: Path) -> None:
        self.workload = workload
        self.root = root
        self.env = child_env()
        self.t0 = time.perf_counter()
        self.children: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def child(self, input_seed: int, trace: bool = False, setup_only: bool = False) -> dict:
        cmd = [
            sys.executable, "-s", str(HERE / "child.py"),
            "--workload", self.workload, "--input-seed", str(input_seed),
        ]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {' '.join(cmd)}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"child exited {proc.returncode}: {' '.join(cmd)}\n{proc.stderr[-2000:]}"
            )
        out = json.loads(lines[-1])
        out.update(input_seed=input_seed, trace=trace, process_s=time.perf_counter() - start)
        if not setup_only:
            self.children.append(out)
        return out

    def room_for(self, seconds: float, typical: float) -> bool:
        """Whether one more step of ``typical`` duration ends at most half a
        step past the measuring time (and well before the deadline)."""
        now = self.elapsed()
        return now + typical / 2 <= seconds and now + typical <= DEADLINE_S


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def run_plain(r: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    runs: list[dict] = []
    probes: list[float] = []
    while True:
        runs.append(r.child(seed + len(runs)))
        probes.append(r.child(seed, setup_only=True)["setup_s"])
        typical = r.elapsed() / len(runs)
        if r.elapsed() + typical > DEADLINE_S:
            break
        if len(runs) >= MIN_CHILDREN and not r.room_for(seconds, typical):
            break
    attempted = sum(c["attempted"] for c in runs)
    failed = sum(len(c["failures"]) for c in runs)
    metrics = {
        "wall_s": (median_of(runs, "wall_s"), "s"),
        "cpu_s": (median_of(runs, "cpu_s"), "s"),
        "setup_s": (statistics.median(probes + [c["setup_s"] for c in runs]), "s"),
        "peak_rss_mb": (median_of(runs, "peak_rss_mb"), "MB"),
        "pass_frac": (1.0 - failed / attempted, "fraction"),
    }
    return metrics, {"setup_probes_s": probes, "selfchecks": {}}


def run_traced(r: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    plain = [r.child(seed)]
    traced = [r.child(seed, trace=True), r.child(seed, trace=True)]
    pair = plain[0]["process_s"] + traced[0]["process_s"]
    while r.room_for(seconds, pair):
        plain.append(r.child(seed))
        traced.append(r.child(seed, trace=True))

    digests = {json.dumps(c["digests"]) for c in plain + traced}
    counts = {json.dumps(c["counts"], sort_keys=True) for c in traced}
    checks = {
        "digests_equal_traced_untraced": len(digests) == 1,
        "counts_repeat_exactly": len(counts) == 1,
    }
    if r.workload == "verify_all" and seed == 0:
        compiles = traced[0]["counts"]["fn.compile_values_and_jacobian"]
        checks["verify_seed0_jacobian_compiles"] = compiles == VERIFY_JACOBIAN_COMPILES_SEED0

    first = traced[0]["layers"]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(c["layers"][name] for c in traced), "s")
        else:
            metrics[name] = (value, _unit(name))
    overhead = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics, {"selfchecks": checks}


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "fraction"
    if name == "flow.evals_per_step":
        return "evals/step"
    if name == "expr.eval_per_compile":
        return "evals/compile"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="crorbit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "crorbit" / "__init__.py").is_file():
        print(f"error: no crorbit sources under {root / 'src'}", file=sys.stderr)
        return 2
    r = Runner(args.workload, root)
    try:
        r.child(args.seed, setup_only=True)  # writes bytecode caches; untimed
        run = run_traced if args.trace else run_plain
        metrics, extra = run(r, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in r.children)
    failed = sum(len(c["failures"]) for c in r.children)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": r.children[0]["numpy"],
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "pinned": PINNED_ENV,
            "dropped": list(DROPPED_ENV),
        },
        "children": [
            {k: c[k] for k in (
                "input_seed", "trace", "wall_s", "cpu_s", "setup_s",
                "peak_rss_mb", "failures", "digests", "call_wall_s", "counts",
            ) if k in c}
            for c in r.children
        ],
        **extra,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and all(extra["selfchecks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
