"""The parent side: a hermetic environment, fresh child interpreters, and
the result line the driver reads.

One run of one workload spawns ``SETUPS_PER_RUN`` children one after
another.  All set the workload up; the last one also measures.  ``setup_s``
is the median of their set-up times.  Children see no ``FEATGRAPH_*``
variable (the run refuses to start if one is set), BLAS/OpenMP pinned to one
thread, and ``XDG_CACHE_HOME`` pointing at an empty directory inside the
checkout, so the cost model never loads a stale calibration profile and
every commit starts from the same heuristic cold start.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.perf import spec

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: the contract gives a run 180 s; a child that takes this long is stuck
CHILD_TIMEOUT_S = 150


class BenchmarkRefused(RuntimeError):
    """The environment would make the numbers incomparable."""


def refuse_featgraph_env() -> None:
    leaked = sorted(k for k in os.environ if k.startswith("FEATGRAPH_"))
    if leaked:
        raise BenchmarkRefused(
            f"unset {', '.join(leaked)}: the benchmark measures the "
            "defaults, and these change which code runs")


def child_env(xdg_cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    env["XDG_CACHE_HOME"] = str(xdg_cache)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"          # the driver's checkout is not a repository


def _spawn(env: dict, workload: str, seed: int, seconds: float, trace: int,
           tiny: bool, setup_only: bool) -> dict:
    cmd = [sys.executable, "-m", "benchmarks.perf.child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(spans_path(workload, seed)),
           "--spawned-at", repr(time.time())]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spans_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"


def run_once(workload: str, seed: int, seconds: float, trace: int,
             tiny: bool = False, setups: int | None = None) -> dict:
    """One run of one workload; returns the measuring child's result with
    ``setup_s`` replaced by the median over all of the run's set-ups."""
    refuse_featgraph_env()
    if setups is None:
        # the traced run reports no setup_s, so it sets up once
        setups = 1 if trace else spec.SETUPS_PER_RUN
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    xdg = Path(tempfile.mkdtemp(prefix="xdg-", dir=OUT_DIR))
    try:
        env = child_env(xdg)
        setup_s = [
            _spawn(env, workload, seed, seconds, trace, tiny,
                   setup_only=True)["setup_s"]
            for _ in range(setups - 1)]
        result = _spawn(env, workload, seed, seconds, trace, tiny,
                        setup_only=False)
    finally:
        shutil.rmtree(xdg, ignore_errors=True)
    setup_s.append(result["setup_s"])
    result["setup_s_all"] = setup_s
    result["metrics"]["setup_s"] = statistics.median(setup_s)
    result["machine"]["git_commit"] = git_commit()
    result.update(workload=workload, seed=seed, trace=trace,
                  correct=not result["problems"])
    return result


def declared(trace: int) -> list[dict]:
    return spec.PER_LAYER if trace else spec.END_TO_END


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads: every declared metric of the
    run's kind with its unit.  A layer the workload bypasses reports 0."""
    metrics = {
        m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared(result["trace"])}
    return json.dumps({"correct": result["correct"],
                       "attempted": max(int(result["attempted"]), 1),
                       "failed": int(result["failed"]),
                       "metrics": metrics})
