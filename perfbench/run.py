"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh interpreters
(``perfbench/worker.py``) with a pinned environment: no inherited
``REPRO_*`` settings and an empty ``REPRO_CACHE_DIR`` of their own, so the
persisted cost model and caches of one run cannot steer the next.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
of three set-ups (two set-up-only interpreters plus the measuring one).
``--trace 1`` prints the per-layer metrics of the traced run.  Before the
final JSON line the run prints every metric with its unit and sample
count, the host facts and any failed output check.  A failed check or a
missing metric makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END, PER_LAYER, format_lines, median, metric_block  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_SAMPLES = 2
#: Every worker must finish within this budget, so a run ends within 180 s.
BUDGET_S = 170.0
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def pinned_env(cache_dir: str) -> dict:
    """Environment for a benchmark interpreter: no inherited REPRO_* knobs,
    a fresh cache directory and the repository's sources on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def host_facts() -> str:
    """nproc, Python, NumPy and the commit (or a digest of the sources)."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy_version} commit={commit} src_sha256={digest.hexdigest()[:12]}")


def run_worker(args, mode: str, run_dir: str, deadline: float) -> dict:
    """Run one worker interpreter to completion; return its JSON record."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=run_dir)
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    # A process group of its own, so a worker stopped at the deadline takes the
    # server and pool processes it started down with it.
    with subprocess.Popen(command, cwd=ROOT, env=pinned_env(cache_dir),
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError(f"worker ({mode}) ran past the time budget")
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with code {child.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_SAMPLES):
                setups.append(run_worker(args, "setup", run_dir, deadline)["setup_s"])
        record = run_worker(args, "run", run_dir, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's directory is still there

    units = PER_LAYER if args.trace else END_TO_END
    values = record["metrics"]
    samples = record["samples"]
    if not args.trace and "setup_s" in values:
        setups.append(values["setup_s"])
        values["setup_s"] = median(setups)
        samples["setup_s"] = len(setups)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(host_facts())
    for line in record["notes"]:
        print(line)
    for error in record["errors"]:
        print(f"JOB FAILED: {error}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    if not record["complete"]:
        print("perfbench: the run did not produce every metric", file=sys.stderr)
        return 1
    for line in format_lines(values, units, samples):
        print(line)
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metric_block(values, units),
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
