"""Self-tests of the benchmark: names, the tail rule, output checks and
the traced run's metric set.  Run with ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.metrics import (
    END_TO_END,
    MIN_BEYOND,
    PER_LAYER,
    tail_percentile,
    valid_name,
)
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_and_workload_names_are_legal():
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert valid_name(name), name
    assert not valid_name("latency p50")
    assert not valid_name("_leading_underscore")


def test_benchmark_json_matches_the_catalogue():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_p99_is_withheld_with_fewer_than_ten_samples_beyond():
    # Nearest rank 99 of 999 samples leaves 9 above it; of 1000, 10.
    assert tail_percentile([float(i) for i in range(999)]) is None
    assert tail_percentile([float(i) for i in range(1000)]) == 989.0
    assert MIN_BEYOND == 10
    assert tail_percentile([]) is None


def _worker(tmp_path, *args):
    """Run ``worker.py`` at the tiny input size in a fresh interpreter (so
    the program's process-wide pools and caches stay out of this one)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "--size", "tiny",
         "--seconds", "0", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_a_corrupted_reference_fails_the_run(tmp_path):
    common = ["--workload", "paper_tables", "--seed", "3", "--trace", "0"]
    clean = _worker(tmp_path / "clean", *common)
    assert clean["problems"] == []
    assert clean["failed"] == 0 and clean["attempted"] > 0
    broken = _worker(tmp_path / "broken", *common, "--corrupt-reference")
    assert any("differ from the reference" in p for p in broken["problems"])


def test_the_traced_run_emits_every_per_layer_metric(tmp_path):
    record = _worker(tmp_path, "--workload", "paper_tables", "--seed", "5", "--trace", "1")
    assert record["problems"] == []
    assert record["complete"]
    assert set(record["metrics"]) == set(PER_LAYER)
    assert record["metrics"]["devices.noise_model.calls"] > 0
    assert record["metrics"]["simulators.density_matrix.busy_s"] > 0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    first, again, other = (WORKLOADS[name](seed) for seed in (7, 7, 8))
    assert vars(first).keys() == vars(again).keys()
    fields = [k for k in vars(first)
              if k not in ("rng", "reference", "size") and not k.startswith("_")]
    assert all(repr(getattr(first, k)) == repr(getattr(again, k)) for k in fields)
    assert any(repr(getattr(first, k)) != repr(getattr(other, k)) for k in fields)
