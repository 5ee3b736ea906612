"""tools/bench_pairs.py on two stub checkouts whose benchmark prints a fixed result."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def stub_checkout(path, correct, failed, rate):
    """A checkout whose benchmark command prints one fixed result line."""
    path.mkdir()
    result = {"correct": correct, "failed": failed,
              "metrics": {"rate": {"value": rate}, "setup_s": {"value": 0.5}}}
    (path / "stub.py").write_text(f"print('progress')\nprint({json.dumps(result)!r})\n")
    benchmark = {
        "command": [sys.executable, "stub.py"],
        "run_seconds": 1,
        "end_to_end": [{"name": "rate", "unit": "1/ref", "better": "higher"},
                       {"name": "setup_s", "unit": "s", "better": "lower"}],
    }
    (path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return path


def bench_pairs(tmp_path, parent, change):
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "stub", "--seeds", "1-3", "--label", "stub", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_clean_runs_exit_zero(tmp_path):
    done = bench_pairs(tmp_path, stub_checkout(tmp_path / "parent", True, 0, 1.0),
                       stub_checkout(tmp_path / "change", True, 0, 2.0))
    assert done.returncode == 0, done.stderr
    entry = json.loads((tmp_path / "BENCH_stub.json").read_text())["workloads"]["stub"]
    assert entry["correct"] and entry["failed"] == 0
    assert entry["metrics"]["rate"]["change_wins"] == 3
    assert entry["metrics"]["rate"]["change"]["median"] == 2.0


@pytest.mark.parametrize("faulty_side, correct, failed", [
    ("change", False, 0),
    ("parent", True, 2),
])
def test_a_faulty_run_is_named_and_exits_one(tmp_path, faulty_side, correct, failed):
    sides = {"parent": (True, 0), "change": (True, 0)}
    sides[faulty_side] = (correct, failed)
    checkouts = {side: stub_checkout(tmp_path / side, *flags, 1.0) for side, flags in sides.items()}
    done = bench_pairs(tmp_path, checkouts["parent"], checkouts["change"])
    assert done.returncode == 1
    named = [line for line in done.stderr.splitlines() if line.startswith("bench_pairs: ")]
    assert named == [f"bench_pairs: stub seed {seed} {faulty_side} reported "
                     f"correct={correct} failed={failed}" for seed in (1, 2, 3)]
    # the record is still written, with the fault in it
    entry = json.loads((tmp_path / "BENCH_stub.json").read_text())["workloads"]["stub"]
    assert entry["correct"] is correct and entry["failed"] == 3 * failed
