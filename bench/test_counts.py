"""Self-check of the traced run: exact counts repeat between runs of one seed.

    python3 -m pytest -q bench/test_counts.py      # about two minutes

Counts (calls, integrator evaluations and steps, faces, samples, report
bytes) compare two versions of the program only if the same code on the same
seed reproduces them exactly; this test fails when it does not.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".nfev", ".steps", ".faces", ".samples", ".report_bytes")


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["build", "dense-scan"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, 11)
    second = traced_counts(workload, 11)
    assert first["cli.run.calls"] > 0
    assert first == second
