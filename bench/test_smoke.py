"""Smoke test of the benchmark: every workload once at toy size.

The toy passes go through the same correctness checks and fingerprinting
as timed runs, in a child process so the benchmark's thread pinning and
instrumentation stay out of the test process.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_passes_its_checks_at_toy_size(trace):
    done = subprocess.run([sys.executable, RUN, "--smoke", "--trace", trace],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "CHECK FAILED" not in done.stdout
    for name in ("sweep", "fit-wide", "cli-io", "experiment"):
        assert f"workload {name} " in done.stdout
    machine = json.loads(done.stdout.splitlines()[0].removeprefix("machine "))
    assert machine["TRIMFIT_THREADS"].endswith("(benchmark unsets it)")
