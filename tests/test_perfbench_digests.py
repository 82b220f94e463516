"""The benchmark's recorded digests and oracle cases, checked in one pass per workload.

perfbench/expected_digests.json records the (exit code, stdout sha256) of
every job of each workload at the default seed, and perfbench/checks.py
holds the oracles the benchmark runs on its recorded cases.  This test
builds each workload's seed-0 job list with perfbench/workloads.py, runs one
pass in-process through lieps.cli.run_cli, and compares every job with the
recorded digest, then runs the oracles.  It only reads perfbench/.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lieps import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # namedtuples and dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


class _OnePass:
    """The runner interface of perfbench/run.py without its clock: one record per job."""

    def __init__(self):
        self.records = []

    def run(self, job):
        code, out, err = cli.run_cli(job.argv, job.text)
        self.records.append((job.key, code, hashlib.sha256(out.encode()).hexdigest(), err))
        return out if code == 0 else None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_matches_the_recorded_digests_and_the_oracles(name):
    expected = checks.load_digests(name)
    assert expected, f"no recorded digests for {name}"
    workload = workloads.WORKLOADS[name]()
    workload.setup(cli, workloads.DEFAULT_SEED)
    runner = _OnePass()
    workload.run_pass(runner)
    assert {key for key, *_ in runner.records} == set(expected)
    bad = {key: (code, err) for key, code, digest, err in runner.records if expected[key] != (code, digest)}
    assert not bad, bad
    assert workload.oracle_cases or not workload.seeded_inputs
    assert checks.oracle_failures(workload.oracle_cases) == {}
