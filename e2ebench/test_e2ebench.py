"""Self-tests of the benchmark, kept out of the repository's test suite.

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import answers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, seed, workdir):
    jobs = workloads.build(workload, seed, str(workdir))
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    return [(j.id, [a.replace(str(workdir), "") for a in j.argv]) for j in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    if first[1]:
        assert first[1] != _inputs(workload, 8, tmp_path / "c")[1]


def _report(**fields):
    return json.dumps({"report": fields})


def test_checker_reads_answer_fields_not_bytes():
    job = workloads.Job("x", "demo-interval", (), "")
    ref = answers.answer("demo-interval", {"average_density": "1/2", "family_size": 3})
    same = _report(average_density="2/4", family_size=3, stats={"cells": 9})
    assert answers.check(job, 0, same, ref) == answers.OK
    assert answers.check(job, 0, _report(average_density="1/3", family_size=3),
                         ref) == answers.WRONG
    assert answers.check(job, 0, "not json", ref) == answers.WRONG
    assert answers.check(job, 4, "", ref) == answers.FAILED


def test_corrupted_answer_counts_as_failure(tmp_path):
    job = workloads.build("extremal-oracle", 0, str(tmp_path))[3]
    assert job.id == "extremal-d12-n2"
    good = {job.id: answers.FIXED[job.id]}
    bad = {job.id: dict(answers.FIXED[job.id], max_size=41)}
    result = run.measure([job], good, 0, False, str(tmp_path))
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["end_to_end"]["success_rate"] == 1
    result = run.measure([job], bad, 0, False, str(tmp_path))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["end_to_end"]["success_rate"] == 0


def test_self_time_on_a_synthetic_span_tree():
    # main [0,10] > cmd [1,9] > (scan [2,5] > restrict [3,4]), restrict [6,8]
    spans = [
        (0, -1, "cli.main", 0.0, 10.0),
        (1, 0, "cli.cmd_scan", 1.0, 9.0),
        (2, 1, "covering.scan", 2.0, 5.0),
        (3, 2, "universe.restrict", 3.0, 4.0),
        (4, 1, "universe.restrict", 6.0, 8.0),
    ]
    out = tracer.summarize(spans, calls={"universe.restrict": 5},
                           counts={"universe.SubsetMask.created": 3})
    assert out["cli.main.self_s"] == 2.0
    assert out["cli.cmd_scan.self_s"] == 3.0
    assert out["covering.scan.self_s"] == 2.0
    assert out["universe.restrict.self_s"] == 3.0
    assert out["universe.restrict.total_s"] == 3.0
    assert out["universe.restrict.calls"] == 7
    assert out["cli.total_s"] == 10.0 and out["cli.self_s"] == 5.0
    assert out["universe.calls"] == 7
    assert out["universe.SubsetMask.created"] == 3
    # the self times add up to the root's duration
    selfs = sum(v for k, v in out.items() if k.endswith(".self_s") and k.count(".") == 2)
    assert selfs == 10.0


def test_nested_calls_of_one_name_count_total_once():
    spans = [(0, -1, "patterns.f", 0.0, 4.0), (1, 0, "patterns.f", 1.0, 2.0)]
    out = tracer.summarize(spans)
    assert out["patterns.f.total_s"] == 4.0
    assert out["patterns.f.self_s"] == 4.0
    assert out["patterns.total_s"] == 4.0


def test_tracer_wraps_every_binding(tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, os.path.join(HERE, "tracer.py"), "j1", str(spans_path),
            "extremal", "--d", "1", "2", "--n", "2"]
    proc = subprocess.run(argv, env=run._child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["max_size"] == 40
    doc = json.loads(spans_path.read_text())
    assert {row[0] for row in doc["spans"]} == {"j1"}
    names = {row[3] for row in doc["spans"]}
    # find_pattern_pair is reached through extremal's own binding
    assert {"cli.main", "extremal.max_avoiding_family",
            "patterns.find_pattern_pair"} <= names
    assert doc["calls"]["patterns.find_witness"] > 0
    assert doc["counts"]["extremal.graph.vertices"] == 64


def test_every_seed_is_checked_against_shipped_references(tmp_path):
    assert {answers.input_seed(s) for s in range(-5, 40)} == set(answers.REF_SEEDS)
    jobs = workloads.build("file-batch", 0, str(tmp_path))
    assert set(answers.references(jobs, 0)) == {j.id for j in jobs}
    with pytest.raises(LookupError):
        answers.references(jobs, 99)


def test_shipped_references_match_the_library(tmp_path):
    frozen = answers.shipped(0)
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, 0, str(tmp_path / workload)):
            if job.id not in answers.FIXED:
                assert answers.compute_reference(job) == frozen[job.id], job.id
