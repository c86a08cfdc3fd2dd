"""End-to-end benchmark of the ``setdiff`` command line.

Run from the repository root:

    python3 e2ebench/run.py --workload file-batch --seed 0 --seconds 40 --trace 0

A single client runs the workload's job list in order, one job at a time
(closed loop), and repeats the whole list until ``--seconds`` have passed.
Every job is a fresh ``python -m setdifflab.cli`` process with ``src`` on
``PYTHONPATH``; its answer is checked against a reference.  The last line of
standard output is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones,
from a run that alternates each untraced job with a traced one.  End-to-end
times are scaled to a reference host speed measured in the same run by
``calibrate.py`` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import answers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
JOB_TIMEOUT_S = 60
CLI = (sys.executable, "-m", "setdifflab.cli")
TRACED = (sys.executable, os.path.join(HERE, "tracer.py"))
CALIBRATE = (sys.executable, os.path.join(HERE, "calibrate.py"))
# Reported times are scaled by CAL_REF_S / (median time of calibrate.py in
# the same run): seconds on a host where that program takes 0.2 s.
CAL_REF_S = 0.2


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("SETDIFF_THREADS", None)
    return env


class Sample:
    """One finished job process, as the launcher reported it."""

    def __init__(self, reply: dict, out_path: str):
        self.exit_code = reply["exit"]
        self.wall_s = reply["wall_s"]
        self.cpu_s = reply["cpu_s"]
        self.rss_mb = reply["rss_kb"] / 1024
        self.spawned = reply["spawned"]
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(out_path + ".err", encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()


class Launcher:
    """The small process that starts and times every job (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], cwd=ROOT,
            env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, argv, out_path: str) -> Sample:
        request = [list(argv), out_path, out_path + ".err", JOB_TIMEOUT_S]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return Sample(json.loads(reply), out_path)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills its running job
        self.close()


def _median_sum(samples: dict) -> float:
    return sum(statistics.median(s.wall_s for s in runs) for runs in samples.values())


def measure(jobs, refs, seconds: float, trace: bool, rundir: str) -> dict:
    with Launcher() as launcher:
        return _measure(launcher, jobs, refs, seconds, trace, rundir)


def _measure(launcher, jobs, refs, seconds, trace, rundir) -> dict:
    plain = {job.id: [] for job in jobs}
    traced = {job.id: [] for job in jobs}
    setup, calibration, layer_passes, last_layers = [], [], [], {}
    status_counts = {answers.OK: 0, answers.FAILED: 0, answers.WRONG: 0}

    reported = set()

    def run_job(job, argv, out_path):
        sample = launcher.run(argv, out_path)
        status = answers.check(job, sample.exit_code, sample.stdout, refs[job.id])
        status_counts[status] += 1
        if status != answers.OK and (job.id, status) not in reported:
            reported.add((job.id, status))
            note = (sample.stderr.strip().splitlines() or [""])[-1][:100]
            print(f"# {job.id}: {status}, exit {sample.exit_code} {note}")
        return sample

    # Start another pass only while an average pass still ends within
    # ``seconds``, so a run never lasts much longer than asked.
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (1 + 1 / passes) <= seconds:
        layers = {}
        for index, job in enumerate(jobs):
            if index in (0, len(jobs) // 2):
                probe = launcher.run(CLI + ("--version",), os.path.join(rundir, "version.out"))
                if probe.exit_code != 0 or not probe.stdout.startswith("setdiff"):
                    raise RuntimeError(f"setdiff --version failed: {probe.stderr.strip()}")
                setup.append(probe.wall_s)
            cal = launcher.run(CALIBRATE, os.path.join(rundir, "calibrate.out"))
            if cal.exit_code != 0:
                raise RuntimeError(f"calibrate.py failed: {cal.stderr.strip()}")
            calibration.append(cal.wall_s)
            out = os.path.join(rundir, f"{job.id}.out")
            sample = run_job(job, CLI + job.argv, out)
            plain[job.id].append(sample)
            if trace:
                spans_path = os.path.join(rundir, f"{job.id}.spans.json")
                tsample = run_job(job, TRACED + (job.id, spans_path) + job.argv, out)
                traced[job.id].append(tsample)
                last_layers[job.id] = _job_layers(spans_path, tsample, sample)
                _add(layers, last_layers[job.id])
        layer_passes.append(layers)
        passes += 1

    result = {
        "correct": status_counts[answers.WRONG] == 0,
        "attempted": sum(status_counts.values()),
        "failed": status_counts[answers.FAILED] + status_counts[answers.WRONG],
        "passes": passes,
    }
    untraced_wall = _median_sum(plain)
    scale = CAL_REF_S / statistics.median(calibration)
    result["end_to_end"] = {
        "wall_s": untraced_wall * scale,
        "peak_rss_mb": max(s.rss_mb for runs in plain.values() for s in runs),
        "setup_s": statistics.median(setup) * scale,
        "success_rate": 1 - result["failed"] / result["attempted"],
    }
    for job in jobs:
        walls = sorted(round(s.wall_s, 3) for s in plain[job.id])
        print(f"# {job.id}: wall_s {walls}")
    print(f"# unscaled: wall_s {untraced_wall:.4f}, setup_s "
          f"{statistics.median(setup):.4f}; calibrate.py median "
          f"{statistics.median(calibration):.4f} s over {len(calibration)} runs")
    if trace:
        for job in jobs:
            print(f"# {job.id}: {_shares(traced[job.id][-1], last_layers[job.id])}")
        layers = _median_passes(layer_passes)
        layers["trace.overhead"] = _median_sum(traced) / untraced_wall - 1
        result["per_layer"] = layers
    return result


def _shares(tsample: Sample, layers: dict) -> str:
    """Where one traced job spent its wall time: start-up, then the largest
    self and total times of single functions (``cli`` totals left out)."""
    wall = tsample.wall_s

    def top(suffix, skip=()):
        rows = sorted(((v, k[:-len(suffix)]) for k, v in layers.items()
                       if k.endswith(suffix) and k.count(".") == 2
                       and not k.startswith(skip)), reverse=True)[:3]
        return ", ".join(f"{name} {value / wall:.0%}" for value, name in rows)

    return (f"traced wall {wall:.3f} s; start-up "
            f"{layers.get('proc.startup_s', 0) / wall:.0%}; self: "
            f"{top('.self_s')}; total: {top('.total_s', ('cli.',))}")


def _job_layers(spans_path: str, tsample: Sample, sample: Sample) -> dict:
    """Per-layer numbers of one traced job, plus its process metrics."""
    try:
        with open(spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {"proc.cpu_s": sample.cpu_s}
    spans = [row[1:] for row in doc["spans"]]
    out = tracer.summarize(spans, doc["calls"], doc["counts"])
    out["proc.startup_s"] = doc["main_entered"] - tsample.spawned - doc["install_s"]
    out["proc.cpu_s"] = sample.cpu_s
    return out


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _median_passes(passes: list) -> dict:
    out = {}
    for key in set().union(*passes):
        values = [p.get(key, 0) for p in passes]
        if all(isinstance(v, int) for v in values):
            if len(set(values)) > 1:
                print(f"# warning: {key} differs between passes: {values}")
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    for label in tracer.CACHES:
        hits = out.get(f"fpforms.cache.{label}.hits", 0)
        misses = out.get(f"fpforms.cache.{label}.misses", 0)
        out[f"fpforms.cache.{label}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so the launcher, its job and the run directory go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "setdifflab")) or not os.path.exists(spec_path):
        print("e2ebench: run from the repository root; src/setdifflab and "
              "BENCHMARK.json must exist", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        seed = answers.input_seed(args.seed)
        jobs = workloads.build(args.workload, seed, os.path.join(rundir, "inputs"))
        refs = answers.references(jobs, seed)
        result = measure(jobs, refs, args.seconds, bool(args.trace), rundir)
        if args.trace:
            keep = os.path.join(WORK, "spans", args.workload)
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            for name in os.listdir(rundir):
                if name.endswith(".spans.json"):
                    os.replace(os.path.join(rundir, name), os.path.join(keep, name))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    values = result[section]
    if args.trace:
        selfs = sorted((v, k) for k, v in values.items()
                       if k.endswith(".self_s") and k.count(".") == 2)
        for value, key in selfs[:-13:-1]:
            print(f"# {key}: {value:.3f}")
        print(f"# trace.overhead: {values['trace.overhead']:.3f}; spans of the "
              f"last pass in {os.path.relpath(keep, ROOT)}")
        expected = (workloads.EXPECTED_LAYERS[args.workload]
                    + workloads.EXPECTED_EVERYWHERE)
        for name in expected:
            if not values.get(name):
                print(f"# warning: {args.workload} should produce per-layer metric "
                      f"{name}, but it reads {values.get(name, 'nothing')}")
    print(f"# {args.workload} seed {args.seed} (inputs of seed {seed}): "
          f"{result['passes']} passes, "
          f"{result['attempted']} jobs run, {result['failed']} failed")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
