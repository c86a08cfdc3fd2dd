"""Start-up of one ``setdiff`` process per subcommand, and the cost of the
record base in the calls that build and hash records.

Each job of the end-to-end benchmark is a fresh ``python -m setdifflab.cli``
process run without a bytecode cache, so these runs set
``PYTHONDONTWRITEBYTECODE=1`` and compile the imported modules every time,
as a job does.  Kept out of the tier-1 ``testpaths``; run from the
repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_startup.py \
        --benchmark-json BENCH.json
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import setdifflab
from setdifflab.universe import SubsetMask, UniverseShape

SRC = str(Path(setdifflab.__file__).parent.parent)

FILES = {
    "forms.txt": "p=3\n1 2 0 1\n2 2 1 0\n",
    "family.txt": "shape s=1 d=2 n=3\n000\n5a0\n1f1\n",
}

JOBS = {
    "bare-interpreter": ["-c", "pass"],
    "version": ["-m", "setdifflab.cli", "--version"],
    "extremal-d12-n2": ["-m", "setdifflab.cli", "extremal", "--d", "1", "2",
                        "--n", "2"],
    "phidist": ["-m", "setdifflab.cli", "phidist", "--forms", "{forms.txt}"],
    "reduce-multiplex": ["-m", "setdifflab.cli", "reduce", "--mode",
                         "multiplex", "--s", "2", "--family", "{family.txt}"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


def run_job(argv, env):
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_process_startup(benchmark, job, workdir):
    argv = [str(workdir / arg[1:-1]) if arg.startswith("{") else arg
            for arg in JOBS[job]]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    benchmark.pedantic(run_job, args=(argv, env), rounds=30, warmup_rounds=2)


SHAPE = UniverseShape((1, 2), 4)
MASK = SubsetMask(SHAPE, 0b1011_0110)


def test_subset_mask_positional(benchmark):
    assert benchmark(SubsetMask, SHAPE, 0b1011_0110) == MASK


def test_universe_shape_keywords(benchmark):
    assert benchmark(lambda: UniverseShape(degrees=(1, 2), n=4)) == SHAPE


def test_universe_shape_hash(benchmark):
    assert benchmark(hash, SHAPE) == hash(((1, 2), 4))


def test_subset_mask_hash(benchmark):
    assert benchmark(hash, MASK) == hash((SHAPE, 0b1011_0110))
