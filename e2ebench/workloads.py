"""Seeded input generator and the job list of each workload.

``build(workload, seed, workdir)`` writes every family, form and bundle file
the workload needs into ``workdir`` and returns its jobs in run order.  The
files are made here, in plain Python, from ``random.Random`` streams keyed by
the seed and the input's name, so the same seed always gives byte-identical
inputs and the program under test only ever sees the files.

Each input records why it was chosen (``Job.why``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from random import Random

WORKLOADS = ("extremal-oracle", "increment-loop", "file-batch")

# Per-layer metrics that each workload's traced run must produce, nonzero:
# the layers it is chosen to load.  A missing one (say, a renamed function)
# is reported, not silently read as 0.
EXPECTED_LAYERS = {
    "extremal-oracle": (
        "extremal.max_avoiding_family.self_s",
        "extremal.build_forbidden_graph.total_s",
        "extremal.graph.vertices", "extremal.graph.edges",
        "patterns.find_pattern_pair.calls", "patterns.find_pattern_pair.total_s",
        "patterns.find_witness.calls", "patterns.union_of_powers.calls",
        "universe.SubsetMask.created"),
    "increment-loop": (
        "fpforms.eval_on_bits.calls", "increment.family_value_masses.calls",
        "increment.find_distinguishing_form.total_s",
        "increment.find_distinguishing_form.self_s",
        "increment.increment_step.total_s",
        "fpforms.distribution.calls", "fpforms.distribution.self_s",
        "fpforms.cache.cell_coefficients.misses",
        "fpforms.cache.cell_coefficients.size",
        "fpforms.cache.class_masks.misses", "fpforms.cache.class_masks.size",
        "patterns.find_pattern_pair.calls"),
    "file-batch": (
        "universe.restrict_and_relabel.calls", "universe.restrict_and_relabel.self_s",
        "universe.family_from_text.total_s", "universe.family_to_text.total_s",
        "fpforms.distribution.calls", "fpforms.distribution.self_s",
        "covering.scan_for_dense_cell.total_s",
        "covering.interval_demo_cells.total_s", "covering.interval_demo_cells.cells",
        "covering.verify_framework_conditions.self_s",
        "patterns.interval_mod_n_witness.calls",
        "reductions.beta_bijection.total_s", "reductions.multiplex.total_s",
        "reductions.clique_square_correspondence.total_s"),
}
EXPECTED_EVERYWHERE = ("cli.main.self_s", "proc.startup_s", "proc.cpu_s",
                       "trace.overhead")


@dataclass(frozen=True)
class Job:
    """One ``setdiff`` invocation: ``argv`` follows ``python -m setdifflab.cli``.

    ``kind`` names the subcommand whose answer fields the checker compares;
    ``params`` holds what a reference computation needs besides the files.
    """

    id: str
    kind: str
    argv: tuple[str, ...]
    why: str
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# file formats (mirrors of the documented text formats)


def _hex(bits: int, cells: int) -> str:
    digits = max(1, (cells + 3) // 4)
    return format(bits, f"0{digits}x")[::-1]


def family_text(degrees: tuple[int, ...], n: int, members) -> str:
    cells = sum(n ** d for d in degrees)
    lines = [f"shape s={len(degrees)} d={','.join(map(str, degrees))} n={n}"]
    lines.extend(_hex(b, cells) for b in sorted(members))
    return "\n".join(lines) + "\n"


def forms_text(p: int, rows) -> str:
    return "\n".join([f"p={p}"] + [" ".join(map(str, r)) for r in rows]) + "\n"


def graphs_text(n: int, graphs) -> str:
    lines = [f"n={n} degrees=2"]
    for edges in graphs:
        lines.append(" ".join(f"{a},{b}" for a, b in sorted(edges)) or "-")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


def _rng(seed: int, name: str) -> Random:
    return Random(f"{seed}:{name}")


def _cell_index(n: int, coords) -> int:
    idx = 0
    for c in coords:
        idx = idx * n + c
    return idx


def biased_family(rng: Random, n: int, d: int, p: int, size: int,
                  bias: float) -> set[int]:
    """Random subsets of [n]^d, a share ``bias`` of them forced to one value
    of a random weight-2 linear form's degree-d lift.

    Uniform random families look uniform to every form, so the increment
    loop would stop after one fruitless search; planting the bias on a
    weight-2 form makes the default pool find a distinguishing form, take a
    step and then check the smaller family for a pattern.
    """
    cells = n ** d
    z1, z2 = rng.sample(range(n), 2)
    coeff = {z1: rng.randrange(1, p), z2: rng.randrange(1, p)}
    support = []  # (cell index, coefficient product) of the lift's nonzero cells
    for combo in itertools.product((z1, z2), repeat=d):
        value = 1
        for z in combo:
            value = value * coeff[z] % p
        support.append((_cell_index(n, combo), value))
    support_bits = sum(1 << idx for idx, _ in support)
    values = [sum(v for k, (_, v) in enumerate(support) if bits >> k & 1) % p
              for bits in range(1 << len(support))]
    target = rng.choice(sorted(set(values)))
    patterns = [bits for bits, value in enumerate(values) if value == target]
    members: set[int] = set()
    while len(members) < size:
        bits = rng.getrandbits(cells)
        if rng.random() < bias:
            chosen = rng.choice(patterns)
            bits &= ~support_bits
            for k, (idx, _) in enumerate(support):
                if chosen >> k & 1:
                    bits |= 1 << idx
        members.add(bits)
    return members


def clustered_family(rng: Random, degrees: tuple[int, ...], n: int, m: int,
                     size: int) -> set[int]:
    """Members that share a few backgrounds off one size-m interval window.

    Random sparse families put at most one member in each scan cell; sharing
    backgrounds makes cells hold several members, so the scan's densest
    cell depends on the input.
    """
    offsets = [0]
    for d in degrees:
        offsets.append(offsets[-1] + n ** d)
    regions = []
    for start in range(0, n - m + 1, m):
        window = range(start, start + m)
        regions.append(sum(
            1 << (offsets[part] + _cell_index(n, coords))
            for part, d in enumerate(degrees)
            for coords in itertools.product(window, repeat=d)))
    backgrounds = [rng.getrandbits(offsets[-1]) for _ in range(40)]
    members: set[int] = set()
    while len(members) < size:
        region = rng.choice(regions)
        bits = rng.choice(backgrounds) & ~region
        members.add(bits | (rng.getrandbits(offsets[-1]) & region))
    return members


def symmetric_family(rng: Random, n: int, d: int, size: int) -> set[int]:
    """Random unions of coordinate-permutation orbits of [n]^d."""
    orbits = []
    for rep in itertools.combinations_with_replacement(range(n), d):
        orbits.append(sum(1 << _cell_index(n, perm)
                          for perm in set(itertools.permutations(rep))))
    members: set[int] = set()
    while len(members) < size:
        bits = 0
        for orbit in orbits:
            if rng.random() < 0.5:
                bits |= orbit
        members.add(bits)
    return members


def random_graphs(rng: Random, n: int, count: int) -> list[list[tuple[int, int]]]:
    """Distinct random simple graphs on [n]."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = rng.sample(range(1 << len(pairs)), count)
    return [[pairs[k] for k in range(len(pairs)) if g >> k & 1] for g in chosen]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# workloads


def _extremal_oracle(seed: int, workdir: str) -> list[Job]:
    # No input files: the oracle's instances are fixed by the paper's
    # anchors, so the seed does not change them.
    def job(ident, argv, why):
        return Job(ident, "extremal", ("extremal",) + argv, why)

    return [
        job("extremal-d1-n8", ("--d", "1", "--n", "8"),
            "MIS-bound: the solve inside max_avoiding_family takes most of the "
            "run after start-up; Sperner anchor C(8,4)=70"),
        job("extremal-d13-n2", ("--d", "1", "3", "--n", "2"),
            "record verification through find_pattern_pair dominates"),
        job("extremal-clique3-n2", ("--d", "3", "--n", "2", "--pattern", "clique"),
            "clique-witness graph building and record verification, about "
            "half each"),
        job("extremal-d12-n2", ("--d", "1", "2", "--n", "2"),
            "tiny polynomial-difference anchor"),
        job("extremal-clique2-n2", ("--d", "2", "--n", "2", "--pattern", "clique"),
            "tiny clique anchor"),
    ]


def _increment_loop(seed: int, workdir: str) -> list[Job]:
    specs = [
        # (id, d, n, p, |F|, bias, pool, why)
        ("quasi-d1-n14-p3", 1, 14, 3, 2000, 0.3, "small",
         "pool search, many members: family_value_masses (eval_on_bits per "
         "member per form) takes most of the run"),
        ("quasi-d1-n12-p5", 1, 12, 5, 1000, 0.3, "small",
         "pool search at a larger prime: more forms, fewer members"),
        ("quasi-d2-n7-p3", 2, 7, 3, 150, 0.4, "exhaustive",
         "all 3^7 forms: global distribution per form and per-member "
         "evaluation split the run"),
        ("quasi-d2-n10-p3", 2, 10, 3, 2000, 0.3, "small",
         "pool search over degree-2 lifts with 100 cells"),
    ]
    jobs = []
    for ident, d, n, p, size, bias, pool, why in specs:
        fam = biased_family(_rng(seed, ident), n, d, p, size, bias)
        path = _write(workdir, f"{ident}.fam", family_text((d,), n, fam))
        argv = ("quasirandomize", "--family", path, "--p", str(p),
                "--eta", "1/4", "--pool", pool)
        jobs.append(Job(ident, "quasirandomize", argv, why,
                        {"family": path, "p": p, "eta": "1/4", "pool": pool}))
    return jobs


def _file_batch(seed: int, workdir: str) -> list[Job]:
    jobs = []

    def add(ident, kind, argv, why, **params):
        jobs.append(Job(ident, kind, argv, why, params))

    # scan: one big degree-1 family, one two-part family
    rng = _rng(seed, "scan-d1-n16")
    fam = _write(workdir, "scan-d1-n16.fam",
                 family_text((1,), 16, rng.sample(range(1 << 16), 20000)))
    pat = _write(workdir, "scan-d1-m4.pat",
                 family_text((1,), 4, rng.sample(range(16), 6)))
    add("scan-d1-n16", "scan",
        ("scan", "--family", fam, "--m", "4", "--pattern-family", pat),
        "20k-member file: parsing and restrict_and_relabel per member and window",
        family=fam, pattern=pat, m=4)

    rng = _rng(seed, "scan-d12-n6")
    fam = _write(workdir, "scan-d12-n6.fam",
                 family_text((1, 2), 6, clustered_family(rng, (1, 2), 6, 2, 3000)))
    pat = _write(workdir, "scan-d12-m2.pat",
                 family_text((1, 2), 2, rng.sample(range(64), 20)))
    add("scan-d12-n6", "scan",
        ("scan", "--family", fam, "--m", "2", "--pattern-family", pat),
        "two-part universe: window index tables over mixed degrees",
        family=fam, pattern=pat, m=2)

    rng = _rng(seed, "demo-interval-n12")
    fam = _write(workdir, "demo-n12.fam",
                 family_text((1,), 12, rng.sample(range(1 << 12), 1000)))
    add("demo-interval-n12", "demo-interval",
        ("demo-interval", "--n", "12", "--family", fam),
        "n*2^n cyclic-interval cells built and scanned",
        family=fam, n=12)

    add("verify-framework-n9", "verify-framework",
        ("verify-framework", "--n", "9"),
        "interval witness on every pair inside every cell (no input file)")

    rng = _rng(seed, "phidist-p5-d3")
    forms = _write(workdir, "phidist-p5-n14.forms", forms_text(
        5, [[rng.randrange(1, 5) for _ in range(14)] for _ in range(3)]))
    add("phidist-p5-d3", "phidist",
        ("phidist", "--forms", forms, "--degree", "3"),
        "few forms with 2744 cells each: exact convolution per form",
        forms=forms, degree=3)

    rng = _rng(seed, "phidist-p7-d2")
    forms = _write(workdir, "phidist-p7-n40.forms", forms_text(
        7, [[rng.randrange(1, 7) for _ in range(40)] for _ in range(4)]))
    add("phidist-p7-d2", "phidist",
        ("phidist", "--forms", forms, "--degree", "2"),
        "1600-cell degree-2 lifts at a larger prime",
        forms=forms, degree=2)

    # Fourteen nonzero p=7 coefficients at degree 3 give a uniformity bound
    # with a 4638-digit denominator: the CLI fails to serialize it (exit 4).
    # Kept on purpose so the known defect shows in the failure count.
    rng = _rng(seed, "phidist-p7-d3-digits")
    forms = _write(workdir, "phidist-p7-n14.forms", forms_text(
        7, [[rng.randrange(1, 7) for _ in range(14)]]))
    add("phidist-p7-d3-digits", "phidist",
        ("phidist", "--forms", forms, "--degree", "3"),
        "known digit-limit failure of the uniformity bound (exit 4)",
        forms=forms, degree=3)

    rng = _rng(seed, "reduce-beta")
    fam = _write(workdir, "reduce-beta.fam",
                 family_text((3,), 5, symmetric_family(rng, 5, 3, 400)))
    add("reduce-beta", "reduce", ("reduce", "--mode", "beta", "--family", fam),
        "symmetric degree-3 sets to hypergraph bundles; large bundle text",
        mode="beta", family=fam)

    rng = _rng(seed, "reduce-multiplex")
    fam = _write(workdir, "reduce-multiplex.fam",
                 family_text((2,), 5, {rng.getrandbits(25) for _ in range(1500)}))
    add("reduce-multiplex", "reduce",
        ("reduce", "--mode", "multiplex", "--family", fam, "--s", "3"),
        "diagonal copies over three parts; large family text",
        mode="multiplex", family=fam, s=3)

    rng = _rng(seed, "reduce-embed")
    fam = _write(workdir, "reduce-embed.fam",
                 family_text((1, 2), 5, {rng.getrandbits(30) for _ in range(1500)}))
    add("reduce-embed", "reduce",
        ("reduce", "--mode", "embed", "--family", fam, "--degrees", "2", "3"),
        "pointwise degree embedding into (2,3)",
        mode="embed", family=fam, degrees=(2, 3))

    rng = _rng(seed, "reduce-clique")
    bundles = _write(workdir, "reduce-clique.bundles",
                     graphs_text(4, random_graphs(rng, 4, 24)))
    add("reduce-clique", "reduce",
        ("reduce", "--mode", "clique", "--bundles", bundles),
        "clique-square fibres: 1024 members per graph",
        mode="clique", bundles=bundles)
    return jobs


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return jobs."""
    makers = {
        "extremal-oracle": _extremal_oracle,
        "increment-loop": _increment_loop,
        "file-batch": _file_batch,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    return makers[workload](seed, workdir)
