"""Eleven exact acceptance checks, one test (and one printed line) each.

Every comparison is a rational or integer identity with zero tolerance; the
brute-force side of each check is recomputed here from raw bit arithmetic,
not through the code under test.  Sweeps that a literal power-set walk
cannot reach factor the sum over subsets through the window restrictions
(off-window cells contribute a common multiplicity that cancels), and both
routes are compared wherever they overlap.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from random import Random

from setdifflab.covering import (
    demo_average_density,
    scan_for_dense_cell,
    verify_framework_conditions,
)
from setdifflab.extremal import build_forbidden_graph, max_avoiding_family
from setdifflab.fpforms import (
    LinearFormP,
    _product_table,
    build_block_partition,
    check_block_partition,
    distribution,
)
from setdifflab.increment import (
    find_distinguishing_form,
    increment_step,
    iteration_cap,
    quasirandomize,
)
from setdifflab.patterns import (
    CliqueDifference,
    PolynomialDifference,
    distance2_witness,
    find_pattern_pair,
)
from setdifflab.reductions import (
    HypergraphBundle,
    _compositions,
    beta_bijection,
    beta_inverse,
    clique_square_correspondence,
)
from setdifflab.universe import Family, SubsetMask, UniverseShape, _bit_indices

from form_oracles import Phi_eval, cell_form_value, eval_on_bits, leftover
from witness_oracles import (bundle_mask, find_witness, hyperedges_of,
                             interval_mod_n_witness, proof_chain, ref_is_symmetric,
                             ref_symmetric_region, restrict_and_relabel, window_hits,
                             window_region)

SEED = 20260823


def _pass(num: int, label: str) -> None:
    print(f"criterion {num:02d} ({label}): PASS")


def _power_bits(shape: UniverseShape, S) -> int:
    """S^d as raw bits by bare index arithmetic (test-local oracle)."""
    d, n = shape.degrees[0], shape.n
    bits = 0
    for coords in itertools.product(sorted(S), repeat=d):
        idx = 0
        for x in coords:
            idx = idx * n + (x - 1)
        bits |= 1 << idx
    return bits


def _nonempty_subsets(n: int):
    for size in range(1, n + 1):
        yield from (set(c) for c in itertools.combinations(range(1, n + 1), size))


def _submasks(mask: int):
    """All subsets of a bit mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


# ---------------------------------------------------------------------------
# criteria 1 + 2 share one exhaustive sweep


@lru_cache(maxsize=1)
def _moment_sweep():
    """(m, d, t, p, E, Var) rows, E/Var from raw enumeration.

    Hit counts depend on a pattern family only through its size c
    (relabeling the members permutes the restriction tuples), so one
    representative per size class covers every pattern family; random
    families are spot-checked against the class representatives below.
    """
    rows = []
    for m, d in ((1, 1), (1, 2), (2, 1), (2, 2)):
        small = UniverseShape((d,), m)
        M = 1 << small.cells
        for t in (2, 3, 4):
            shape = UniverseShape((d,), t * m)
            assert shape.n <= 8
            for c in range(1, M + 1):
                pattern = Family(small, range(c))
                counts = _hit_distribution(shape, m, pattern)
                total = sum(counts.values())
                first = sum(k * v for k, v in counts.items())
                second = sum(k * k * v for k, v in counts.items())
                E = Fraction(first, total)
                var = Fraction(second, total) - E * E
                rows.append((m, d, t, Fraction(c, M), E, var))
    return rows


def _hit_distribution(shape, m, pattern):
    """Exhaustive N(A) histogram; factored through restrictions when large."""
    if shape.cells <= 12:
        return Counter(map(sum, window_hits(shape, m, pattern)))
    counts: Counter = Counter()
    indicator = [b in pattern.members for b in range(1 << pattern.shape.cells)]
    for tup in itertools.product(indicator, repeat=shape.n // m):
        counts[sum(tup)] += 1
    return counts


def test_criterion_01_moment_identities():
    start = time.monotonic()
    rows = _moment_sweep()
    assert len(rows) == 3 * (2 + 2 + 4 + 16)
    for m, d, t, p, E, var in rows:
        assert E == t * p
        assert var == t * p * (1 - p)
    # the two enumeration routes agree where both apply
    shape = UniverseShape((1,), 8)
    small = UniverseShape((1,), 2)
    for c in range(1, 5):
        ind = [b < c for b in range(4)]
        literal = _hit_distribution(shape, 2, Family(small, range(c)))
        factored: Counter = Counter()
        for tup in itertools.product(ind, repeat=shape.n // 2):
            factored[sum(tup)] += 1
        scale = sum(literal.values()) // sum(factored.values())
        assert literal == Counter({k: v * scale for k, v in factored.items()})
    # random pattern families match their size class
    rng = Random(SEED + 1)
    for m, d in ((2, 1), (2, 2)):
        M = 1 << m ** d
        shape = UniverseShape((d,), 3 * m)
        for _ in range(3):
            pattern = Family(UniverseShape((d,), m),
                             rng.sample(range(M), rng.randrange(1, M + 1)))
            counts = _hit_distribution(shape, m, pattern)
            total = sum(counts.values())
            p = Fraction(len(pattern), M)
            E = Fraction(sum(k * v for k, v in counts.items()), total)
            assert E == 3 * p
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"moment sweep took {elapsed:.1f}s"
    _pass(1, "exact moment identities, m<=2 d<=2 t in 2..4")


def test_criterion_02_variance_bound():
    # t >= 1/(eps p(P)) implies Var <= eps E^2, since Var/E^2 = (1-p)/(t p)
    fired = 0
    for m, d, t, p, E, var in _moment_sweep():
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            if t >= 1 / (eps * p):
                assert var <= eps * E * E
                fired += 1
    assert fired >= 1
    _pass(2, f"variance bound, {fired} non-vacuous instances")


def test_criterion_03_average_density_identity():
    start = time.monotonic()
    rng = Random(SEED + 3)
    for n in (3, 4, 5):
        for _ in range(20):
            members = rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1))
            assert demo_average_density(n, members) == Fraction(len(members), 1 << n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"average-density sweep took {elapsed:.1f}s"
    _pass(3, "average cell density equals family density, 20 families each n")


def test_criterion_04_framework_accounting():
    for n in (3, 4, 5):
        rep = verify_framework_conditions(n)
        assert rep.K == n
        assert rep.L == n * n
        assert rep.omega_size == 1 << n
        assert rep.num_cells == n << n
        assert rep.equal_cell_size and rep.equal_membership
        assert rep.pattern_ok and rep.accounting_ok
        assert rep.omega_size * rep.L == rep.num_cells * rep.K
    _pass(4, "covering framework accounting K=n, L=n^2, |Omega|L=|W|K")


def test_criterion_05_scan_correctness():
    rng = Random(SEED + 5)
    checked = 0
    for n in (4, 6):
        shape = UniverseShape((1,), n)
        small = UniverseShape((1,), 2)
        for _ in range(25):
            members = frozenset(
                rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1)))
            fam = Family(shape, members)
            pf = Family(small, frozenset(rng.sample(range(4), rng.randrange(1, 5))))
            cell, best, average = scan_for_dense_cell(fam, 2, pf)
            assert best >= average
            chain = proof_chain(fam, 2, pf, Fraction(1, 4))
            assert chain.double_counting_all_ok
            assert chain.double_counting_fam_ok
            # recount the winning cell membership directly
            off = ~window_region(shape, cell.window).bits
            in_cell = sum(
                1 for mask in fam.masks() if mask.bits & off == cell.background.bits
                and restrict_and_relabel(mask, cell.window).bits in pf.members)
            assert Fraction(in_cell, len(pf)) == best
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                          Fraction(1)):
                if len(pf) > 4 / delta and best >= delta / 2:
                    assert in_cell >= 2
            if best >= Fraction(2, len(pf)):
                assert in_cell >= 2
            checked += 1
    assert checked == 50
    _pass(5, "scan max >= average, double counting, cell pigeonhole")


def test_criterion_06_witness_oracle_equivalence():
    mismatches = 0
    shapes = [UniverseShape((1,), n) for n in (1, 2, 3)]
    shapes += [UniverseShape((2,), n) for n in (1, 2)]
    for shape in shapes:
        spec = PolynomialDifference((shape.degrees[0],))
        powers = {frozenset(S): _power_bits(shape, S)
                  for S in _nonempty_subsets(shape.n)}
        size = 1 << shape.cells
        for a in range(size):
            for b in range(size):
                got = find_witness(
                    SubsetMask(shape, a), SubsetMask(shape, b), spec)
                expect = None
                if a != b and a & b == a:
                    diff = b ^ a
                    expect = next(
                        (S for S, p in powers.items() if p == diff), None)
                if (got is None) != (expect is None):
                    mismatches += 1
                elif got is not None and frozenset(got.S) != expect:
                    mismatches += 1
        closed = build_forbidden_graph(shape, spec).distance2_closure().adj
        for a in range(size):
            for b in range(a + 1, size):
                w = distance2_witness(SubsetMask(shape, a), SubsetMask(shape, b))
                if bool(closed[a] >> b & 1) != (w is not None):
                    mismatches += 1
        # find_pattern_pair against a quadratic scan of the same oracle
        rng = Random(SEED + shape.cells)
        for _ in range(10):
            fam_bits = rng.sample(range(size), rng.randrange(1, size + 1))
            fam = Family(shape, frozenset(fam_bits))
            found = find_pattern_pair(fam, spec)
            exists = any(
                a != b and a & b == a and (a ^ b) in powers.values()
                for a in fam_bits for b in fam_bits)
            if (found is None) == exists:
                mismatches += 1
            elif found is not None:
                A, B, w = found
                if B.bits & ~A.bits != _power_bits(shape, set(w.S)):
                    mismatches += 1
    # cyclic-interval witness against direct interval enumeration
    for n in (3, 4, 5):
        local = {(y, l): sum(1 << ((y - 1 + i) % n) for i in range(l))
                 for y in range(1, n + 1) for l in range(1, n + 1)}
        for a in range(1 << n):
            for b in range(1 << n):
                w = interval_mod_n_witness(a, b, n)
                exists = a != b and (a ^ b) in local.values()
                if (w is None) == exists:
                    mismatches += 1
                elif w is not None and local[(w.start, w.length)] != a ^ b:
                    mismatches += 1
    # clique-difference witness over every ordered pair of square masks
    sq = UniverseShape((2,), 2)
    for a in range(1 << 4):
        for b in range(1 << 4):
            A, B = SubsetMask(sq, a), SubsetMask(sq, b)
            got = find_witness(A, B, CliqueDifference((2,)))
            (ea,), (eb,) = hyperedges_of(A), hyperedges_of(B)
            expect = None
            if ea <= eb:
                verts = set().union(*(eb - ea)) if eb - ea else set()
                if verts and eb - ea == {
                        frozenset(c)
                        for c in itertools.combinations(sorted(verts), 2)}:
                    expect = frozenset(verts)
            if (got is None) != (expect is None):
                mismatches += 1
            elif got is not None and got.S != expect:
                mismatches += 1
    assert mismatches == 0
    _pass(6, "witness oracles agree on every pair, 0 mismatches")


def test_criterion_07_fp_machinery():
    # (a) uniformity bound for every form over F_2 / F_3 at n <= 12
    for p in (2, 3):
        nonzero = list(range(1, p))
        for n in range(1, 13):
            covered = 0
            if n <= 6:
                for coeffs in itertools.product(range(p), repeat=n):
                    assert distribution(LinearFormP(p, coeffs).induced(1)).within_bound
                    covered += 1
            else:
                for ks in itertools.product(range(n + 1), repeat=p - 1):
                    if sum(ks) > n:
                        continue
                    coeffs = tuple(itertools.chain(
                        *([v] * k for v, k in zip(nonzero, ks)),
                        [0] * (n - sum(ks))))
                    assert distribution(LinearFormP(p, coeffs).induced(1)).within_bound
                    weight = 1
                    left = n
                    for k in ks:
                        weight *= comb(left, k)
                        left -= k
                    covered += weight
            assert covered == p ** n
    # positional invariance behind the class reduction
    rng = Random(SEED + 70)
    for p in (2, 3):
        for _ in range(5):
            coeffs = [rng.randrange(p) for _ in range(9)]
            shuffled = coeffs[:]
            rng.shuffle(shuffled)
            assert (distribution(LinearFormP(p, tuple(coeffs)).induced(1)).masses
                    == distribution(LinearFormP(p, tuple(shuffled)).induced(1)).masses)

    # (b) induced difference identity on every power pair, n <= 3, d <= 2
    for p in (2, 3):
        for d in (1, 2):
            for n in (1, 2, 3):
                shape = UniverseShape((d,), n)
                full = (1 << shape.cells) - 1
                spowers = [(S, _power_bits(shape, S))
                           for S in _nonempty_subsets(n)]
                for coeffs in itertools.product(range(p), repeat=n):
                    base = LinearFormP(p, coeffs)
                    induced = base.induced(d)
                    for S, sbits in spowers:
                        phi_s = sum(coeffs[x - 1] for x in S) % p
                        want = pow(phi_s, d, p)
                        for bg in _submasks(full & ~sbits):
                            lo = eval_on_bits(induced, bg)
                            hi = eval_on_bits(induced, bg | sbits)
                            assert (hi - lo) % p == want
                            assert hi == Phi_eval(
                                induced, SubsetMask(shape, bg | sbits))

    # (c) the induced form is constant on every constructed block cell
    rng = Random(SEED + 77)
    cells_checked = 0
    for p in (2, 3):
        for n in range(1, 9):
            big = UniverseShape((2,), n)
            offbits = (1 << big.cells) - 1
            for coeffs in itertools.product(range(p), repeat=n):
                form = LinearFormP(p, coeffs)
                partition = build_block_partition(form, 2)
                if partition.t == 0:
                    continue
                induced = form.induced(2)
                for row in range(1, partition.t + 1):
                    table = _product_table(partition, row, 2)
                    off = offbits & ~sum(table)
                    bgs = {0, off}
                    bgs.update(rng.getrandbits(big.cells) & off
                               for _ in range(4))
                    for bg in sorted(bgs):
                        background = SubsetMask(big, bg)
                        values = {eval_on_bits(induced, bg | sum(
                                      table[i] for i in _bit_indices(small)))
                                  for small in range(1 << len(table))}
                        assert values == {
                            cell_form_value(induced, partition, row, background)}
                        cells_checked += 1
    assert cells_checked > 0
    _pass(7, f"F_p bound, power-pair identity, {cells_checked} constant cells")


def test_criterion_08_partition_contract():
    rng = Random(SEED + 8)
    for _ in range(100):
        n = rng.randrange(8, 33)
        p = rng.choice((2, 3, 5))
        coeffs = tuple(rng.randrange(p) for _ in range(n))
        form = LinearFormP(p, coeffs)
        partition = build_block_partition(form, 2)
        check_block_partition(partition, form)
        # independent re-audit from the raw coefficients
        seen: set = set()
        for row in partition.rows:
            assert len(row) == 2
            for block in row:
                assert len(block) == partition.sigma
                assert not block & seen
                seen |= block
                assert sum(coeffs[z - 1] for z in block) % p == 0
        assert not seen & leftover(partition)
        assert seen | leftover(partition) == set(range(1, n + 1))
        assert partition.t >= -(-n // (2 * p)) - 2
    _pass(8, "100 random block partitions satisfy the full contract")


def test_criterion_09_increment_loop():
    shape = UniverseShape((1,), 6)
    fam = Family(shape, frozenset(b for b in range(64) if b & 1))
    assert fam.density() == Fraction(1, 2)
    report = find_distinguishing_form(fam, 2, Fraction(1, 4))
    assert report is not None and report.gap == Fraction(1, 2)
    step = increment_step(fam, report, 1)
    assert step.density == 1  # one increment step reaches full density
    final, trace, pair = quasirandomize(fam, 2, Fraction(1, 4))
    assert trace.status == "pattern-found" and trace.iterations == 1
    assert trace.final_density == 1
    assert trace.cap == iteration_cap(Fraction(1, 2), Fraction(1, 4), 2)

    rng = Random(SEED + 9)
    capped = 0
    for n in (4, 6, 8):
        shape_n = UniverseShape((1,), n)
        for _ in range(8):
            members = frozenset(
                rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1)))
            _final, tr, found = quasirandomize(
                Family(shape_n, members), 2, Fraction(1, 4))
            if tr.steps and all(s.guaranteed for _, s in tr.steps):
                assert tr.iterations <= tr.cap
                capped += 1
            if found is not None:
                A, B, w = found
                assert not A.bits & ~B.bits
                assert B.bits & ~A.bits == _power_bits(A.shape, set(w.S))
    assert capped >= 1
    _pass(9, f"e_1 family closes in one step; {capped} capped traces")


def test_criterion_10_reduction_roundtrips():
    for d in (1, 2, 3):
        for n in (1, 2):
            shape = UniverseShape((d,), n)
            sym = [SubsetMask(shape, b) for b in range(1 << shape.cells)
                   if ref_is_symmetric(SubsetMask(shape, b))]
            assert len(sym) == 1 << comb(n + d - 1, d)
            images = set()
            for A in sym:
                bundle = beta_bijection(A)
                assert beta_inverse(bundle).bits == A.bits
                images.add(bundle)
            assert len(images) == len(sym)
            # the lift A -> A n R to the sorted region R is one-to-one from
            # the symmetric sets onto the subsets of R, so it and the orbit
            # closure are two-sided inverses
            region = ref_symmetric_region(d, n).bits
            lifts = {A.bits & region for A in sym}
            assert len(lifts) == len(sym) and sorted(lifts) == list(_submasks(region))
            # the reverse composition over the whole bundle space
            degrees = tuple(map(len, _compositions(d)))
            pools = [
                [frozenset(c)
                 for c in itertools.combinations(range(1, n + 1), k)]
                for k in degrees
            ]
            count = 0
            for choice in itertools.product(
                    *(list(_subsets(pool)) for pool in pools)):
                bundle = HypergraphBundle(
                    n=n, degrees=degrees, parts=choice)
                assert beta_bijection(beta_inverse(bundle)) == bundle
                count += 1
            assert count == len(sym)

    # density preservation through the clique-square correspondence
    rng = Random(SEED + 10)
    for n in (2, 3):
        edges = [frozenset(c)
                 for c in itertools.combinations(range(1, n + 1), 2)]
        all_graphs = [frozenset(g) for g in _subsets(edges)]
        if n == 2:
            picks = [list(g) for g in _subsets(all_graphs) if g]
        else:
            picks = [
                rng.sample(all_graphs, rng.randrange(1, len(all_graphs) + 1))
                for _ in range(10)]
        for graphs in picks:
            image = clique_square_correspondence(graphs, n)
            assert image.density() == Fraction(len(graphs), 1 << len(edges))

    # witness transfer on every symmetric pair at n=2, d=2
    shape22 = UniverseShape((2,), 2)
    sym22 = [SubsetMask(shape22, b) for b in range(16)
             if ref_is_symmetric(SubsetMask(shape22, b))]
    transferred = 0
    for A in sym22:
        for B in sym22:
            expect = None
            if A.bits != B.bits and A.bits & B.bits == A.bits:
                diff = A.bits ^ B.bits
                expect = next(
                    (frozenset(S) for S in _nonempty_subsets(2)
                     if _power_bits(shape22, S) == diff), None)
            w = find_witness(bundle_mask(beta_bijection(A)),
                             bundle_mask(beta_bijection(B)), CliqueDifference((1, 2)))
            assert (w.S if w else None) == expect
            if expect is not None:
                transferred += 1
    # each singleton S over the 4 symmetric off-diagonal backgrounds,
    # plus the empty-to-full pair with S = {1, 2}
    assert transferred == 9
    _pass(10, "beta/lift roundtrips, densities, witness transfer all exact")


def _subsets(pool):
    pool = list(pool)
    for size in range(len(pool) + 1):
        yield from (frozenset(c) for c in itertools.combinations(pool, size))


def test_criterion_11_extremal_anchors():
    start = time.monotonic()
    expected = (1, 2, 3, 6)
    for n in range(1, 5):
        shape = UniverseShape((1,), n)
        record = max_avoiding_family(shape, PolynomialDifference((1,)))
        assert record.max_size == expected[n - 1] == comb(n, n // 2)
        assert record.optimal
        members = sorted(record.witness_family.members)
        assert len(members) == record.max_size
        # at d=1 any nonempty difference is a power, so pattern-free
        # is exactly the antichain condition; recheck it raw
        assert not any(
            a != b and a & b == a for a in members for b in members)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"anchor sweep took {elapsed:.1f}s"
    _pass(11, "extremal anchors 1, 2, 3, 6 re-verified pattern-free")
