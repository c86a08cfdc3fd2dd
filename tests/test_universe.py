import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab.errors import FormatError, ShapeMismatchError
from setdifflab.fpforms import forms_from_text
from setdifflab.reductions import bundles_from_text
from setdifflab.universe import (
    Family,
    OrderedWindow,
    SubsetMask,
    UniverseShape,
    _cross_bits,
    embed_lower_degree,
    embed_preimage,
    embedded_region,
    family_from_text,
    family_to_text,
    mask_from_hex,
    mask_to_hex,
    plant_into_window,
    restrict_and_relabel,
    single_part_degree,
    window_region,
)

SMALL_SHAPES = [
    UniverseShape((1,), 3),
    UniverseShape((2,), 3),
    UniverseShape((3,), 2),
    UniverseShape((1, 2), 2),
    UniverseShape((2, 2), 2),
    UniverseShape((1, 1, 2), 2),
]


def test_index_worked_example():
    sh = UniverseShape((2,), 3)
    assert sh.index_of(1, (2, 3)) == 5


def test_multi_part_offsets():
    sh = UniverseShape((1, 2), 2)
    assert sh.part_offset(1) == 0
    assert sh.part_offset(2) == 2
    assert sh.cells == 6
    assert sh.index_of(2, (1, 2)) == 3
    assert sh.index_of(2, (2, 1)) == 4


def test_cached_sizes_leave_equality_hash_and_pickle_alone():
    used, fresh = UniverseShape((1, 2), 3), UniverseShape((1, 2), 3)
    assert used.cells == 12 and used.full_bits() == (1 << 12) - 1
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    again = pickle.loads(pickle.dumps(used))
    assert again == used and again.cells == 12


def test_single_part_degree():
    assert single_part_degree(UniverseShape((3,), 2)) == 3
    with pytest.raises(ShapeMismatchError):
        single_part_degree(UniverseShape((1, 2), 2))


def test_index_point_roundtrip_exhaustive():
    for sh in SMALL_SHAPES:
        seen = set()
        for i in range(sh.cells):
            part, coords = sh.point_of(i)
            assert sh.index_of(part, coords) == i
            seen.add((part, coords))
        assert len(seen) == sh.cells
        assert list(sh.points()) == [sh.point_of(i) for i in range(sh.cells)]


def test_index_validation():
    sh = UniverseShape((2,), 3)
    with pytest.raises(ValueError):
        sh.index_of(1, (0, 1))
    with pytest.raises(ValueError):
        sh.index_of(1, (1, 4))
    with pytest.raises(ValueError):
        sh.index_of(1, (1,))
    with pytest.raises(ValueError):
        sh.point_of(9)
    with pytest.raises(ValueError):
        UniverseShape((0,), 3)
    with pytest.raises(ValueError):
        UniverseShape((1,), 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cross_bits_matches_point_product(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 3))
    xs = data.draw(st.integers(0, (1 << n) - 1))
    tail = SubsetMask(UniverseShape((k,), n), data.draw(st.integers(0, (1 << n ** k) - 1)))
    product = SubsetMask.from_points(UniverseShape((k + 1,), n), [
        (1, (x, *rest)) for x in range(1, n + 1) if xs >> x - 1 & 1
        for _, rest in tail.points()])
    assert _cross_bits(n, xs, tail.bits, k) == product.bits


def test_mask_set_algebra():
    sh = UniverseShape((1,), 4)
    a = SubsetMask(sh, 0b0011)
    b = SubsetMask(sh, 0b0110)
    assert a.union(b).bits == 0b0111
    assert a.intersection(b).bits == 0b0010
    assert a.difference(b).bits == 0b0001
    assert a.symmetric_difference(b).bits == 0b0101
    assert a.complement().bits == 0b1100
    assert len(a) == 2
    assert not a.issubset(b)
    assert a.intersection(b).issubset(b)
    with pytest.raises(ShapeMismatchError):
        a.union(SubsetMask(UniverseShape((1,), 3), 0))
    with pytest.raises(ValueError):
        SubsetMask(sh, 1 << 4)


def test_relabel_worked_example():
    # X = {4, 2} ordered 4 < 2 relabels 4 -> 1, 2 -> 2
    sh = UniverseShape((1,), 4)
    A = SubsetMask.from_points(sh, [(1, (2,)), (1, (4,))])
    out = restrict_and_relabel(A, OrderedWindow((4, 2)))
    assert out.shape == UniverseShape((1,), 2)
    assert out.bits == 0b11
    # only element 2 of A lies in the window {1, 2}
    out2 = restrict_and_relabel(A, OrderedWindow((1, 2)))
    assert sorted(out2.points()) == [(1, (2,))]


def test_relabel_drops_mixed_points():
    sh = UniverseShape((2,), 3)
    A = SubsetMask.from_points(sh, [(1, (1, 3)), (1, (1, 2)), (1, (2, 2))])
    out = restrict_and_relabel(A, OrderedWindow((1, 2)))
    # (1,3) has a coordinate outside {1,2} and must disappear
    assert sorted(out.points()) == [(1, (1, 2)), (1, (2, 2))]


@pytest.mark.parametrize(
    "sh,window",
    [
        (UniverseShape((1,), 3), OrderedWindow((2, 3))),
        (UniverseShape((2,), 3), OrderedWindow((1, 3))),
        (UniverseShape((2,), 3), OrderedWindow((3, 1))),
        (UniverseShape((1, 2), 2), OrderedWindow((2,))),
    ],
)
def test_relabel_surjective_with_equal_fibers(sh, window):
    small_cells = UniverseShape(sh.degrees, window.m).cells
    fibers = Counter(
        restrict_and_relabel(SubsetMask(sh, b), window).bits
        for b in range(1 << sh.cells)
    )
    assert len(fibers) == 1 << small_cells
    expected = 1 << (sh.cells - small_cells)
    assert set(fibers.values()) == {expected}


def test_plant_is_right_inverse():
    sh = UniverseShape((2,), 4)
    w = OrderedWindow((2, 4))
    region = window_region(sh, w)
    assert len(region) == 4
    for b in range(16):
        f = SubsetMask(UniverseShape((2,), 2), b)
        planted = plant_into_window(f, w, sh)
        assert planted.issubset(region)
        assert restrict_and_relabel(planted, w).bits == b


def test_window_validation():
    with pytest.raises(ValueError):
        OrderedWindow((1, 1))
    with pytest.raises(ValueError):
        restrict_and_relabel(
            SubsetMask(UniverseShape((1,), 2), 0), OrderedWindow((1, 3))
        )
    assert OrderedWindow.interval(2, 3).elements == (2, 3, 4)
    assert OrderedWindow.interval(2, 3).is_interval()
    assert not OrderedWindow((3, 1)).is_interval()


def test_embed_worked_examples():
    sh = UniverseShape((2,), 3)
    A = SubsetMask.from_points(sh, [(1, (1, 2))])
    img = embed_lower_degree(A, (3,))
    assert sorted(img.points()) == [(1, (1, 1, 2))]
    B = SubsetMask.from_points(UniverseShape((1,), 3), [(1, (2,))])
    img2 = embed_lower_degree(B, (3,))
    assert sorted(img2.points()) == [(1, (2, 2, 2))]


def test_embed_injective_and_region_size():
    src = UniverseShape((1, 2), 3)
    target_degrees = (2, 3)
    full = embedded_region(src, target_degrees)
    assert len(full) == src.cells  # injective on points
    images = set()
    for i in range(src.cells):
        part, coords = src.point_of(i)
        pt_mask = SubsetMask.from_points(src, [(part, coords)])
        img = embed_lower_degree(pt_mask, target_degrees)
        assert len(img) == 1
        images.add(img.bits)
    assert len(images) == src.cells


def test_embed_preimage_roundtrip_and_difference_transfer():
    src = UniverseShape((2,), 3)
    rng = random.Random(11)
    for _ in range(50):
        a = rng.randrange(1 << src.cells)
        b = rng.randrange(1 << src.cells)
        A, B = SubsetMask(src, a), SubsetMask(src, b)
        iA, iB = embed_lower_degree(A, (3,)), embed_lower_degree(B, (3,))
        assert embed_preimage(iA, (2,)) == A
        assert iB.difference(iA) == embed_lower_degree(B.difference(A), (3,))


def test_embed_preimage_rejects_offregion_mask():
    target = UniverseShape((2,), 2)
    stray = SubsetMask.from_points(target, [(1, (1, 2))])  # not of the form (x, x)
    with pytest.raises(ValueError):
        embed_preimage(stray, (1,))
    with pytest.raises(ValueError):
        embed_lower_degree(SubsetMask(target, 0), (1,))  # degrees must not drop


def test_family_density_and_membership():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, frozenset([0, 1, 5]))
    assert fam.density() == Fraction(3, 16)
    assert SubsetMask(sh, 5) in fam
    assert SubsetMask(sh, 2) not in fam
    assert [m.bits for m in fam.masks()] == [0, 1, 5]
    assert Family.full_power_set(sh).density() == 1


def test_hex_orientation_most_significant_cell_last():
    assert mask_to_hex(0x01, 8) == "10"
    assert mask_to_hex(0x80, 8) == "08"
    assert mask_from_hex("10", 8) == 1
    assert mask_from_hex("08", 8) == 0x80
    for cells in (1, 3, 4, 9, 16):
        for b in (0, 1, (1 << cells) - 1, 1 << (cells - 1)):
            assert mask_from_hex(mask_to_hex(b, cells), cells) == b


def test_family_text_roundtrip():
    rng = random.Random(7)
    for sh in SMALL_SHAPES:
        members = frozenset(
            rng.randrange(1 << sh.cells) for _ in range(rng.randrange(1, 9))
        )
        fam = Family(sh, members)
        text = family_to_text(fam)
        assert family_from_text(text) == fam
        # canonical output is sorted ascending
        body = [ln for ln in text.splitlines()[1:] if ln]
        assert body == sorted(body, key=lambda h: mask_from_hex(h, sh.cells))


def test_family_text_errors():
    with pytest.raises(FormatError):
        family_from_text("")
    with pytest.raises(FormatError):
        family_from_text("shape s=2 d=1 n=3\n0\n")
    with pytest.raises(FormatError):
        family_from_text("not a header\n0\n")
    with pytest.raises(FormatError):
        family_from_text("shape s=1 d=1 n=3\nzz\n")
    with pytest.raises(FormatError):
        # bit 3 is outside a 3-cell universe
        family_from_text("shape s=1 d=1 n=3\n8\n")
    with pytest.raises(FormatError):
        family_from_text("shape s=1 d=1 n=3\n1\n1\n")
    # three digits each, all of which int(_, 16) takes: upper case, a sign,
    # an underscore, a 0x prefix and a non-ASCII digit (read reversed)
    for line in ("A00", "10+", "0_1", "1x0", "1\u06610"):
        assert 0 <= int(line[::-1], 16) < 1 << 12
        with pytest.raises(FormatError):
            family_from_text(f"shape s=1 d=1 n=12\n{line}\n")
        with pytest.raises(FormatError):
            mask_from_hex(line, 12)
    with pytest.raises(FormatError):
        mask_from_hex(" 10", 12)  # blanks around a line are stripped before


def test_family_text_ignores_comments_and_blanks():
    fam = family_from_text("# comment\nshape s=1 d=1 n=3\n\n1\n# another\n5\n")
    assert sorted(fam.members) == [1, 5]


@pytest.mark.parametrize("parse, what", [
    (family_from_text, "family"), (bundles_from_text, "bundle"), (forms_from_text, "form")])
def test_text_parsers_share_the_content_filter(parse, what):
    for text in ("", "\n  \n", "# only\n  # comments\n\n"):
        with pytest.raises(FormatError, match=f"^empty {what} file$"):
            parse(text)
