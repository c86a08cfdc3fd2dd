import copy
import dataclasses
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab import universe
from setdifflab.errors import CapExceededError, FormatError, ShapeMismatchError, capped_count
from setdifflab.fpforms import DistributionTable, LinearFormP, forms_from_text, support_size
from setdifflab.patterns import CliqueDifference, PolynomialDifference
from setdifflab.reductions import bundles_from_text, multiplex
from setdifflab.universe import (
    Family,
    OrderedWindow,
    SubsetMask,
    UniverseShape,
    _content_lines,
    _cross_bits,
    embed_lower_degree,
    family_from_text,
    family_to_text,
    mask_from_hex,
    mask_to_hex,
    single_part_degree,
)

from witness_oracles import (
    SAME_WINDOW,
    FamilyDifference,
    IntervalModN,
    from_points,
    is_interval,
    plant_into_window,
    points_of,
    restrict_and_relabel,
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
    for part in (0, 3):
        with pytest.raises(ValueError):
            sh.part_offset(part)


def test_cached_sizes_leave_equality_hash_and_pickle_alone():
    used, fresh = UniverseShape((1, 2), 3), UniverseShape((1, 2), 3)
    assert used.cells == 12 and used.full_bits == (1 << 12) - 1
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
        points = list(sh.points())
        assert len(set(points)) == len(points) == sh.cells
        for i, (part, coords) in enumerate(points):
            assert sh.index_of(part, coords) == i


def test_index_validation():
    sh = UniverseShape((2,), 3)
    with pytest.raises(ValueError):
        sh.index_of(1, (0, 1))
    with pytest.raises(ValueError):
        sh.index_of(1, (1, 4))
    with pytest.raises(ValueError):
        sh.index_of(1, (1,))
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
    product = from_points(UniverseShape((k + 1,), n), [
        (1, (x, *rest)) for x in range(1, n + 1) if xs >> x - 1 & 1
        for _, rest in points_of(tail)])
    assert _cross_bits(n, xs, tail.bits, k) == product.bits


def test_mask_bits_stay_inside_the_universe():
    with pytest.raises(ValueError):
        SubsetMask(UniverseShape((1,), 4), 1 << 4)


def test_relabel_worked_example():
    # X = {4, 2} ordered 4 < 2 relabels 4 -> 1, 2 -> 2
    sh = UniverseShape((1,), 4)
    A = from_points(sh, [(1, (2,)), (1, (4,))])
    out = restrict_and_relabel(A, OrderedWindow((4, 2)))
    assert out.shape == UniverseShape((1,), 2)
    assert out.bits == 0b11
    # only element 2 of A lies in the window {1, 2}
    out2 = restrict_and_relabel(A, OrderedWindow((1, 2)))
    assert points_of(out2) == [(1, (2,))]


def test_relabel_drops_mixed_points():
    sh = UniverseShape((2,), 3)
    A = from_points(sh, [(1, (1, 3)), (1, (1, 2)), (1, (2, 2))])
    out = restrict_and_relabel(A, OrderedWindow((1, 2)))
    # (1,3) has a coordinate outside {1,2} and must disappear
    assert points_of(out) == [(1, (1, 2)), (1, (2, 2))]


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
    assert region.bits.bit_count() == 4
    for b in range(16):
        f = SubsetMask(UniverseShape((2,), 2), b)
        planted = plant_into_window(f, w, sh)
        assert not planted.bits & ~region.bits
        assert restrict_and_relabel(planted, w).bits == b


def test_window_validation():
    for elements in ((1, 1), (), (0, 1)):
        with pytest.raises(ValueError):
            OrderedWindow(elements)
    with pytest.raises(ValueError):
        restrict_and_relabel(
            SubsetMask(UniverseShape((1,), 2), 0), OrderedWindow((1, 3))
        )
    assert OrderedWindow.interval(2, 3).elements == (2, 3, 4)
    assert is_interval(OrderedWindow.interval(2, 3))
    assert not is_interval(OrderedWindow((3, 1)))


def test_embed_worked_examples():
    sh = UniverseShape((2,), 3)
    A = from_points(sh, [(1, (1, 2))])
    img = embed_lower_degree(A, (3,))
    assert points_of(img) == [(1, (1, 1, 2))]
    B = from_points(UniverseShape((1,), 3), [(1, (2,))])
    img2 = embed_lower_degree(B, (3,))
    assert points_of(img2) == [(1, (2, 2, 2))]


def test_embed_injective_and_region_size():
    src = UniverseShape((1, 2), 3)
    target_degrees = (2, 3)
    full = embed_lower_degree(SubsetMask(src, src.full_bits), target_degrees)
    assert full.bits.bit_count() == src.cells  # injective on points
    images = set()
    for i in range(src.cells):
        img = embed_lower_degree(SubsetMask(src, 1 << i), target_degrees)
        assert img.bits.bit_count() == 1
        images.add(img.bits)
    assert len(images) == src.cells


def test_cell_cap_admits_the_degree3_n40_baseline():
    assert universe.CELL_CAP == 64 ** 3 == 512 ** 2
    assert UniverseShape((3,), 40).cells == 64000
    LinearFormP(p=5, coeffs=(1,) * 40).induced(3)


def test_cell_cap_boundary(monkeypatch):
    monkeypatch.setattr(universe, "CELL_CAP", 64)
    assert UniverseShape((3,), 4).cells == UniverseShape((6,), 2).cells == 64
    assert UniverseShape((1, 2), 7).cells == 56
    assert UniverseShape((10 ** 9,), 1).cells == 1
    for degrees, n in [((2,), 9), ((1, 2), 8), ((7,), 2), ((10 ** 9,), 2)]:
        with pytest.raises(CapExceededError):
            UniverseShape(degrees, n)
    form = LinearFormP(p=2, coeffs=(1, 1))
    assert support_size(form.induced(6)) == 64  # every one of the 2^6 cells
    for degree in (7, 10 ** 9):
        with pytest.raises(CapExceededError):
            form.induced(degree)
    fam = Family(UniverseShape((2,), 4), frozenset({1, 6}))
    assert multiplex(fam, 4).shape.cells == 64
    for s in (5, 10 ** 9):  # refused before the s-part degree tuple is built
        with pytest.raises(CapExceededError):
            multiplex(fam, s)
    # a file header past the cap is refused as such, not as malformed
    with pytest.raises(CapExceededError):
        family_from_text("shape s=1 d=2 n=9\n")
    with pytest.raises(CapExceededError):
        bundles_from_text("n=9 degrees=2\n-\n")


def test_capped_count_stops_at_the_cap():
    assert capped_count("cells", 64, 4, 3) == capped_count("cells", 64, 2, 5, factor=2) == 64
    assert capped_count("sets", 5, 0, 10 ** 9) == 0
    assert capped_count("sets", 5, 1, 10 ** 9, factor=5) == 5
    assert capped_count("sets", 5, 7, 0, factor=5) == 5
    # a refusal names what was counted and the cap, and returns at once
    # where 2^(10^18) could never be formed
    for args in [(4, 3, 2), (2, 10 ** 18), (65, 1), (1, 10 ** 18, 65)]:
        with pytest.raises(CapExceededError, match=r"widgets exceed the cap 64"):
            capped_count("widgets", 64, *args)


def test_embedding_is_injective_and_transfers_differences():
    src = UniverseShape((2,), 3)
    rng = random.Random(11)
    source_of = {}  # image bits -> the one mask that has this image
    for _ in range(50):
        a = rng.randrange(1 << src.cells)
        b = rng.randrange(1 << src.cells)
        A, B = SubsetMask(src, a), SubsetMask(src, b)
        iA, iB = embed_lower_degree(A, (3,)), embed_lower_degree(B, (3,))
        for X, image in ((A, iA), (B, iB)):
            assert image.bits.bit_count() == X.bits.bit_count()
            assert source_of.setdefault(image.bits, X.bits) == X.bits
        assert iB.bits & ~iA.bits == embed_lower_degree(SubsetMask(src, b & ~a), (3,)).bits


def test_embedded_region_and_degree_drop():
    target = UniverseShape((2,), 2)
    stray = from_points(target, [(1, (1, 2))])  # not of the form (x, x)
    source = UniverseShape((1,), 2)
    assert stray.bits & ~embed_lower_degree(SubsetMask(source, source.full_bits), (2,)).bits
    with pytest.raises(ValueError):
        embed_lower_degree(SubsetMask(target, 0), (1,))  # degrees must not drop


def test_family_density_and_membership():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, frozenset([0, 1, 5]))
    assert fam.density() == Fraction(3, 16)
    assert [m.bits for m in fam.masks()] == [0, 1, 5]
    assert Family(sh, range(1 << sh.cells)).density() == 1
    assert Family.from_masks(fam.masks()) == fam
    with pytest.raises(ValueError):
        Family.from_masks([])  # no mask to take the shape from
    with pytest.raises(ShapeMismatchError):
        Family.from_masks([SubsetMask(sh, 1), SubsetMask(UniverseShape((1,), 5), 1)])


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
    for header, error in [("shape s=1 d=0 n=3", "degrees must be positive"),
                          ("shape s=2 d=1,,2 n=3", "bad degree list '1,,2'"),
                          ("shape s=1 d=1 n=0", "side n must be a positive")]:
        with pytest.raises(FormatError, match=error):
            family_from_text(header + "\n")
    with pytest.raises(FormatError):
        family_from_text("shape s=1 d=1 n=3\nzz\n")
    with pytest.raises(FormatError):
        # bit 3 is outside a 3-cell universe
        family_from_text("shape s=1 d=1 n=3\n8\n")
    with pytest.raises(FormatError):
        family_from_text("shape s=1 d=1 n=3\n1\n1\n")
    # with a repeated and a bad line, the first in file order is reported
    with pytest.raises(FormatError, match="duplicate member '1'"):
        family_from_text("shape s=1 d=1 n=3\n1\n1\nzz\n")
    with pytest.raises(FormatError, match="bad member line 'zz'"):
        family_from_text("shape s=1 d=1 n=3\n1\nzz\n1\n")
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


def test_family_lines_split_where_str_splitlines_splits():
    # the parse walks the text lazily; a form feed, U+2028 and the other
    # str.splitlines boundaries still end a line, and the first repeated or
    # bad line in file order is still the one reported
    for text, error in [
            ("shape s=1 d=1 n=4\x0c1\u20282\n1\nzz\n", "duplicate member '1'"),
            ("shape s=1 d=1 n=4\u20281\x0czz\r\n1\n", "bad member line 'zz'"),
            ("# c\x0cshape s=1 d=1 n=4\r\n 3 \u2028\x85#x\x0c3\n", "duplicate member '3'"),
            ("shape s=1 d=1 n=4\x0c10\n", "bad member line '10'")]:
        with pytest.raises(FormatError, match=error):
            family_from_text(text)
    text = "shape s=1 d=1 n=4\u2029\x1e1\x1c2\x1d4\x0b8\x0c 9\x1f\n"
    assert sorted(family_from_text(text).members) == [1, 2, 4, 8, 9]


# the line boundaries of str.splitlines
LINE_BOUNDARIES = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]

# the three parsers that read lines through _content_lines: each with the
# lines of a good file, and of a file with two bad lines and the error the
# first of them raises
LINE_PARSERS = {
    "family": (family_from_text,
               ["shape s=1 d=1 n=4", "1", "# note", "", " 2 "],
               ["shape s=1 d=1 n=4", "1", "zz", "1", "yy"], "bad member line 'zz'"),
    "bundle": (bundles_from_text,
               ["n=3 degrees=2", "1,2 2,3", "# note", "", " - "],
               ["n=3 degrees=2", "1,2", "a", "1,2", "b"], "bad hyperedge 'a'"),
    "form": (forms_from_text,
             ["p=5", "1 2", "# note", "", " 3 4 "],
             ["p=5", "1 x", "1 2", "1 y"], "bad coefficient row '1 x'"),
}


@pytest.mark.parametrize("what", sorted(LINE_PARSERS))
def test_parsers_split_lines_where_str_splitlines_splits(what):
    parse, good, _, _ = LINE_PARSERS[what]
    expected = parse("\n".join(good) + "\n")
    for boundary in LINE_BOUNDARIES:
        assert parse(boundary.join(good) + boundary) == expected, repr(boundary)
    mixed = "".join(line + LINE_BOUNDARIES[i % len(LINE_BOUNDARIES)]
                    for i, line in enumerate(good))
    assert parse(mixed) == expected


@pytest.mark.parametrize("what", sorted(LINE_PARSERS))
def test_parsers_report_the_first_bad_line(what):
    parse, _, bad, error = LINE_PARSERS[what]
    for boundary in ("\n", "\x0c", "\u2028"):
        with pytest.raises(FormatError, match=error):
            parse(boundary.join(bad))
    with pytest.raises(FormatError, match=f"empty {what} file"):
        parse("# only a comment\x0c \u2028\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="a# \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029", max_size=40))
def test_content_lines_match_str_splitlines(text):
    stripped = [line.strip() for line in text.splitlines()]
    expected = [line for line in stripped if line and not line.startswith("#")]
    if expected:
        assert list(_content_lines(text, "test")) == expected
    else:
        with pytest.raises(FormatError, match="empty test file"):
            list(_content_lines(text, "test"))


def test_family_text_ignores_comments_and_blanks():
    fam = family_from_text("# comment\nshape s=1 d=1 n=3\n\n1\n# another\n5\n")
    assert sorted(fam.members) == [1, 5]


@pytest.mark.parametrize("parse, what", [
    (family_from_text, "family"), (bundles_from_text, "bundle"), (forms_from_text, "form")])
def test_text_parsers_share_the_content_filter(parse, what):
    for text in ("", "\n  \n", "# only\n  # comments\n\n"):
        with pytest.raises(FormatError, match=f"^empty {what} file$"):
            parse(text)


# ---------------------------------------------------------------------------
# Record against frozen dataclasses: each twin declares a record's fields and
# defaults by hand and borrows its __post_init__, so the two must agree on
# construction, normalisation, equality, hash, repr and set order.


@dataclasses.dataclass(frozen=True)
class ShapeTwin:
    degrees: tuple
    n: int
    __post_init__ = UniverseShape.__post_init__


@dataclasses.dataclass(frozen=True)
class MaskTwin:
    shape: UniverseShape
    bits: int
    __post_init__ = SubsetMask.__post_init__


@dataclasses.dataclass(frozen=True)
class TableTwin:
    p: int
    masses: tuple
    support_size: int
    uniformity_bound: Fraction
    __post_init__ = DistributionTable.__post_init__


@dataclasses.dataclass(frozen=True)
class FamilyDifferenceTwin:
    family: Family
    mode: str = SAME_WINDOW
    __post_init__ = FamilyDifference.__post_init__


@dataclasses.dataclass(frozen=True)
class PolynomialTwin:
    degrees: tuple
    __post_init__ = PolynomialDifference.__post_init__


@dataclasses.dataclass(frozen=True)
class IntervalTwin:
    pass


TWINS = {UniverseShape: ShapeTwin, SubsetMask: MaskTwin,
         DistributionTable: TableTwin, FamilyDifference: FamilyDifferenceTwin,
         PolynomialDifference: PolynomialTwin, IntervalModN: IntervalTwin}

degree_lists = st.lists(st.integers(0, 3), max_size=3)
FIELD_VALUES = {
    UniverseShape: st.tuples(st.one_of(degree_lists, degree_lists.map(tuple)),
                             st.integers(0, 4)),
    SubsetMask: st.tuples(st.sampled_from(SMALL_SHAPES), st.integers(-1, 1 << 9)),
    DistributionTable: st.tuples(
        st.integers(1, 3),
        st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
                 min_size=1, max_size=3).map(tuple),
        st.integers(0, 4), st.sampled_from([Fraction(1, 3), Fraction(2)])),
    FamilyDifference: st.tuples(
        st.sets(st.integers(0, 7), max_size=3).map(
            lambda members: Family(UniverseShape((1,), 3), frozenset(members))),
        st.sampled_from([SAME_WINDOW, "nested", "sideways"])),
    PolynomialDifference: st.tuples(st.one_of(degree_lists, degree_lists.map(tuple))),
    IntervalModN: st.just(()),
}


@st.composite
def record_calls(draw, cls):
    """(args, kwargs) for one constructor call of ``cls``: the first k fields
    by position, the rest by keyword, trailing defaults sometimes left out."""
    fields = dataclasses.fields(TWINS[cls])
    values = draw(FIELD_VALUES[cls])
    k = draw(st.integers(0, len(fields)))
    kwargs = {}
    for field, value in zip(fields[k:], values[k:]):
        has_default = field.default is not dataclasses.MISSING
        if not (has_default and draw(st.booleans())):
            kwargs[field.name] = value
    return tuple(values[:k]), kwargs


def build(cls, call):
    """The instance, or the ValueError message it raised."""
    args, kwargs = call
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def field_values(obj) -> tuple:
    twin = TWINS.get(type(obj), type(obj))
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(twin))


@st.composite
def record_cases(draw):
    cls = draw(st.sampled_from(sorted(TWINS, key=lambda c: c.__name__)))
    calls = draw(st.lists(record_calls(cls), min_size=1, max_size=5))
    if draw(st.booleans()):
        calls.append(calls[0])  # an equal pair, built again
    return cls, calls


@settings(max_examples=300, deadline=None)
@given(record_cases())
def test_record_matches_frozen_dataclass(case):
    cls, calls = case
    twin = TWINS[cls]
    records = [build(cls, call) for call in calls]
    twins = [build(twin, call) for call in calls]
    for rec, ref in zip(records, twins):
        if isinstance(ref, str):
            assert rec == ref  # the same ValueError message
            continue
        assert type(rec) is cls
        assert field_values(rec) == field_values(ref)
        assert hash(rec) == hash(ref)
        assert repr(rec) == repr(ref).replace(twin.__qualname__, cls.__qualname__, 1)
    built = [(rec, ref) for rec, ref in zip(records, twins) if not isinstance(ref, str)]
    for (a, a_ref), (b, b_ref) in itertools.product(built, repeat=2):
        assert (a == b) == (a_ref == b_ref) and (a != b) == (a_ref != b_ref)
    # equal hashes and equality give the same set and dict order
    assert [field_values(r) for r in {rec: 0 for rec, _ in built}] == \
        [field_values(r) for r in {ref: 0 for _, ref in built}]
    assert [field_values(r) for r in set(rec for rec, _ in built)] == \
        [field_values(r) for r in set(ref for _, ref in built)]


def test_record_normalises_and_defaults():
    assert UniverseShape([1], 3).degrees == (1,)
    assert UniverseShape(n=3, degrees=[1, 2]) == UniverseShape((1, 2), 3)
    assert PolynomialDifference([1, 2]).degrees == (1, 2)
    fam = Family(UniverseShape((1,), 2), [1, 2])
    assert fam.members == frozenset({1, 2})
    assert FamilyDifference(fam).mode == SAME_WINDOW


def test_record_refuses_bad_calls():
    for args, kwargs in [((), {}), (((1,),), {}), (((1,), 2, 3), {}),
                         (((1,), 2), {"n": 2}), (((1,),), {"n": 2, "side": 2})]:
        with pytest.raises(TypeError):
            ShapeTwin(*args, **kwargs)
        with pytest.raises(TypeError):
            UniverseShape(*args, **kwargs)


def test_record_is_frozen():
    shape = UniverseShape((1, 2), 2)
    assert shape.cells == 6  # cached_property still writes its cache
    for obj in (shape, ShapeTwin((1, 2), 2)):
        with pytest.raises(AttributeError):
            obj.n = 3
        with pytest.raises(AttributeError):
            del obj.n
        with pytest.raises(AttributeError):
            obj.extra = 1
        with pytest.raises(AttributeError):
            obj.cells = 7
    assert shape.n == 2 and shape.cells == 6


def test_records_of_different_classes_differ():
    assert PolynomialDifference((1, 2)) != CliqueDifference((1, 2))
    assert hash(PolynomialDifference((1, 2))) == hash(CliqueDifference((1, 2)))
    assert len({PolynomialDifference((1, 2)), CliqueDifference((1, 2))}) == 2
    assert UniverseShape((1,), 2) != ((1,), 2)
    assert IntervalModN() == IntervalModN() and hash(IntervalModN()) == hash(())


def test_record_copies_and_pickles():
    mask = SubsetMask(UniverseShape((2,), 2), 0b0110)
    for again in (copy.copy(mask), copy.deepcopy(mask), pickle.loads(pickle.dumps(mask))):
        assert again == mask and hash(again) == hash(mask) and again is not mask
