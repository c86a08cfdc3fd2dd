"""Random inputs for every subcommand and text parser: no input ends in a
traceback.

Each case is a small generated family, form, bundle or pattern file plus flag
values, some malformed on purpose, run through ``cli.main`` in this process.
The exit code must be 0, 2, 3 or 4 (never 1, an uncaught exception, nor 5, a
contract violation); a failing run writes nothing to stdout; and a second run
of the same case gives the same bytes.  The parsers are fuzzed on their own
too: they may raise only ``FormatError`` or ``ValueError``.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab import cli
from setdifflab.errors import FormatError
from setdifflab.fpforms import forms_from_text
from setdifflab.reductions import bundles_from_text
from setdifflab.universe import family_from_text, mask_to_hex

# each case draws one seeded Random and builds its files and flags from it
FUZZ = settings(derandomize=True, database=None, deadline=None)
CASES = st.randoms(use_true_random=True)

# (degrees, largest n): every well-formed family header has at most 16 cells
SHAPES = [((1,), 6), ((2,), 3), ((3,), 2), ((1, 1), 4), ((1, 2), 2)]
BAD_FAMILY_HEADERS = ["shape s=2 d=1 n=3", "shape s=1 d=0 n=3", "shape s=1 d=1 n=0",
                      "shape s=1 d=2 n=1000", "shape s=0 d= n=2", "shape s=1 d=1,,2 n=2",
                      "shape s=1 d=1 n=-2", "shape s=1 d=1 n=4 x", "nonsense", "#"]
FORM_HEADERS = ["p=2", "p=3", "p=5", "p=7"]
BAD_FORM_HEADERS = ["p=0", "p=1", "p=4", "p=257", "p=", "q=3", "p=3 x", "p=-3"]
BUNDLE_DEGREES = ["2", "1", "1,2", "2,2", "3"]
BAD_BUNDLE_DEGREES = ["0", "1,", "", "x"]
P_VALUES = ["0", "1", "2", "3", "4", "5", "257"]
RATIONALS = ["1/4", "1/2", "1", "3/2", "0.25", "25e-2", "1e-6", "1e-9999"]
BAD_RATIONALS = ["0", "-1/3", "1/0", "1e-99999", "abc", "nan", ""]
WINDOWS = ["-1", "0", "1", "2", "3", "4"]
# the line boundaries of str.splitlines among the characters of the formats
TEXT = "0123456789abcdefF shape=,-#pnx\n\r\x0b\x85\u2028"


def _pick(rng, good, bad=()):
    """A value from ``good``, or one time in six from ``bad``."""
    return rng.choice(bad if bad and rng.random() < 1 / 6 else good)


def _junk(rng, size=8) -> str:
    return "".join(rng.choices(TEXT, k=rng.randrange(size + 1)))


def _text(rng, header: str, row) -> str:
    """The header, then distinct rows drawn by ``row()``, none one time in
    six, and one time in eight a junk line among them."""
    rows = list(dict.fromkeys(row() for _ in range(rng.randint(1, 6) if rng.randrange(6) else 0)))
    if rng.random() < 1 / 8:
        rows.insert(rng.randrange(len(rows) + 1), _junk(rng).strip("\n"))
    return "\n".join([header, *rows]) + "\n"


def family_text(rng, degrees=None, n=None) -> str:
    if degrees is None:
        degrees, top = _pick(rng, SHAPES[:3], SHAPES[3:])  # mostly a single part
        n = rng.randint(1, top)
    cells = sum(n ** d for d in degrees)
    header = f"shape s={len(degrees)} d={','.join(map(str, degrees))} n={n}"
    return _text(rng, _pick(rng, [header], BAD_FAMILY_HEADERS),
                 lambda: mask_to_hex(rng.getrandbits(cells), cells))


def form_text(rng) -> str:
    return _text(rng, _pick(rng, FORM_HEADERS, BAD_FORM_HEADERS),
                 lambda: " ".join(str(rng.randint(-3, 9)) for _ in range(rng.randint(1, 5))))


def bundle_text(rng, degrees=None) -> str:
    n = rng.randrange(5)
    degrees = degrees or _pick(rng, BUNDLE_DEGREES, BAD_BUNDLE_DEGREES)
    sizes = [int(d) for d in degrees.split(",") if d.isdecimal()] or [2]
    vertices = _pick(rng, [range(1, n + 1)], [range(n + 2)]) or [1]
    def part():
        edges = [",".join(map(str, rng.choices(vertices, k=rng.choice(sizes))))
                 for _ in range(rng.randrange(4))]
        return " ".join(edges) or "-"
    return _text(rng, f"n={n} degrees={degrees}", part)


def cli_case(rng):
    """(files by name, argv): a name in argv stands for its file's path."""
    command = rng.choice(["scan", "phidist", "quasirandomize", "extremal",
                          "verify-framework", "demo-interval", "reduce"])
    files, argv = {}, [command]
    rational = lambda: _pick(rng, RATIONALS, BAD_RATIONALS)
    if command == "scan":
        m = _pick(rng, [1, 2, 3], [-1, 0])
        degrees, top = rng.choice(SHAPES)
        files["fam"] = family_text(rng, degrees, rng.randint(1, top))
        files["pat"] = family_text(rng, _pick(rng, [degrees], [(1,), (2,)]), max(m, 1))
        argv += ["--family", "fam", "--m", str(m), "--pattern-family", "pat"]
        if rng.random() < 1 / 2:
            argv += ["--epsilon=" + rational(), "--delta=" + rational()]
    elif command == "phidist":
        files["forms"] = form_text(rng)
        argv += ["--forms", "forms", "--degree", _pick(rng, ["1", "2", "3"], ["-1", "0"])]
    elif command == "quasirandomize":
        files["fam"] = family_text(rng)
        argv += ["--family", "fam", "--p", rng.choice(P_VALUES), "--eta=" + rational()]
        if rng.random() < 1 / 2:
            argv += ["--pool", _pick(rng, ["small", "exhaustive"], ["all"])]
        if rng.random() < 1 / 4:
            files["forms"] = form_text(rng)
            argv += ["--forms", "forms"]
        if rng.random() < 1 / 4:
            argv += ["--m", *rng.choices(WINDOWS, k=rng.randint(1, 3))]
        if rng.random() < 1 / 4:
            argv += ["--max-steps", _pick(rng, ["0", "1", "2", "-1"], ["x"])]
    elif command == "extremal":
        # at most 10 cells, or refused before any graph; the time limit has
        # either passed before the search starts or outlasts it, so both
        # runs agree
        degrees, n = _pick(rng, [((1,), 8), ((1,), 10), ((2,), 2), ((2,), 3), ((1, 1), 3),
                                 ((1, 2), 2), ((1, 3), 2)],
                           [((0,), 2), ((1,), 0), ((2,), 600), ((1,), 20)])
        cells = sum(n ** d for d in degrees)
        argv += ["--d", *map(str, degrees), "--n", str(n),
                 "--pattern", rng.choice(["power", "clique"]),
                 "--time-limit", _pick(rng, ["-1", "60" if cells <= 8 else "-1"],
                                       ["nan", "inf", "x"])]
    elif command == "verify-framework":
        argv += ["--n", _pick(rng, ["1", "2", "3", "5"], ["-1", "0", "14", "x"])]
    elif command == "demo-interval":
        n = rng.randrange(6)
        files["fam"] = _pick(rng, [family_text(rng, (1,), max(n, 1))], [family_text(rng)])
        argv += ["--n", str(n), "--family", "fam"]
    else:
        mode = rng.choice(["beta", "beta-inverse", "multiplex", "embed", "clique"])
        flag = "--bundles" if mode in ("beta-inverse", "clique") else "--family"
        argv += ["--mode", mode]
        if rng.random() < 7 / 8:  # mostly the file the mode reads
            files["in"] = (family_text(rng) if flag == "--family"
                           else bundle_text(rng, "2" if mode == "clique" else None))
            argv += [flag, "in"]
        if mode == "multiplex" or rng.random() < 1 / 8:
            argv += ["--s", _pick(rng, ["-1", "0", "1", "2", "3"], ["100000000"])]
        if mode == "embed" or rng.random() < 1 / 8:
            argv += ["--degrees", *rng.choices(["0", "1", "2", "3", "40"], k=rng.randint(1, 2))]
    if rng.random() < 1 / 8:
        argv += ["--out", rng.choice(["report.json", "."])]
    return files, argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(FUZZ, max_examples=300)
@given(CASES)
def test_every_subcommand_exits_cleanly(rng):
    files, argv = cli_case(rng)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        paths = {**{name: os.path.join(tmp, name) for name in files},
                 "report.json": os.path.join(tmp, "report.json"), ".": tmp}
        argv = [paths.get(arg, arg) for arg in argv]
        runs = []
        for _ in range(2):
            code, out, err = run(argv)
            assert code in (0, 2, 3, 4), (argv, files, err)
            if code:
                assert out == "", argv
            report = Path(paths["report.json"])
            runs.append((code, out, err, report.exists() and report.read_text(encoding="utf-8")))
        assert runs[0] == runs[1], argv


@settings(FUZZ, max_examples=200)
@given(CASES)
def test_parsers_raise_only_value_errors(rng):
    text = rng.choice([family_text, form_text, bundle_text, _junk])(rng)
    for parse in (family_from_text, forms_from_text, bundles_from_text):
        try:
            parse(text)
        except (FormatError, ValueError):
            pass
