"""setdiff: batch experiment runner emitting exact JSON reports.

Every subcommand writes a single JSON document (stdout, or --out) with the
envelope {tool, version, config, seed, report}.  Rationals appear as
"num/den" strings throughout so reports stay exact, and serialization sorts
keys, making repeated runs byte-identical for a fixed config.

Every job is a fresh process, so start-up is paid once per report: this
module imports only the standard library and ``errors`` at module level, and
each ``cmd_*`` imports the layers it calls (``--version`` loads none).

Exit codes: 0 success, 2 usage, 3 malformed or unreadable input file or
unwritable --out, 4 domain error, 5 internal contract violation.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import (ContractViolationError, FormatError, ShapeMismatchError,
                     capped_count)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


# the most digits a rational flag's decimal exponent may have: Fraction
# spells out 10^exponent, and at 1e-30000000 that runs for well over 20 s
_EXPONENT_DIGITS = 4


def _rational(text: str) -> Fraction:
    """The type of ``--eta``, ``--epsilon`` and ``--delta``: a ``Fraction``
    (``1/4``, ``0.25``, ``25e-2``).  A zero denominator, or an exponent of
    more than ``_EXPONENT_DIGITS`` digits, is a usage error (exit 2); the
    exponent is refused before any power of 10 is formed."""
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and len(digits) > _EXPONENT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"the exponent of {text!r} has more than {_EXPONENT_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational") from None


def _jsonable(value):
    if isinstance(value, Fraction):
        from .universe import _frac
        return _frac(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _config(args) -> dict:
    skip = {"func", "parser", "out"}
    return {
        key: _jsonable(value)
        for key, value in vars(args).items()
        if key not in skip
    }


def _emit(args, report: dict) -> None:
    doc = {
        "tool": "setdiff",
        "version": __version__,
        "config": _config(args),
        "seed": None,  # no subcommand draws at random; kept for stable bytes
        "report": report,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _family_json(fam) -> dict:
    from .universe import mask_to_hex
    return {
        "shape": {"degrees": list(fam.shape.degrees), "n": fam.shape.n},
        "size": len(fam),
        "members": [mask_to_hex(b, fam.shape.cells) for b in sorted(fam.members)],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_scan(args) -> None:
    from .covering import guarantee_threshold, scan_for_dense_cell
    from .universe import _frac, family_from_text
    fam = family_from_text(_read(args.family))
    pattern_family = family_from_text(_read(args.pattern_family))
    if (args.epsilon is None) != (args.delta is None):
        raise ValueError("the scan guarantee needs both --epsilon and --delta")
    threshold = None
    if args.epsilon is not None:
        if not 0 < args.epsilon < args.delta:
            raise ValueError(
                f"need 0 < epsilon < delta, got epsilon={args.epsilon} "
                f"delta={args.delta}")
        threshold = guarantee_threshold(args.m, fam.shape.degrees, args.epsilon)
    cell, best, average = scan_for_dense_cell(fam, args.m, pattern_family)
    report = {
        "shape": {"degrees": list(fam.shape.degrees), "n": fam.shape.n},
        "family_size": len(fam),
        "family_density": _frac(fam.density()),
        "cell": {
            "window": list(cell.window.elements),
            "background": cell.background.to_hex(),
        },
        "max_density": _frac(best),
        "average_density": _frac(average),
        "guarantee_met": None,
    }
    if threshold is not None:
        report["guarantee_threshold"] = _frac(threshold)
        report["guarantee_met"] = bool(
            fam.density() >= args.delta and fam.shape.n >= threshold)
    _emit(args, report)


def cmd_phidist(args) -> None:
    from .fpforms import distribution, forms_from_text
    forms = forms_from_text(_read(args.forms))
    tables = [distribution(form.induced(args.degree)) for form in forms]
    report = {
        "degree": args.degree,
        "tables": [
            {"form": {"p": f.p, "coeffs": list(f.coeffs)}, **t.to_json()}
            for f, t in zip(forms, tables)
        ],
    }
    _emit(args, report)


def cmd_quasirandomize(args) -> None:
    from .fpforms import forms_from_text
    from .increment import DEFAULT_FORM_BUDGET, quasirandomize
    from .universe import family_from_text
    if args.forms and args.pool == "exhaustive":
        args.parser.error("--forms cannot be combined with --pool exhaustive")
    fam = family_from_text(_read(args.family))
    if args.eta <= 0:
        raise ValueError("eta must be positive")
    if args.m and min(args.m) < 1:
        raise ValueError(f"--m needs positive window sizes, got {args.m}")
    if args.max_steps is not None and args.max_steps < 0:
        raise ValueError(f"--max-steps must be nonnegative, got {args.max_steps}")
    if args.pool == "exhaustive":
        budget = capped_count(
            f"the {args.p}^{fam.shape.n} forms of an exhaustive pool",
            DEFAULT_FORM_BUDGET, args.p, fam.shape.n)
    else:
        budget = 0  # force the weight-<=2 pool
    extra = ()
    if args.forms:
        extra = tuple(forms_from_text(_read(args.forms)))
    schedule = tuple(args.m) if args.m else None
    final, trace, pair = quasirandomize(
        fam, args.p, args.eta, m_schedule=schedule, search_budget=budget,
        extra_forms=extra, max_steps=args.max_steps)
    report = trace.to_json()
    report["pattern_pair"] = None if pair is None else {
        "A": pair[0].to_hex(),
        "B": pair[1].to_hex(),
        "witness": pair[2].to_json(),
    }
    report["final_family"] = _family_json(final)
    _emit(args, report)


def cmd_extremal(args) -> None:
    from .extremal import max_avoiding_family
    from .patterns import CliqueDifference, PolynomialDifference
    from .universe import UniverseShape
    if args.time_limit is not None and not math.isfinite(args.time_limit):
        raise ValueError(f"time limit must be finite, got {args.time_limit}")
    shape = UniverseShape(tuple(args.d), args.n)
    pattern = CliqueDifference if args.pattern == "clique" else PolynomialDifference
    record = max_avoiding_family(shape, pattern(shape.degrees),
                                 time_limit=args.time_limit)
    _emit(args, record.to_json())


def cmd_verify_framework(args) -> None:
    from .covering import verify_framework_conditions
    _emit(args, vars(verify_framework_conditions(args.n)))


def cmd_demo_interval(args) -> None:
    from .covering import demo_average_density
    from .universe import _frac, family_from_text
    fam = family_from_text(_read(args.family))
    if fam.shape.degrees != (1,) or fam.shape.n != args.n:
        raise ShapeMismatchError(
            f"family lives on degrees={fam.shape.degrees} n={fam.shape.n}, "
            f"but the demo needs degrees=(1,) n={args.n}")
    average = demo_average_density(args.n, fam.members)
    report = {
        "n": args.n,
        "family_size": len(fam),
        "average_density": _frac(average),
    }
    _emit(args, report)


def cmd_reduce(args) -> None:
    from .reductions import (beta_bijection, beta_inverse, bundles_from_text,
                             bundles_to_text, clique_square_correspondence, multiplex)
    from .universe import (Family, SubsetMask, embed_lower_degree,
                           family_from_text, family_to_text)
    mode = args.mode
    # the flags each mode reads, all required
    flags = ("bundles",) if mode in ("beta-inverse", "clique") else ("family",)
    flags += {"multiplex": ("s",), "embed": ("degrees",)}.get(mode, ())
    for flag in flags:
        if getattr(args, flag) in (None, ""):
            args.parser.error(f"--mode {mode} requires --{flag}")
    for flag in ("family", "bundles", "s", "degrees"):
        if flag not in flags and getattr(args, flag) != args.parser.get_default(flag):
            args.parser.error(f"--mode {mode} does not read --{flag}")
    text = _read(getattr(args, flags[0]))

    if mode == "beta":
        bundles = [beta_bijection(mask) for mask in family_from_text(text).masks()]
        _emit(args, {"mode": mode, "count": len(bundles),
                     "bundles_text": bundles_to_text(bundles)})
        return
    if mode == "beta-inverse":
        fam = Family.from_masks(beta_inverse(b) for b in bundles_from_text(text))
    elif mode == "multiplex":
        fam = multiplex(family_from_text(text), args.s)
    elif mode == "embed":
        source = family_from_text(text)
        # the empty mask's image checks the degrees, also on an empty family
        target = embed_lower_degree(SubsetMask(source.shape, 0), args.degrees).shape
        fam = Family(target, frozenset(embed_lower_degree(mask, target.degrees).bits
                                       for mask in source.masks()))
    else:  # clique
        bundles = bundles_from_text(text)
        if bundles[0].degrees != (2,):  # one header per file
            raise ValueError(
                f"--mode clique needs graphs (degrees=2), got {bundles[0].degrees}")
        fam = clique_square_correspondence([b.parts[0] for b in bundles],
                                           bundles[0].n)
    _emit(args, {"mode": mode, "count": len(fam),
                 "family_text": family_to_text(fam)})


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setdiff",
        description="Exact scans, form distributions, quasirandomization, "
                    "reductions and extremal searches over finite power sets.")
    parser.add_argument("--version", action="version",
                        version=f"setdiff {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="subcommand")

    p = sub.add_parser("scan", parents=[common],
                       help="max-density covering cell of a family file")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--pattern-family", required=True, metavar="FILE",
                   help="family file over the window shape [m]")
    p.add_argument("--epsilon", type=_rational)
    p.add_argument("--delta", type=_rational)
    p.set_defaults(func=cmd_scan, parser=p)

    p = sub.add_parser("phidist", parents=[common],
                       help="value distribution of each form in a form file")
    p.add_argument("--forms", required=True, metavar="FILE")
    p.add_argument("--degree", type=int, default=1,
                   help="induce each form to this degree before evaluating")
    p.set_defaults(func=cmd_phidist, parser=p)

    p = sub.add_parser("quasirandomize", parents=[common],
                       help="density-increment loop on a family file")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--eta", required=True, type=_rational)
    p.add_argument("--pool", choices=("small", "exhaustive"), default="small",
                   help="form search pool: weight-<=2 vectors or all p^n vectors")
    p.add_argument("--forms", metavar="FILE",
                   help="extra forms for the small pool, over the input's "
                        "[n]; only the first search uses them")
    p.add_argument("--m", type=int, nargs="+",
                   help="window sizes per step (default: adaptive)")
    p.add_argument("--max-steps", type=int)
    p.set_defaults(func=cmd_quasirandomize, parser=p)

    p = sub.add_parser("extremal", parents=[common],
                       help="largest pattern-free family, exactly")
    p.add_argument("--d", required=True, type=int, nargs="+",
                   help="degree of each part")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--pattern", choices=("power", "clique"), default="power")
    p.add_argument("--time-limit", type=float)
    p.set_defaults(func=cmd_extremal, parser=p)

    p = sub.add_parser("verify-framework", parents=[common],
                       help="covering conditions on the cyclic-interval demo")
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_verify_framework, parser=p)

    p = sub.add_parser("demo-interval", parents=[common],
                       help="average cell density in the cyclic-interval demo")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--family", required=True, metavar="FILE")
    p.set_defaults(func=cmd_demo_interval, parser=p)

    p = sub.add_parser("reduce", parents=[common],
                       help="apply one of the constructive reductions")
    p.add_argument("--mode", required=True,
                   choices=("beta", "beta-inverse", "multiplex", "embed",
                            "clique"))
    p.add_argument("--family", metavar="FILE")
    p.add_argument("--bundles", metavar="FILE")
    p.add_argument("--s", type=int, help="copies for --mode multiplex")
    p.add_argument("--degrees", type=int, nargs="+",
                   help="target degrees for --mode embed")
    p.set_defaults(func=cmd_reduce, parser=p)

    return parser


def main(argv=None) -> int:
    # exact rationals such as the uniformity bound at p=7, degree 3 run to
    # thousands of digits; lift the int-to-str limit (absent before 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FormatError as exc:
        print(f"setdiff: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"setdiff: contract violation: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"setdiff: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
