"""Command-line front end.

Each command's handler returns a Report; ``main`` alone prints it to stdout
as JSON (add --pretty for tables) and picks the exit code: 0 on success, 1
when a check in the report fails, when a mathematical precondition or an
internal self-check fails (the message names it) or, silently, when stdout
closes early, 2 on parse or usage errors, among them a --curve that is a
directory or an unreadable, non-UTF-8 or too deeply nested JSON file and an
--out that cannot be opened or written. KUMMER_LCD_SPEC_DIR sets a default
directory for curve-spec lookups; builtin names like hermitian-q3 work
everywhere a spec path does.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence
from . import reference_checks
from .codes import (LinearCode, build_code, construction_divisors, dual, hull,
                    lcd_construct_maxcur, min_distance, DEFAULT_MINDIST_BUDGET,
                    MAX_MINDIST_BUDGET)
from .curves import (KummerCurve, builtin_curve, format_divisor,
                     load_curve_spec, parse_divisor, parse_place)
from .functions import ell, format_function, riemann_roch_basis
from .gf import ParseError, format_element, format_element_pretty
from .semigroup import (gamma_plus_multi, gap_set_single, nonspecial_degree_g,
                        nonspecial_degree_g_minus_1)


def _resolve_curve(arg: str) -> KummerCurve:
    """A spec file (as given, then under KUMMER_LCD_SPEC_DIR), else a builtin
    name; a directory or other non-file is skipped."""
    spec_dir = os.environ.get("KUMMER_LCD_SPEC_DIR")
    names = (arg, arg + ".json") if spec_dir else ()
    for candidate in (arg, *(os.path.join(spec_dir, name) for name in names)):
        if os.path.isfile(candidate):
            return load_curve_spec(candidate)
    try:
        return builtin_curve(arg)
    except ParseError:
        raise ParseError(
            f"curve {arg!r}: no such file and not a builtin curve name") from None


class Report(NamedTuple):
    """What one command found; ``main`` names the command and prints it."""
    inputs: dict
    results: dict
    checks: Sequence[dict] = ()  # a failed check makes the exit code 1
    matrix: Optional[LinearCode] = None  # its generator follows a --pretty report


def _emit_pretty(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_pretty(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_pretty(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def _matrix_table(code: LinearCode, fmt, corner: str) -> list:
    """The generator as text: a header of column points, then row i as "row<i>"."""
    return ([[corner] + [f"({fmt(p.a)},{fmt(p.b)})" for p in code.column_labels]]
            + [[f"row{i}"] + [fmt(x) for x in row] for i, row in enumerate(code.generator)])


def _matrix_csv(path: str, code: LinearCode) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(_matrix_table(code, format_element, "function"))
    except OSError as exc:  # a path that cannot be opened or written is a usage error
        raise ParseError(f"--out {path}: {exc.strerror}") from exc


def _print_matrix_pretty(code: LinearCode) -> None:
    table = _matrix_table(code, format_element_pretty, "")
    widths = [max(map(len, column)) for column in zip(*table)]
    for r in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))


def _code_report(code, cert=None) -> dict:
    report = {
        "n": code.n if code else None,
        "k": code.k if code else None,
        "d": None,
        "hull_dim": hull(code).k if code else None,
        "lcd": (hull(code).k == 0) if code else False,
        "certificate": None,
    }
    if cert is not None:
        report["certificate"] = {
            "family": cert.family,
            "G": format_divisor(cert.G),
            "H": format_divisor(cert.H) if cert.H is not None else None,
            "gcd": format_divisor(cert.gcdGH) if cert.gcdGH is not None else None,
            "checks": cert.checks,
            "lcd": cert.lcd,
        }
    return report


# ---------------------------------------------------------------------------
# subcommands: each returns its Report and prints nothing

def cmd_curve_info(args) -> Report:
    curve = _resolve_curve(args.curve)
    return Report({"curve": args.curve}, {
        "label": curve.label,
        "r": curve.r,
        "m": curve.m,
        "genus": curve.genus,
        "num_rational_points": len(curve.rational_points()),
        "deg_standard_D": curve.standard_D().degree,
    })


def cmd_curve_points(args) -> Report:
    curve = _resolve_curve(args.curve)
    return Report({"curve": args.curve},
                  {"points": [p.label() for p in curve.rational_points()]})


def cmd_rr_basis(args) -> Report:
    curve = _resolve_curve(args.curve)
    G = parse_divisor(curve, args.divisor)
    basis = riemann_roch_basis(curve, G)
    return Report({"curve": args.curve, "divisor": format_divisor(G)}, {
        "dimension": basis.dimension,
        "basis": [format_function(f) for f in basis.functions],
    })


def cmd_semigroup(args) -> Report:
    curve = _resolve_curve(args.curve)
    results: dict = {}
    if args.what == "gaps":
        if args.tuple is not None:
            raise ParseError("--tuple applies to semigroup gamma only")
        results["gaps"] = sorted(gap_set_single(curve))
    else:
        try:
            indices = ([int(t) for t in args.tuple.split(",")]
                       if args.tuple is not None else [1, 2])
        except ValueError as exc:
            raise ParseError(f"--tuple {args.tuple!r}: {exc}") from exc
        if len(set(indices)) != len(indices):
            raise ParseError("--tuple repeats a place index")
        for i in indices:
            curve.ramified_index(i, ParseError)
        results["tuple"] = indices
        results["gamma"] = sorted(gamma_plus_multi(curve, len(indices)))
    return Report({"curve": args.curve, "tuple": args.tuple}, results)


def cmd_nonspecial(args) -> Report:
    curve = _resolve_curve(args.curve)
    if args.degree == "g":
        if args.minus is not None:
            raise ParseError("--minus applies to --degree g-1 only")
        divisor = nonspecial_degree_g(curve)
    else:
        P = parse_place(curve, args.minus if args.minus is not None else "Pinf")
        divisor = nonspecial_degree_g_minus_1(curve, P)
    return Report({"curve": args.curve, "degree": args.degree, "minus": args.minus}, {
        "divisor": format_divisor(divisor),
        "degree": divisor.degree,
        "ell": ell(curve, divisor),
    })


def _build_from_args(args) -> LinearCode:
    curve = _resolve_curve(args.curve)
    if args.D != "standard":
        raise ParseError("only --D standard is supported")
    return build_code(curve, curve.standard_D(), parse_divisor(curve, args.G))


def cmd_code(args) -> Report:
    """code build, dual and hull: C(D, G), its dual or its hull."""
    code = _build_from_args(args)
    if args.what == "hull":
        shown = hull(code)
        results = {"n": code.n, "k": code.k, "hull_dim": shown.k, "lcd": shown.k == 0}
    else:
        shown = code if args.what == "build" else dual(code)
        results = _code_report(shown)
    if args.out:
        _matrix_csv(args.out, shown)
        results["matrix_csv"] = args.out
    return Report({"curve": args.curve, "G": args.G, "D": args.D}, results,
                  matrix=shown if args.what == "build" else None)


def cmd_code_lcd_check(args) -> Report:
    inapplicable = {"maxcur": ("q", "r"), "curve2": ("curve", "G")}.get(
        args.construction, ("r", "curve", "G"))
    for option in inapplicable:
        if getattr(args, option) is not None:
            raise ParseError(f"--{option} does not apply to --construction "
                             f"{args.construction}")
    if args.construction == "maxcur":
        if not args.curve or not args.G:
            raise ParseError("maxcur needs --curve and --G")
        curve = _resolve_curve(args.curve)
        divisors = [parse_divisor(curve, args.G)]
    elif args.q is None:
        raise ParseError(f"{args.construction} needs --q")
    elif args.q < 1 or (args.r is not None and args.r < 1):
        raise ParseError(f"--q and --r must be positive, got --q {args.q} --r {args.r}")
    elif args.construction == "curve2" and args.r is None:
        raise ParseError("curve2 needs --r")
    else:
        curve = builtin_curve({"hermitian": f"hermitian-q{args.q}",
                               "curve1": f"curve1-q{args.q}",
                               "curve2": f"curve2-q{args.q}-r{args.r}"}[args.construction])
        divisors = construction_divisors(args.construction, curve)
    runs = [_code_report(*lcd_construct_maxcur(
        curve, G, allow_remark_family=args.allow_remark_family)) for G in divisors]
    return Report(
        {"construction": args.construction, "q": args.q, "r": args.r,
         "curve": args.curve, "G": args.G,
         "allow_remark_family": args.allow_remark_family},
        {"curve": curve.label, "runs": runs},
        [{"name": f"lcd-{i}", "pass": run["certificate"]["lcd"],
          "detail": run["certificate"]["G"]} for i, run in enumerate(runs)])


def cmd_code_mindist(args) -> Report:
    if args.budget < 1:
        raise ParseError(f"--budget must be at least 1, got {args.budget}")
    if args.budget > MAX_MINDIST_BUDGET:
        raise ParseError(f"--budget must be at most MAX_MINDIST_BUDGET = 2^32 = "
                         f"{MAX_MINDIST_BUDGET}, got {args.budget}")
    code = _build_from_args(args)
    result = min_distance(code, budget=args.budget)
    return Report({"curve": args.curve, "G": args.G, "budget": args.budget}, {
        "n": code.n,
        "k": code.k,
        "d": result.d,
        "exact": result.exact,
        "designed_bound": result.designed_bound,
    })


def cmd_verify(args) -> Report:
    checks = [{"name": name, "pass": ok, "detail": detail}
              for name, ok, detail in reference_checks.run_checks(args.which)]
    passed = sum(1 for check in checks if check["pass"])
    return Report({"which": args.which},
                  {"passed": passed, "failed": len(checks) - passed}, checks)


# ---------------------------------------------------------------------------

_CURVE = ("--curve", {"required": True})
_CODE = (_CURVE, ("--G", {"required": True}), ("--D", {"default": "standard"}))
_PRETTY = ("--pretty", {"action": "store_true",
                        "help": "human-readable tables instead of JSON"})

# group, its help, subcommand (None: the group is the command), handler, options
_COMMANDS = (
    ("curve", "curve data", "info", "cmd_curve_info", (_CURVE,)),
    ("curve", "curve data", "points", "cmd_curve_points", (_CURVE,)),
    ("rr", "Riemann-Roch spaces", "basis", "cmd_rr_basis",
     (_CURVE, ("--divisor", {"required": True}))),
    ("semigroup", "gap sets and minimal generators", None, "cmd_semigroup",
     (("what", {"choices": ["gaps", "gamma"]}), _CURVE,
      ("--tuple", {"default": None,
                   "help": "comma-separated ramified indices, e.g. 1,2,3"}))),
    ("nonspecial", "explicit non-special divisors", None, "cmd_nonspecial",
     (_CURVE, ("--degree", {"choices": ["g", "g-1"], "required": True}),
      ("--minus", {"default": None,
                   "help": "place to subtract for degree g-1 (default Pinf)"}))),
    *(("code", "evaluation codes", name, "cmd_code",
       _CODE + (("--out", {"default": None, "help": "write the matrix as CSV"}),))
      for name in ("build", "dual", "hull")),
    ("code", "evaluation codes", "lcd-check", "cmd_code_lcd_check",
     (("--construction", {"required": True,
                          "choices": ["maxcur", "curve1", "curve2", "hermitian"]}),
      ("--q", {"type": int, "default": None}), ("--r", {"type": int, "default": None}),
      ("--curve", {"default": None}), ("--G", {"default": None}),
      ("--allow-remark-family", {"action": "store_true"}))),
    ("code", "evaluation codes", "mindist", "cmd_code_mindist",
     _CODE + (("--budget", {"type": int, "default": DEFAULT_MINDIST_BUDGET}),)),
    ("verify", "bundled end-to-end checks", "paper-examples", "cmd_verify",
     (("--which", {"default": "all"}),)),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command in _COMMANDS, built on the first main() call
    and reused (parse_args leaves it unchanged). Handlers are stored by name,
    and main looks each up when its call runs, so a handler rebound later is
    reached. Options are named in full: no parser takes a prefix.

    Its ``table`` maps the words of each command, as ("code", "mindist") or
    ("semigroup",), to what ``_parse_by_table`` reads: the namespace of the
    command when no option is given, its options by name, its positional (or
    None) and the dests it requires, each option the argparse Action that
    ``add_argument`` made for the tree."""
    parser = argparse.ArgumentParser(
        prog="kummer-lcd", allow_abbrev=False,
        description="Evaluation codes, hulls, and LCD constructions on "
                    "Kummer-type curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    parser.table = {}
    for group, group_help, name, handler, options in _COMMANDS:
        if group not in groups:
            command = sub.add_parser(group, allow_abbrev=False, help=group_help)
            groups[group] = command.add_subparsers(dest="what", required=True) if name else None
        if name:
            command = groups[group].add_parser(name, allow_abbrev=False)
        actions = [command.add_argument(option, **kwargs)
                   for option, kwargs in options + (_PRETTY,)]
        command.set_defaults(handler=handler)
        parser.table[(group, name) if name else (group,)] = (
            {**{action.dest: action.default for action in actions}, "handler": handler,
             "command": group, **({"what": name} if name else {})},
            {action.option_strings[0]: action for action in actions if action.option_strings},
            next((action for action in actions if not action.option_strings), None),
            {action.dest for action in actions if action.required})
    return parser


def _parse_by_table(command: tuple, argv: list) -> Optional[argparse.Namespace]:
    """The namespace that argparse gives a well-formed argv of one command,
    read off its ``_build_parser`` table entry: ``--opt value``,
    ``--opt=value``, flags, types, choices and one positional. None for what
    only argparse answers as argparse does: help, ``--``, an unknown or
    missing word, a second positional, a value given to a flag, a separate
    value that starts with "-", a failed type or choice, a missing required
    option."""
    namespace, options, positional, required = command
    namespace, given = dict(namespace), set()
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            action, value = positional, word
            if action is None or action.dest in given:
                return None
        else:
            name, equals, value = word.partition("=")
            action = options.get(name)
            if action is None:
                return None
            if action.nargs == 0:  # a flag takes no value
                if equals:
                    return None
                value = action.const
            elif not equals:
                value = next(words, "-")  # a missing value declines as "-" does
                if value.startswith("-"):
                    return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        namespace[action.dest] = value
        given.add(action.dest)
    return argparse.Namespace(**namespace) if required <= given else None


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of argv: from the table when its first words name a
    command and ``_parse_by_table`` takes the words that follow, else from
    the whole tree, which prints its own help and errors."""
    parser = _build_parser()
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        if words in parser.table:
            args = _parse_by_table(parser.table[words], argv[len(words):])
            if args is not None:
                return args
            break
    return parser.parse_args(argv)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, written directly: with an indent the
    stdlib runs its pure-Python encoder. ``indent`` is a newline and the
    indentation of value's own line. Strings take the stdlib's ASCII
    escaping, tuples print as lists, bools are tested before ints, floats
    print as json prints them, and any other type raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, brackets = [encode_basestring_ascii(key) + ": " + _json(item, inner)
                           for key, item in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):  # "--G -1*Pinf" reads as "--G=-1*Pinf"
        if argv[i] in ("--G", "--divisor", "--minus") and re.match(r"-[\dP]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _parse(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "what", None))))
    try:
        report = globals()[args.handler](args)
        output = {"command": command, "inputs": report.inputs, "results": report.results,
                  "checks": list(report.checks)}
        if args.pretty:
            _emit_pretty(output)
        else:
            print(_json(output))
        if args.pretty and report.matrix is not None:
            _print_matrix_pretty(report.matrix)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    return 0 if all(check["pass"] for check in report.checks) else 1


if __name__ == "__main__":
    sys.exit(main())
