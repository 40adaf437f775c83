"""Command-line front end: every computation as a reproducible invocation.

All output goes to stdout, JSON by default (``--format table`` for a
human layout).  JSON is canonical: keys sorted, no spaces, so parsing
and re-serializing a report is byte-identical.  Matrix and coordinate
entries are serialized as decimal strings since they are arbitrary-
precision integers; small structural numbers (box sides, degrees,
indices) stay plain.  ``flop-matrix`` certifies F and builds it before it
prints anything, then writes F row by row, never the whole text at once.

Exit status: 0 for success and true verdicts, 1 when a computation
reaches a failing verdict or a structured error (wall point, a request
above a size limit, a refused flop certificate), 2 for usage errors.

A command followed by its value options, each spelled in full as
``--name value`` or ``--name=value`` (an int in ASCII digits, a separate
value non-empty and not starting with "-"), is parsed without argparse,
whose set-up took longer than a small flop certificate.  Anything else
(help, flags, abbreviations, errors) goes to argparse, the one source of
help, usage and error text.

Imports follow the same rule: this module loads only ``flop`` and
``partitions``, which the box and flop commands run; every other handler
imports its own module in its first line, and ``json`` loads only where
JSON is built or read, so ``flop-matrix``, which writes its own, never
loads it.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from . import flop
from .partitions import BoxShape, box_labels


def canonical_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload: dict, table_lines: Callable[[], list[str]]) -> None:
    """Print ``payload`` as JSON, or under --format table the lines ``table_lines()`` builds."""
    if args.fmt == "json":
        print(canonical_json(payload))
    else:
        for line in table_lines():
            print(line)


# Largest K-rank C(h,t) a flop command accepts, that of G(6,12).  check-iso
# and snf check that the h x h matrix U_1 . P_1 is an involution, O(h)
# products for any t; flop-matrix also builds F, the t-th compound of
# U_1^c . P_1, and prints its n^2 entries.  Cold (2-core VM, CPython 3.11),
# check-iso and snf take 0.05 s on G(6,12) and on G(1,924), and flop-matrix
# 0.2 s on G(6,12).  The printed size, not the computation, bounds
# flop-matrix: G(1,924) prints 475 MB in 5.8 s with a 251 MB peak, almost
# all of it F, built in 0.9 s.
MAX_FLOP_RANK = 924

# Largest box the other box commands accept, G(9,18): kbasis lists C(h,t)
# partitions, and hodge counts them by size.  hodge also refuses a
# dimension t(h-t) above bott.MAX_HODGE_DIM, that of this box, since
# G(1,h) has K-rank only h.
MAX_BOX = BoxShape(9, 9)

# Largest h weyl-word accepts: it prints a permutation of h entries and a
# word of 2h-3 letters, about 5 MB of JSON in half a second at the limit.
MAX_WEYL_H = 250_000

# Most entries chamber-sort accepts.  Its word is as long as the inversion
# count, n(n-1)/2 for an increasing vector: 244650 letters, about 0.9 MB of
# JSON in about 0.25 s cold at the limit (2-core VM, CPython 3.11).
MAX_VECTOR = 700

# Most decimal digits in one number a command reads or prints: CPython's
# default int-to-string limit.  gamma and quadric are quadratic maps, so
# coordinates of up to 2150 digits always print; without --field, longer
# ones may not.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS  # the least magnitude with more digits

# Most characters bott accepts in --weight.  The sweep multiplies up to
# h(h-1)/2 differences of the shifted weight, so its cost grows with both
# the number h of entries and their digits, and the text's length bounds
# both.  The slowest weights of this length, about 300 small entries off
# every wall (so that every pair is multiplied), take half a second cold.
MAX_WEIGHT_TEXT = 600

# Most characters snf accepts in --matrix.  Elimination grows the entries,
# so the cost grows with their digits as well as with the matrix's size,
# and the text's length bounds both.  The slowest random matrices of this
# length, 2 x 2 with 2000-digit entries, take about 0.4 s cold; 40 x 40
# with 3-digit entries fits, in about 0.2 s.
MAX_MATRIX_TEXT = 8000


def _box(args, flop: bool = False) -> BoxShape:
    if args.t is None or args.h is None:
        raise UsageError("--t and --h are required")
    if flop and 2 * args.t > args.h:
        raise UsageError(f"flop commands require t <= h/2, got t={args.t}, h={args.h}")
    try:
        box = BoxShape.for_grassmannian(args.t, args.h)
    except ValueError as exc:
        raise UsageError(str(exc))
    limit = MAX_FLOP_RANK if flop else MAX_BOX.rank
    # C(h, k), k = min(t, h - t), one factor at a time: the partial values
    # C(h, i) grow for i <= h/2, so once one is too long to print, so is
    # the rank, and no such rank is ever built in full
    rank = 1
    for i in range(1, min(box.rows, box.cols) + 1):
        rank = rank * (box.h - i + 1) // i
        if _too_long(rank):
            raise SizeLimit(
                f"G({args.t},{args.h}) has a K-rank of more than {MAX_DIGITS} digits, "
                f"above the limit {limit}"
            )
    if rank > limit:
        raise SizeLimit(f"G({args.t},{args.h}) has K-rank {rank}, above the limit {limit}")
    return box


class UsageError(Exception):
    pass


class SizeLimit(Exception):
    """A request too large to compute in reasonable time."""


def _check_digits(text: str, what: str) -> None:
    """Refuse ``text`` with SizeLimit if a number in it has more than
    MAX_DIGITS digits.

    Every numeric-text option passes through here before it is parsed, so
    no parser meets CPython's int-from-string limit, whose advice a user of
    the command line cannot follow.  A number is a run of digits and
    underscores, the unit that limit counts.
    """
    if any(len(run) - run.count("_") > MAX_DIGITS for run in re.findall(r"[\d_]+", text)):
        raise SizeLimit(f"{what} has more than {MAX_DIGITS} digits")


def _check_text(text: str, what: str, limit: int) -> None:
    """Refuse the text of the --``what`` option with SizeLimit if a number
    in it has more than MAX_DIGITS digits or it has more than ``limit``
    characters."""
    _check_digits(text, f"an entry of the {what}")
    if len(text) > limit:
        raise SizeLimit(f"the {what} has {len(text)} characters, above the limit {limit}")


# A decimal entry of --vector, as fractions.Fraction reads one: digits,
# an optional fractional part, an optional exponent.
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def _check_exponent(entry: str, what: str) -> None:
    """Refuse a decimal ``entry`` with SizeLimit if the numerator or the
    denominator that Fraction builds from it has more than MAX_DIGITS
    digits.

    Fraction multiplies by the power of ten that the exponent and the
    fractional part name, which ``_check_digits`` cannot see: ``1e2000000``
    is nine characters long, and its numerator has two million and one
    digits.
    """
    match = _DECIMAL.fullmatch(entry)
    if match is None or (match[2] is None and match[3] is None):
        return
    whole, frac, exp = (g.replace("_", "") if g else "" for g in match.groups())
    shift = int(exp or 0) - len(frac)
    numerator = len((whole + frac).lstrip("0")) + max(shift, 0)
    denominator = 1 + max(-shift, 0)
    if max(numerator, denominator) > MAX_DIGITS:
        raise SizeLimit(f"{what} has more than {MAX_DIGITS} digits")


def _too_long(x: int) -> bool:
    """Whether |x| has more than MAX_DIGITS decimal digits."""
    return abs(x) >= _TOO_LONG


def _decimal(values: Sequence[int], what: str) -> list[str]:
    """The decimal strings of ``values``, refused with SizeLimit before any
    is printed if one has more than MAX_DIGITS digits."""
    if any(map(_too_long, values)):
        raise SizeLimit(f"{what} has more than {MAX_DIGITS} digits")
    return [str(x) for x in values]


# ---------------------------------------------------------------------------
# Subcommand implementations; each returns the exit status
# ---------------------------------------------------------------------------

def _cmd_kbasis(args) -> int:
    box = _box(args)
    basis = box_labels(box)
    payload = {"box": [box.rows, box.cols], "rank": len(basis), "basis": basis}
    _emit(args, payload, lambda: [f"rank: {len(basis)}", "basis: " + " ".join(basis)])
    return 0


def _cmd_flop_matrix(args) -> int:
    """The certificate, then F one row at a time: the JSON is
    ``canonical_json`` of {basis, box, det, matrix, snf}, and the table
    right-aligns entries to the longest, the largest's or the least's.
    Labels and decimal strings need no escaping, so the writer joins them
    itself, and each row's text is written as it is joined, never copied;
    ``repr`` of an int is its ``str``, by a cheaper call."""
    box = _box(args, flop=True)
    det, snf = flop.flop_certificate(box)
    matrix = flop._flop_rows(box)
    basis, snf = box_labels(box), [str(d) for d in snf]
    if args.fmt == "json":
        head = ('{"basis":["' + '","'.join(basis) + f'"],"box":[{box.rows},{box.cols}],'
                f'"det":"{det}","matrix":[["')
        rows = ('","'.join(map(repr, row)) for row in matrix)
        sep, tail = '"],["', '"]],"snf":["' + '","'.join(snf) + '"]}\n'
    else:
        width = max(len(str(max(map(max, matrix)))), len(str(min(map(min, matrix)))))
        head = f"box: {box.rows} x {box.cols}\nbasis: " + " ".join(basis) + "\n"
        rows = (" ".join([repr(x).rjust(width) for x in row]) for row in matrix)
        sep, tail = "\n", f"\ndet: {det}\nsnf: " + " ".join(snf) + "\n"
    write = sys.stdout.write
    write(head)
    write(next(rows))
    for row in rows:
        write(sep)
        write(row)
    write(tail)
    return 0


def _cmd_check_iso(args) -> int:
    box = _box(args, flop=True)
    det, _ = flop.flop_certificate(box)
    iso = det in (1, -1)
    payload = {"det": str(det), "isomorphism": iso}
    _emit(args, payload, lambda: [f"det: {det}", f"isomorphism: {iso}"])
    return 0 if iso else 1


def _cmd_snf(args) -> int:
    if args.matrix is not None:
        import json

        from . import kgroup

        if args.t is not None or args.h is not None:
            raise UsageError("give --matrix, or --t and --h, not both")
        _check_text(args.matrix, "matrix", MAX_MATRIX_TEXT)
        try:
            matrix = kgroup.IntegerMatrix(json.loads(args.matrix))
        except (ValueError, TypeError, RecursionError) as exc:
            raise UsageError(f"bad --matrix: {exc}")
        snf = kgroup.smith_normal_form(matrix)
        payload = {}
    else:
        box = _box(args, flop=True)
        _, snf = flop.flop_certificate(box)
        payload = {"box": [box.rows, box.cols]}
    payload["snf"] = _decimal(snf, "an invariant factor")
    _emit(args, payload, lambda: ["snf: " + " ".join(payload["snf"])])
    return 0


def _cmd_counterexample(args) -> int:
    from . import kgroup, main_component
    matrix = main_component.main_component_matrix(args.basis)
    snf = kgroup.smith_normal_form(matrix)
    index = main_component.image_index(matrix)
    box = BoxShape.for_grassmannian(1, 3)
    change = main_component.line_basis_matrix(box)
    if args.basis == "line":
        target = ["O(1)", "O", "O(-1)"]
        domain = ["O+(-1)", "O+", "O+(1)"]
    else:
        target = [f"S^{p}" for p in box_labels(box)]
        domain = [f"S^{p}+" for p in box_labels(box)]
    payload = {
        "basis": args.basis,
        "target_basis": target,
        "domain_basis": domain,
        "images": {
            label: [str(x) for x in matrix.column(j)]
            for j, label in enumerate(domain)
        },
        "matrix": [[str(x) for x in row] for row in matrix.entries],
        "snf": list(snf),
        "index": index,
        "line_basis_in_canonical": [[str(x) for x in row] for row in change.entries],
    }
    _emit(args, payload, lambda: [
        f"basis: {args.basis}",
        *(f"image of {label}: ({', '.join(payload['images'][label])})" for label in domain),
        f"snf: {list(snf)}",
        f"index: {index}",
    ])
    return 0


def _cmd_bott(args) -> int:
    from . import bott
    if args.weight is None:
        raise UsageError("--weight is required, e.g. \"-2,-2|0,0\"")
    _check_text(args.weight, "weight", MAX_WEIGHT_TEXT)
    try:
        weight = bott.Weight.from_text(args.weight)
    except ValueError as exc:
        raise UsageError(f"bad --weight: {exc}")
    if (args.t is None) != (args.h is None):
        raise UsageError("give --t and --h together, or neither")
    if args.t is not None:
        if (len(weight.a), len(weight.b)) != (args.t, args.h - args.t):
            raise UsageError(
                f"weight blocks {weight.text()} do not match t={args.t}, h={args.h}"
            )
    res = bott.bott_cohomology(weight)
    if res is None:
        _emit(args, {"zero": True}, lambda: ["all cohomology vanishes"])
    else:
        (dim,) = _decimal([res.dim], "the dimension")
        payload = {"degree": res.degree, "dim": res.dim}
        _emit(args, payload, lambda: [f"degree: {res.degree}", f"dim: {dim}"])
    return 0


def _cmd_hodge(args) -> int:
    from . import bott
    box = _box(args)
    try:
        table = bott.hodge_numbers(box)
    except ValueError as exc:  # the dimension cap, bott.MAX_HODGE_DIM
        raise SizeLimit(str(exc)) from None
    diag = [table[p][p] for p in range(box.dim + 1)]
    payload = {
        "box": [box.rows, box.cols],
        "diagonal": diag,
        "table": table,
    }
    _emit(args, payload, lambda: [
        "diagonal: " + " ".join(map(str, diag)), *(" ".join(map(str, row)) for row in table)
    ])
    return 0


def _point(args, form: str) -> list[int]:
    """The integers of --point, one per coordinate that ``form`` names,
    reduced mod --field if it is given and prime; refused if they are all
    zero there, since that is no projective point."""
    from . import flopgeom
    if args.point is None:
        raise UsageError(f"--point {form} is required")
    parts = [s.strip() for s in args.point.split(",")]
    expect = form.count(",") + 1
    if len(parts) != expect:
        raise UsageError(f"expected {expect} comma-separated values, got {len(parts)}")
    _check_digits(args.point, "a coordinate of the point")
    try:
        pt = [int(s) for s in parts]
        if args.field is not None:
            p = flopgeom.prime_modulus(args.field)
            pt = [v % p for v in pt]
    except ValueError as exc:
        raise UsageError(str(exc))
    if not any(pt):
        raise UsageError("the all-zero tuple is not a projective point")
    return pt


def _reduce(x: int, field: Optional[int]) -> int:
    # evaluating over Z then reducing gives the F_p value: Z -> F_p is a ring map
    return x if field is None else x % field


def _cmd_gamma(args) -> int:
    from . import flopgeom
    pt = _point(args, "a,x,y,z,w")
    image = [_reduce(x, args.field) for x in flopgeom.pluecker_limit_map(pt)]
    payload = {
        "image": _decimal(image, "a coordinate of the image"),
        "indeterminate": not any(image),
    }
    _emit(args, payload, lambda: [
        "image: (" + ", ".join(payload["image"]) + ")",
        f"indeterminate: {payload['indeterminate']}",
    ])
    return 0


def _cmd_quadric(args) -> int:
    from . import flopgeom
    value = _reduce(flopgeom.quadric_value(_point(args, "p12,p13,p14,p23,p24,p34")), args.field)
    (text,) = _decimal([value], "the quadric value")
    payload = {"value": text, "on_quadric": value == 0}
    _emit(args, payload, lambda: [f"value: {payload['value']}"])
    return 0


def _cmd_springer_fiber(args) -> int:
    from . import flopgeom
    if args.t is None or args.h is None or args.i is None:
        raise UsageError("--t, --h and --i are required")
    try:
        (sub, amb), dim = flopgeom.springer_fiber(args.t, args.h, args.i)
    except ValueError as exc:
        raise UsageError(str(exc))
    (text,) = _decimal([dim], "the dimension")
    payload = {"grassmann": [sub, amb], "dim": dim}
    _emit(args, payload, lambda: [f"grassmann: G({sub},{amb})", f"dim: {text}"])
    return 0


def _emit_word(args, sigma, word: list[int], **extra) -> None:
    """Report a permutation and its word of adjacent transpositions, with
    the keys of ``extra`` beside them in the JSON."""
    payload = {**extra, "sigma": list(sigma), "word": word, "length": len(word)}
    _emit(args, payload, lambda: [
        f"sigma: {payload['sigma']}", f"word: {word}", f"length: {len(word)}"
    ])


def _cmd_weyl_word(args) -> int:
    from . import weyl
    if args.h is None or args.h < 2:
        raise UsageError("--h >= 2 is required")
    if args.h > MAX_WEYL_H:
        raise SizeLimit(f"h = {args.h} is above the limit {MAX_WEYL_H}")
    _emit_word(args, weyl.duality_permutation(args.h), weyl.duality_word(args.h), h=args.h)
    return 0


def _cmd_chamber_sort(args) -> int:
    from . import weyl
    if args.vector is None:
        raise UsageError("--vector v1,v2,... is required")
    _check_digits(args.vector, "an entry of the vector")
    entries = args.vector.split(",")
    if len(entries) > MAX_VECTOR:
        raise SizeLimit(f"the vector has {len(entries)} entries, above the limit {MAX_VECTOR}")
    for entry in entries:
        _check_exponent(entry, "an entry of the vector")
    try:
        from fractions import Fraction

        vec = tuple(Fraction(s.strip()) for s in entries)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --vector: {exc}")
    try:
        sigma, word = weyl.chamber_sort(vec)
    except weyl.RegularityViolation as exc:
        return _error_exit(exc)
    _emit_word(args, sigma, word)
    return 0


def _cmd_verify_all(args) -> int:
    from . import acceptance
    results = acceptance.run_all(seed=args.seed)
    all_pass = all(r.passed for r in results)
    payload = {
        "all_pass": all_pass,
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "pass": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    _emit(args, payload, lambda: [
        *(f"{'PASS' if r.passed else 'FAIL'}  {r.number:>2}  {r.name}  "
          f"[{r.elapsed:.2f}s]  {r.detail}" for r in results),
        "all criteria passed" if all_pass else "FAILURES present",
    ])
    return 0 if all_pass else 1


# name -> (handler, help text, option groups besides "format")
_COMMANDS = {
    "kbasis": (_cmd_kbasis, "basis of the Grothendieck lattice", ("t", "h")),
    "flop-matrix": (_cmd_flop_matrix, "matrix of the flop correspondence", ("t", "h")),
    "check-iso": (_cmd_check_iso, "unimodularity verdict for the flop matrix", ("t", "h")),
    "snf": (_cmd_snf, "Smith normal form (flop matrix, or --matrix)", ("t", "h", "matrix")),
    "counterexample": (_cmd_counterexample, "index-2 main-component correspondence", ("basis",)),
    "bott": (_cmd_bott, "cohomology of an irreducible homogeneous bundle", ("t", "h", "weight")),
    "hodge": (_cmd_hodge, "Hodge numbers of the Grassmannian", ("t", "h")),
    "gamma": (_cmd_gamma, "limit map into the Pluecker quadric", ("point",)),
    "quadric": (_cmd_quadric, "evaluate the Pluecker quadric", ("point",)),
    "springer-fiber": (
        _cmd_springer_fiber, "type and dimension of a Springer fiber", ("t", "h", "i")
    ),
    "weyl-word": (_cmd_weyl_word, "duality permutation and its palindromic word", ("h",)),
    "chamber-sort": (
        _cmd_chamber_sort, "sort a regular vector into the dominant chamber", ("vector",)
    ),
    "verify-all": (_cmd_verify_all, "run the acceptance criteria", ("seed",)),
}

# option group -> its options as (flag, dest, kind, default, help), in the
# order help lists them; kind is int, str (text), a tuple of choices, or a
# flag's constant.  _build_parser and _fast_parse both read this table.
_OPTIONS = {
    "t": (("--t", "t", int, None, None),),
    "h": (("--h", "h", int, None, None),),
    "i": (("--i", "i", int, None, None),),
    "weight": (("--weight", "weight", str, None, 'block weight, e.g. "-2,-2|0,0"'),),
    "vector": (("--vector", "vector", str, None, "comma-separated rationals"),),
    "point": (("--point", "point", str, None, "comma-separated integers"),
              ("--field", "field", int, None, "prime order; omit for exact integers")),
    "matrix": (("--matrix", "matrix", str, None, "JSON array of integer rows"),),
    "basis": (
        ("--line-basis", "basis", "line", "line",
         "present in the ([O(1)], [O], [O(-1)]) basis (default)"),
        ("--canonical-basis", "basis", "canonical", "line", "present in the Schur-power basis"),
    ),
    "format": (("--format", "fmt", ("json", "table"), "json", None),),
    "seed": (("--seed", "seed", int, 0, None),),
}


def _options(command: str) -> list[tuple]:
    """The option rows of ``command``, in the order help lists them."""
    groups = _COMMANDS[command][2] + ("format",)
    return [row for group, rows in _OPTIONS.items() if group in groups for row in rows]


def _error_exit(exc: Exception) -> int:
    """Print ``exc`` as the structured error object on stdout; exit status 1."""
    print(canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
    return 1


def run(args) -> int:
    """Dispatch a namespace of parsed options; returns the exit status."""
    try:
        for flag, dest, *_ in _options(args.command):
            if getattr(args, dest) == []:  # argparse before 3.13 stores "--name=--" as []
                raise UsageError(f'{flag} needs a value other than "--"')
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeLimit, flop.CertificateError) as exc:
        return _error_exit(exc)


def _build_parser():
    """The argparse parser of every command: all help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="flopk",
        description="Exact K-theory and Schubert calculus for Grassmannian flops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, groups) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        flags = p.add_mutually_exclusive_group() if "basis" in groups else p
        for flag, dest, kind, default, text in _options(name):
            if isinstance(kind, str):
                flags.add_argument(flag, dest=dest, action="store_const", const=kind,
                                   default=default, help=text)
            else:
                p.add_argument(flag, dest=dest, type=int if kind is int else None,
                               choices=kind if isinstance(kind, tuple) else None,
                               default=default, help=text)
    return parser


def _fast_parse(argv: list[str]) -> Optional[SimpleNamespace]:
    """What ``_build_parser().parse_args(argv)`` returns, or None to leave
    ``argv`` to argparse (the rule is in the module docstring)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = _options(argv[0])
    args = {"command": argv[0], **{dest: default for _, dest, _, default, _ in rows}}
    kinds = {flag: (dest, kind) for flag, dest, kind, _, _ in rows}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq and (value := next(tokens, ""))[:1] in ("", "-"):
            return None
        dest, kind = kinds.get(flag, (None, None))
        if kind is int and value.isascii() and value.isdigit():
            try:
                value = int(value)
            except ValueError:  # over the interpreter's int digit limit
                return None
        # argparse turns a "--" value into an empty list
        elif not (kind is str and value != "--" or isinstance(kind, tuple) and value in kind):
            return None
        args[dest] = value
    return SimpleNamespace(**args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return run(_fast_parse(argv) or _build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
