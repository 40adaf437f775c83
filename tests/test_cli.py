import argparse
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from flopk import cli, flop, kgroup, partitions
from flopk.cli import (
    _COMMANDS,
    _OPTIONS,
    MAX_BOX,
    MAX_DIGITS,
    MAX_FLOP_RANK,
    MAX_MATRIX_TEXT,
    MAX_VECTOR,
    MAX_WEIGHT_TEXT,
    MAX_WEYL_H,
    _box,
    _build_parser,
    _fast_parse,
    _options,
    canonical_json,
    main,
    run,
)
from flopk.flopgeom import _MILLER_RABIN_BOUND
from flopk.partitions import BoxShape, enumerate_box
from oracles import flop_payload, is_indeterminate, matrix_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Individual commands
# ---------------------------------------------------------------------------

def test_kbasis(capsys):
    code, payload = run_json(capsys, "kbasis", "--t", "2", "--h", "4")
    assert code == 0
    assert payload == {
        "basis": ["-", "1", "2", "1,1", "2,1", "2,2"],
        "box": [2, 2],
        "rank": 6,
    }


def test_check_iso(capsys):
    code, payload = run_json(capsys, "check-iso", "--t", "2", "--h", "4")
    assert code == 0
    assert payload["isomorphism"] is True
    assert payload["det"] in ("1", "-1")


@pytest.mark.parametrize("argv, json_out, table_out", [
    ("check-iso --t 2 --h 5", '{"det":"1","isomorphism":true}', "det: 1\nisomorphism: True"),
    ("check-iso --t 3 --h 6", '{"det":"1","isomorphism":true}', "det: 1\nisomorphism: True"),
    ("snf --t 2 --h 5", '{"box":[2,3],"snf":[' + ",".join(['"1"'] * 10) + "]}", "snf:" + " 1" * 10),
    ("snf --t 3 --h 6", '{"box":[3,3],"snf":[' + ",".join(['"1"'] * 20) + "]}", "snf:" + " 1" * 20),
], ids=["check-iso-G(2,5)", "check-iso-G(3,6)", "snf-G(2,5)", "snf-G(3,6)"])
def test_certificate_commands_never_build_the_flop_matrix(monkeypatch, capsys, argv, json_out,
                                                         table_out):
    # check-iso and snf --t --h certify from the h x h involution U_1 . P_1
    # alone; G(2,5) has odd c = 3
    def forbidden(box):
        raise AssertionError("flop matrix built")

    monkeypatch.setattr(kgroup, "flop_matrix", forbidden)
    monkeypatch.setattr(flop, "_flop_rows", forbidden)
    assert run_cli(capsys, *argv.split()) == (0, json_out + "\n")
    assert run_cli(capsys, *argv.split(), "--format", "table") == (0, table_out + "\n")


def test_flop_matrix_schema_and_round_trip(capsys):
    code, out = run_cli(capsys, "flop-matrix", "--t", "1", "--h", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["box"] == [1, 2]
    assert payload["basis"] == ["-", "1", "2"]
    assert payload["matrix"] == [["1", "3", "6"], ["0", "-3", "-8"], ["0", "1", "3"]]
    assert payload["det"] in ("1", "-1")
    assert payload["snf"] == ["1", "1", "1"]
    # canonical JSON round trip is byte-identical
    assert canonical_json(json.loads(out)) == out.strip()


@pytest.mark.parametrize(
    "matrix", ["[[1.5]]", "[[true]]", '[["2"]]', "[[1,2],[3]]", "7", "[[]]"]
)
def test_snf_non_integer_matrix_is_usage_error(capsys, matrix):
    assert main(["snf", "--matrix", matrix]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("flop-matrix", "--t", "6", "--h", "13"),
        ("check-iso", "--t", "6", "--h", "13"),
        ("snf", "--t", "6", "--h", "13"),
        ("check-iso", "--t", "7", "--h", "14"),
        # K-ranks too long to print: refused before C(h,t) is built in full
        ("check-iso", "--t", "10000", "--h", "20000"),
        ("flop-matrix", "--t", "1000000", "--h", "2000000"),
    ],
    ids=lambda a: "-".join(a[0::2]),
)
def test_oversized_flop_is_structured_error(capsys, argv):
    started = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert payload["error"]["type"] == "SizeLimit"


def test_largest_flop_box_is_accepted():
    # G(6,12) has K-rank 924, exactly the limit
    assert _box(argparse.Namespace(t=6, h=12), flop=True).rank == MAX_FLOP_RANK


def test_check_iso_beyond_bareiss_range(capsys):
    # G(5,11), K-rank 462, certified by F . F = I alone
    code, payload = run_json(capsys, "check-iso", "--t", "5", "--h", "11")
    assert code == 0
    assert payload == {"det": "1", "isomorphism": True}


# sha256 of `flopk flop-matrix` stdout as printed by the dense
# D^-1 . T^c . D . Pi route with Bareiss det and Smith form, and for
# G(1,400), c = 399, by U^c . Pi applied column by column
@pytest.mark.parametrize(
    "t, h, digest",
    [
        (4, 8, "2f2f36626c75788cacae549bc536483cfbdf53fcab98105272027027f59356d8"),
        (5, 10, "2c234616e109349b8ae73c041156e70cd3b3b529238cb3b13334ca74266606ba"),
        (1, 400, "329edb1bc21fd309eec5f7717a7811abe9ddbd01d30eeecd473242f526b9baf7"),
        (6, 12, "49898fcab578c2dc53d60e86ad9e24790764ab8c85b1b7357ba3e7d792d36ee6"),
    ],
    ids=["G(4,8)", "G(5,10)", "G(1,400)", "G(6,12)"],
)
def test_flop_matrix_stdout_is_byte_identical(capsys, t, h, digest):
    code, out = run_cli(capsys, "flop-matrix", "--t", str(t), "--h", str(h))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every flop box G(t,h), t <= h/2, with h <= 9, and the largest accepted one
WRITER_BOXES = [(t, h) for h in range(2, 10) for t in range(1, h // 2 + 1)] + [(6, 12)]


@pytest.mark.parametrize("t, h", WRITER_BOXES, ids=[f"G({t},{h})" for t, h in WRITER_BOXES])
def test_flop_matrix_writer_matches_payload_oracle(capsys, t, h):
    # the row-by-row writer against the whole report built and dumped at once
    payload = flop_payload(BoxShape.for_grassmannian(t, h))
    argv = ["flop-matrix", "--t", str(t), "--h", str(h)]
    assert run_cli(capsys, *argv) == (0, canonical_json(payload) + "\n")
    table = "\n".join(matrix_table(payload)) + "\n"
    assert run_cli(capsys, *argv, "--format", "table") == (0, table)


@pytest.mark.parametrize(
    "box",
    [BoxShape.for_grassmannian(t, h) for h in range(2, 13) for t in range(1, h)]
    + [BoxShape.for_grassmannian(9, 18)],
    ids=str,
)
def test_basis_labels_are_partition_texts(box):
    assert partitions.box_labels(box) == [p.text() for p in enumerate_box(box)]


def _clear_flop_caches():
    for fn in (flop._column, flop._mask_index, partitions.box_index, partitions.enumerate_box):
        fn.cache_clear()


@pytest.mark.parametrize("command", ["flop-matrix", "check-iso", "snf", "kbasis"])
@pytest.mark.parametrize("t, h", [(2, 5), (3, 6)], ids=["G(2,5)", "G(3,6)"])
def test_flop_commands_build_no_partition(monkeypatch, capsys, command, t, h):
    # the flop path and kbasis read the basis off exponent tuples alone
    argv = [command, "--t", str(t), "--h", str(h)]
    want = [run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "table")]

    def forbidden(*args):
        raise AssertionError("partition built")

    _clear_flop_caches()
    for module in (kgroup, partitions):
        monkeypatch.setattr(module, "enumerate_box", forbidden)
        monkeypatch.setattr(module, "Partition", forbidden)
    assert [run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "table")] == want


def test_flop_matrix_command_builds_no_checked_matrix(monkeypatch, capsys):
    # the writer reads the rows of F that the compound built from ints;
    # the validated IntegerMatrix is for library callers
    argv = ["flop-matrix", "--t", "3", "--h", "6"]
    want = [run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "table")]

    def forbidden(*args):
        raise AssertionError("checked matrix built")

    monkeypatch.setattr(kgroup, "flop_matrix", forbidden)
    monkeypatch.setattr(kgroup, "IntegerMatrix", forbidden)
    assert [run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "table")] == want


def test_failed_flop_certificate_prints_nothing(monkeypatch, capsys):
    # with x^-1 negated, U_1 . P_1 is no involution: the certificate
    # refuses it before F is built from that column, and each command
    # prints the structured error object and no row of F
    negated = tuple((i, -a) for i, a in flop._column(-1, 6))
    monkeypatch.setattr(flop, "_column", lambda e, h: negated)
    error = ('{"error":{"message":"flop matrix of BoxShape(rows=3, cols=3) is not an '
             'involution at column x^5","type":"CertificateError"}}\n')
    for command in ("flop-matrix", "check-iso", "snf"):
        for fmt in ("json", "table"):
            assert main([command, "--t", "3", "--h", "6", "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (error, "")


def test_only_the_certificate_refusal_is_a_structured_error(monkeypatch):
    # any other ArithmeticError is a fault of the program, not a verdict
    def fails(box):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(flop, "flop_certificate", fails)
    with pytest.raises(ZeroDivisionError):
        main(["check-iso", "--t", "3", "--h", "6"])


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_flop_matrix_output_is_streamed(monkeypatch, fmt):
    # cold G(6,12) under tracemalloc (CPython 3.11): F alone peaks at about
    # 11 MB; holding every entry's string and the whole text, as the report
    # built at once did, peaked at 71 MB (json) and 76 MB (table)
    _clear_flop_caches()
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert main(["flop-matrix", "--t", "6", "--h", "12", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # the `flopk` entry point calls main() with no arguments; the digest
    # is the G(2,4) one recorded in perfbench/expected.json
    monkeypatch.setattr(sys, "argv", ["flopk", "flop-matrix", "--t", "2", "--h", "4"])
    assert main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "791fbd3fa9414db82aed6caf1aed7c6b8e6cfe42918983b82c1bb3d152870bee"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("kbasis", "--t", "10", "--h", "20"),
        ("hodge", "--t", "10", "--h", "20"),
        ("kbasis", "--t", "15", "--h", "30"),
        ("hodge", "--t", "1", "--h", "83"),  # K-rank 83, but dimension 82
        ("kbasis", "--t", "10000", "--h", "20000"),
        ("kbasis", "--t", "1000000", "--h", "2000000"),
    ],
    ids=lambda a: "-".join(a[0::2]),
)
def test_oversized_box_is_structured_error(capsys, argv):
    started = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert payload["error"]["type"] == "SizeLimit"


def test_oversized_rank_message(capsys):
    # a rank that prints is given in full; a longer one by its digit count
    code, payload = run_json(capsys, "check-iso", "--t", "7", "--h", "14")
    assert (code, payload["error"]["message"]) == (
        1, "G(7,14) has K-rank 3432, above the limit 924"
    )
    code, payload = run_json(capsys, "kbasis", "--t", "10000", "--h", "20000")
    assert code == 1
    assert payload["error"]["message"] == (
        f"G(10000,20000) has a K-rank of more than {MAX_DIGITS} digits, "
        f"above the limit {MAX_BOX.rank}"
    )


def test_largest_box_is_accepted(capsys):
    # G(9,18) has K-rank 48620 and dimension 81, exactly the limits
    assert _box(argparse.Namespace(t=9, h=18)).rank == MAX_BOX.rank == 48620
    code, payload = run_json(capsys, "hodge", "--t", "1", "--h", "82")
    assert code == 0
    assert payload["diagonal"] == [1] * (MAX_BOX.dim + 1)


def _increasing(n):
    return "--vector=" + ",".join(str(i) for i in range(n))


@pytest.mark.parametrize(
    "argv",
    [
        ("weyl-word", "--h", str(MAX_WEYL_H + 1)),
        ("weyl-word", "--h", str(10**18)),
        ("chamber-sort", _increasing(MAX_VECTOR + 1)),
        ("chamber-sort", _increasing(2000)),
    ],
    ids=["weyl-word-limit", "weyl-word-huge", "chamber-sort-limit", "chamber-sort-2000"],
)
def test_oversized_word_is_structured_error(capsys, argv):
    started = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert payload["error"]["type"] == "SizeLimit"


def test_largest_words_are_accepted(capsys):
    code, payload = run_json(capsys, "weyl-word", "--h", str(MAX_WEYL_H))
    assert code == 0
    assert payload["length"] == 2 * MAX_WEYL_H - 3
    # an increasing vector is the longest chamber sort: every pair inverts
    code, payload = run_json(capsys, "chamber-sort", _increasing(MAX_VECTOR))
    assert code == 0
    assert payload["length"] == MAX_VECTOR * (MAX_VECTOR - 1) // 2


def test_snf_of_flop_matrix(capsys):
    code, payload = run_json(capsys, "snf", "--t", "2", "--h", "4")
    assert code == 0
    assert payload["snf"] == ["1"] * 6


def test_snf_explicit_matrix(capsys):
    code, payload = run_json(capsys, "snf", "--matrix", "[[2,0],[0,3]]")
    assert code == 0
    assert payload["snf"] == ["1", "6"]


@pytest.mark.parametrize(
    "box", [("--t", "2", "--h", "4"), ("--t", "2"), ("--h", "4")], ids=lambda a: "".join(a[0::2])
)
def test_snf_matrix_with_box_is_usage_error(capsys, box):
    assert main(["snf", "--matrix", "[[2,0],[0,3]]", *box]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give --matrix, or --t and --h, not both\n"


def test_counterexample(capsys):
    code, payload = run_json(capsys, "counterexample")
    assert code == 0
    assert payload["index"] == 2
    assert payload["snf"] == [1, 1, 2]
    assert payload["images"]["O+(1)"] == ["-3", "6", "-2"]
    assert payload["basis"] == "line"


def test_counterexample_canonical(capsys):
    code, payload = run_json(capsys, "counterexample", "--canonical-basis")
    assert code == 0
    assert payload["index"] == 2
    assert payload["snf"] == [1, 1, 2]
    assert payload["target_basis"] == ["S^-", "S^1", "S^2"]


def test_bott_zero_and_nonzero(capsys):
    # a leading minus sign needs the --weight=... form, as usual
    code, payload = run_json(
        capsys, "bott", "--t", "2", "--h", "4", "--weight=-2,-2|0,0"
    )
    assert code == 0
    assert payload == {"zero": True}
    code, payload = run_json(capsys, "bott", "--weight", "1|0,0")
    assert code == 0
    assert payload == {"degree": 0, "dim": 3}


def test_hodge(capsys):
    code, payload = run_json(capsys, "hodge", "--t", "2", "--h", "4")
    assert code == 0
    assert payload["diagonal"] == [1, 1, 2, 1, 1]


def test_gamma_and_quadric(capsys):
    code, payload = run_json(capsys, "gamma", "--point", "1,1,2,3,4")
    assert code == 0
    assert payload == {
        "image": ["1", "3", "4", "-1", "-2", "-2"],
        "indeterminate": False,
    }
    code, payload = run_json(capsys, "gamma", "--point", "0,1,2,3,6")
    assert payload["indeterminate"] is True
    # the zero tuple is not a projective point
    assert main(["gamma", "--point", "0,0,0,0,0"]) == 2
    assert main(["gamma", "--point", "0,0,0,0,7", "--field", "7"]) == 2
    capsys.readouterr()
    code, payload = run_json(
        capsys, "quadric", "--point", "1,3,4,-1,-2,-2", "--field", "32003"
    )
    assert code == 0
    assert payload == {"on_quadric": True, "value": "0"}


_NINES = "9" * 2200  # its square has 4400 digits, above MAX_DIGITS


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", f"--point={_NINES},1,1,1,1"),
        ("gamma", f"--point=1,{_NINES},1,1,{_NINES}"),
        ("quadric", f"--point={_NINES},0,0,0,0,{_NINES}"),
    ],
    ids=["gamma-alpha", "gamma-xw", "quadric-p12-p34"],
)
def test_oversized_integer_output_is_structured_error(capsys, argv, fmt):
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 1
    assert out.count("\n") == 1  # the error line and nothing before it
    payload = json.loads(out)
    assert payload["error"]["type"] == "SizeLimit"
    assert f"more than {MAX_DIGITS} digits" in payload["error"]["message"]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_largest_integer_output_is_accepted(capsys, fmt):
    # coordinates of MAX_DIGITS / 2 nines square to exactly MAX_DIGITS digits
    nines = 10 ** (MAX_DIGITS // 2) - 1
    code, out = run_cli(capsys, "gamma", f"--point={nines},0,0,0,0", "--format", fmt)
    assert code == 0
    assert str(nines**2) in out and len(str(nines**2)) == MAX_DIGITS
    code, out = run_cli(
        capsys, "quadric", f"--point={nines},0,0,0,0,{nines}", "--format", fmt
    )
    assert code == 0
    assert str(nines**2) in out


@pytest.mark.parametrize("sign", [1, -1])
def test_decimal_limit_is_exact(sign):
    # the longest printable values and the shortest refused ones
    for x in (10**MAX_DIGITS - 1, 10 ** (MAX_DIGITS - 1)):
        assert cli._decimal([sign * x], "a value") == [str(sign * x)]
    for x in (10**MAX_DIGITS, 10**MAX_DIGITS + 1):
        with pytest.raises(cli.SizeLimit) as exc:
            cli._decimal([0, sign * x], "a value")
        assert str(exc.value) == f"a value has more than {MAX_DIGITS} digits"


@pytest.mark.parametrize("field", [None, "7"])
@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", f"--point={'9' * (MAX_DIGITS + 100)},1,1,1,1"),
        ("quadric", f"--point=1,1,1,1,1,-{'9' * (MAX_DIGITS + 1)}"),
    ],
    ids=["gamma", "quadric"],
)
def test_oversized_point_is_structured_error(capsys, argv, field):
    # refused before int() meets CPython's int-from-string limit, whose
    # advice a user of the command line cannot follow
    extra = ("--field", field) if field else ()
    code, out = run_cli(capsys, *argv, *extra)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == {
        "type": "SizeLimit",
        "message": f"a coordinate of the point has more than {MAX_DIGITS} digits",
    }


def test_longest_point_is_accepted(capsys):
    # MAX_DIGITS digits parse; reduced mod 7 the image prints
    code, payload = run_json(capsys, "gamma", f"--point={'9' * MAX_DIGITS},1,1,1,1", "--field", "7")
    assert code == 0
    assert payload["indeterminate"] is False


def test_oversized_point_prints_over_a_field(capsys):
    # reduced mod p, the same point prints: 10^2200 - 1 = 4 mod 7
    code, payload = run_json(capsys, "gamma", f"--point={_NINES},1,1,1,1", "--field", "7")
    assert code == 0
    assert payload == {"image": ["2", "3", "3", "4", "4", "0"], "indeterminate": False}


_LONG = "9" * (MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "argv, what",
    [
        (("gamma", f"--point={_LONG},1,1,1,1"), "a coordinate of the point"),
        (("quadric", f"--point=1,1,1,1,1,-{_LONG}"), "a coordinate of the point"),
        (("bott", f"--weight={_LONG}|0"), "an entry of the weight"),
        (("snf", f"--matrix=[[1,{_LONG}]]"), "an entry of the matrix"),
        (("chamber-sort", f"--vector=1/{_LONG},0"), "an entry of the vector"),
        # underscores separate digits without ending the number
        (("chamber-sort", f"--vector=1_{_LONG[1:]},0"), "an entry of the vector"),
        # an exponent names a power of ten that Fraction writes out in full
        (("chamber-sort", "--vector=1e2000000,0"), "an entry of the vector"),
        (("chamber-sort", "--vector=1e-5000,0"), "an entry of the vector"),
        (("chamber-sort", "--vector=1e5000,1e5000"), "an entry of the vector"),
        # as does a fractional part: 1.99...9 with 4300 nines has a 4301-digit numerator
        (("chamber-sort", f"--vector=1.{_LONG[1:]},1.{_LONG[1:]}"), "an entry of the vector"),
    ],
    ids=["gamma", "quadric", "bott", "snf", "chamber-sort", "chamber-sort-underscores",
         "chamber-sort-exponent", "chamber-sort-negative-exponent", "chamber-sort-wall",
         "chamber-sort-fraction-wall"],
)
def test_oversized_number_is_structured_error(capsys, argv, what):
    # refused before parsing, instead of a usage error quoting CPython's
    # advice to call sys.set_int_max_str_digits()
    started = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert json.loads(out) == {
        "error": {"type": "SizeLimit", "message": f"{what} has more than {MAX_DIGITS} digits"}
    }


def test_longest_numbers_are_accepted(capsys):
    # MAX_DIGITS digits parse; digits split by a separator count apart
    nines = "9" * MAX_DIGITS
    code, payload = run_json(capsys, "snf", f"--matrix=[[{nines}]]")
    assert (code, payload) == (0, {"snf": [nines]})
    code, payload = run_json(capsys, "chamber-sort", f"--vector=1/{nines},{nines},0")
    assert (code, payload["sigma"]) == (0, [2, 1, 3])


@pytest.mark.parametrize(
    "vector, sigma",
    [
        ("1e3,2", [1, 2]),
        ("1/3,2.5", [2, 1]),
        (f"1e{MAX_DIGITS - 1},0", [1, 2]),
        (f"1e-{MAX_DIGITS - 1},0", [1, 2]),
        (f"0.5e{MAX_DIGITS},0", [1, 2]),
    ],
)
def test_exponents_within_the_limit_are_accepted(capsys, vector, sigma):
    code, payload = run_json(capsys, "chamber-sort", f"--vector={vector}")
    assert (code, payload["sigma"]) == (0, sigma)


def _zero_weight(h):
    # no wall: the sweep multiplies every pair, the slowest weight per character
    return ",".join(["0"] * (h - 1)) + "|0"


@pytest.mark.parametrize(
    "argv",
    [
        ("bott", "--weight=10" + _zero_weight(MAX_WEIGHT_TEXT // 2)),
        ("bott", "--weight=" + ",".join(str(-i) for i in range(1500)) + "|0"),
        ("snf", "--matrix=[[1]]" + " " * (MAX_MATRIX_TEXT - 4)),
        ("snf", "--matrix=" + json.dumps([[7] * 80] * 80)),
    ],
    ids=["bott-limit", "bott-h1501", "snf-limit", "snf-80x80"],
)
def test_oversized_text_is_structured_error(capsys, argv):
    started = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert payload["error"]["type"] == "SizeLimit"
    assert "characters, above the limit" in payload["error"]["message"]


def test_longest_weight_is_accepted(capsys):
    weight = "1" + _zero_weight(MAX_WEIGHT_TEXT // 2)
    assert len(weight) == MAX_WEIGHT_TEXT
    # Sigma^(10) of the dual subbundle of G(299,300): its sections are
    # Sym^10 of C^300
    code, payload = run_json(capsys, "bott", f"--weight={weight}")
    assert (code, payload) == (0, {"degree": 0, "dim": comb(309, 10)})


def test_longest_matrix_is_accepted(capsys):
    # 2 x 2 with entries of about 2000 digits is the slowest shape measured
    rng = random.Random(0)
    digits = (1997, 1998, 1998, 1998)
    a, b, c, d = (rng.randrange(10 ** (n - 1), 10**n) for n in digits)
    text = f"[[{a},{b}],[{c},{d}]]"
    assert len(text) == MAX_MATRIX_TEXT
    code, payload = run_json(capsys, "snf", f"--matrix={text}")
    assert code == 0
    d1, d2 = map(int, payload["snf"])
    assert d2 % d1 == 0 and d1 * d2 == abs(a * d - b * c)


def test_oversized_bott_dimension_is_structured_error(capsys):
    # O(10^480) on P^9 has C(10^480 + 9, 9) sections, a number of 4315 digits
    weight = f"--weight={10**480}|" + ",".join(["0"] * 9)
    for fmt in ("json", "table"):
        code, out = run_cli(capsys, "bott", weight, "--format", fmt)
        assert code == 1
        assert json.loads(out) == {
            "error": {"type": "SizeLimit", "message": f"the dimension has more than {MAX_DIGITS} digits"}
        }


def test_snf_deeply_nested_matrix_is_usage_error(capsys):
    assert main(["snf", "--matrix", "[" * 2000 + "]" * 2000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --matrix: maximum recursion depth exceeded")


def test_gamma_reduces_before_the_zero_tests(capsys):
    # xw - yz = 8 - 1 = 7: indeterminate over F_7, not over the integers
    code, payload = run_json(capsys, "gamma", "--point", "0,1,1,1,8", "--field", "7")
    assert code == 0
    assert payload == {"image": ["0"] * 6, "indeterminate": True}
    code, payload = run_json(capsys, "gamma", "--point", "0,1,1,1,8")
    assert code == 0
    assert payload["indeterminate"] is False


def test_gamma_indeterminate_matches_flopgeom(capsys):
    rng = random.Random(3)
    for _ in range(300):
        pt = [rng.randint(-3, 3) for _ in range(5)]
        if not any(pt):
            continue
        code, payload = run_json(capsys, "gamma", "--point=" + ",".join(map(str, pt)))
        assert code == 0
        assert payload["indeterminate"] is is_indeterminate(pt)


@pytest.mark.parametrize("field", [2, 3, 7])
def test_gamma_indeterminate_over_prime_fields(capsys, field):
    # over F_p, indeterminate means alpha = 0 and xw - yz = 0 mod p
    rng = random.Random(field)
    for _ in range(200):
        alpha, x, y, z, w = pt = [rng.randint(-8, 8) for _ in range(5)]
        argv = ["gamma", "--point=" + ",".join(map(str, pt)), "--field", str(field)]
        if all(v % field == 0 for v in pt):
            assert main(argv) == 2
            capsys.readouterr()
            continue
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert payload["indeterminate"] is (alpha % field == 0 and (x * w - y * z) % field == 0)


def test_springer_fiber(capsys):
    code, payload = run_json(
        capsys, "springer-fiber", "--t", "2", "--h", "4", "--i", "2"
    )
    assert code == 0
    assert payload == {"dim": 0, "grassmann": [0, 0]}


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_oversized_springer_dimension_is_structured_error(capsys, fmt):
    # t (h - t) with t of 4000 digits and h - t of 4001 has 8001 digits
    t, h = "9" * 4000, "9" * 4001
    code, out = run_cli(capsys, "springer-fiber", "--t", t, "--h", h, "--i", "0", "--format", fmt)
    assert code == 1
    assert json.loads(out) == {
        "error": {"type": "SizeLimit", "message": f"the dimension has more than {MAX_DIGITS} digits"}
    }


def test_weyl_word(capsys):
    code, payload = run_json(capsys, "weyl-word", "--h", "5")
    assert code == 0
    assert payload == {
        "h": 5,
        "length": 7,
        "sigma": [5, 2, 3, 4, 1],
        "word": [1, 2, 3, 4, 3, 2, 1],
    }


def test_weyl_word_table(capsys):
    code, out = run_cli(capsys, "weyl-word", "--h", "5", "--format", "table")
    assert code == 0
    assert out == "sigma: [5, 2, 3, 4, 1]\nword: [1, 2, 3, 4, 3, 2, 1]\nlength: 7\n"


def test_chamber_sort(capsys):
    code, payload = run_json(capsys, "chamber-sort", "--vector", "1,3,2,4")
    assert code == 0
    assert payload == {"length": 5, "sigma": [4, 2, 3, 1], "word": [1, 2, 3, 2, 1]}


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------

def test_usage_error_missing_params(capsys):
    assert main(["kbasis"]) == 2
    capsys.readouterr()


def test_usage_error_flop_hypothesis(capsys):
    # flop commands require t <= h/2
    assert main(["check-iso", "--t", "3", "--h", "4"]) == 2
    capsys.readouterr()


def test_wall_point_is_structured_error(capsys):
    code, out = run_cli(capsys, "chamber-sort", "--vector", "1,1,2")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "RegularityViolation"


def test_bad_weight_is_usage_error(capsys):
    assert main(["bott", "--weight", "nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("box", [("--t", "2"), ("--h", "3")])
def test_bott_box_needs_both_sides(capsys, box):
    assert main(["bott", "--weight", "1,0|0", *box]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give --t and --h together, or neither\n"


_USAGE_ERRORS = [
    (["bott"], '--weight is required, e.g. "-2,-2|0,0"'),
    (["gamma"], "--point a,x,y,z,w is required"),
    (["quadric"], "--point p12,p13,p14,p23,p24,p34 is required"),
    (["springer-fiber", "--t", "2", "--h", "4"], "--t, --h and --i are required"),
    (["weyl-word"], "--h >= 2 is required"),
    (["chamber-sort"], "--vector v1,v2,... is required"),
    (["gamma", "--point", "1,2,3"], "expected 5 comma-separated values, got 3"),
    (["gamma", "--point", "1,x,3,4,5"], "invalid literal for int() with base 10: 'x'"),
    (["gamma", "--point", "1,2,3,4,5", "--field", "10"], "10 is not prime"),
    (["quadric", "--point", "1,2,3,4,5"], "expected 6 comma-separated values, got 5"),
    (["quadric", "--point", "1,2,3,4,5,x"], "invalid literal for int() with base 10: 'x'"),
    (["quadric", "--point", "0,0,0,0,0,0"], "the all-zero tuple is not a projective point"),
    (["quadric", "--point", "7,7,7,7,7,7", "--field", "7"],
     "the all-zero tuple is not a projective point"),
    (["bott", "--t", "2", "--h", "4", "--weight", "1,0|0"],
     "weight blocks 1,0|0 do not match t=2, h=4"),
    (["springer-fiber", "--t", "2", "--h", "4", "--i", "3"],
     "need 0 <= i <= t and 2t <= h, got t=2, h=4, i=3"),
]


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in _USAGE_ERRORS])
def test_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_zero_denominator_vector_is_usage_error(capsys):
    assert main(["chamber-sort", "--vector", "1/0,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --vector: ")


def test_bad_field_is_usage_error(capsys):
    code, out = run_cli(capsys, "quadric", "--point", "1,1,1,1,1,1", "--field", "10")
    assert code == 2


# 561 is a Carmichael number; the Miller-Rabin bound is beyond the exact range
@pytest.mark.parametrize("field", [561, 10**18 + 1, _MILLER_RABIN_BOUND])
def test_composite_or_unprovable_field_is_usage_error(capsys, field):
    code, out = run_cli(capsys, "quadric", "--point", "1,1,1,1,1,1", "--field", str(field))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("field", [32003, 10**18 + 3])
def test_prime_field_is_accepted(capsys, field):
    started = time.perf_counter()
    code, payload = run_json(capsys, "quadric", "--point", "1,3,4,-1,-2,-2", "--field", str(field))
    assert time.perf_counter() - started < 0.5
    assert code == 0
    assert payload == {"on_quadric": True, "value": "0"}


# ---------------------------------------------------------------------------
# Output formats and determinism
# ---------------------------------------------------------------------------

def test_table_format(capsys):
    code, out = run_cli(capsys, "flop-matrix", "--t", "1", "--h", "2", "--format", "table")
    assert code == 0
    assert "det: " in out


def test_json_outputs_deterministic(capsys):
    first = run_cli(capsys, "counterexample")[1]
    second = run_cli(capsys, "counterexample")[1]
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("kbasis", "--t", "2", "--h", "5"),
        ("flop-matrix", "--t", "2", "--h", "4"),
        ("counterexample",),
        ("hodge", "--t", "2", "--h", "4"),
        ("weyl-word", "--h", "6"),
        ("springer-fiber", "--t", "2", "--h", "6", "--i", "1"),
    ],
    ids=lambda a: a[0],
)
def test_json_round_trip_byte_identical(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert canonical_json(json.loads(out)) == out.strip()


def test_verify_all_json(capsys):
    code, out = run_cli(capsys, "verify-all")
    assert code == 0
    payload = json.loads(out)
    assert canonical_json(payload) == out.strip()
    assert payload["all_pass"] is True
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 11))


def test_verify_all_table(capsys):
    code, out = run_cli(capsys, "verify-all", "--format", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


# ---------------------------------------------------------------------------
# Command lines the fast path leaves to argparse
# ---------------------------------------------------------------------------

def outcome(capsys, call):
    """Exit status, stdout and stderr of ``call()``, which may exit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def left_to_argparse(capsys, argv):
    """main's outcome on ``argv``, checked to be the full parser's."""
    assert _fast_parse(argv) is None
    got = outcome(capsys, lambda: main(argv))
    assert got == outcome(capsys, lambda: run(_build_parser().parse_args(argv)))
    return got


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_matches_full_parser(capsys, command):
    # main on one command's help or a bogus option prints what the full parser prints
    for argv in ([command, "--help"], [command, "--bogus"]):
        assert left_to_argparse(capsys, argv)[0] == (0 if argv[1] == "--help" else 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("kbasis", "--t", "2", "--h", "4", "--bogus"),
        ("flop-matrix", "--t", "x", "--h", "3"),
        ("counterexample", "--line-basis", "--canonical-basis"),
        pytest.param(("--help",), id="--help"),
        pytest.param((), id="no-command"),
        pytest.param(("check-iso", "--t=-1", "--h", "4"), id="check-iso --t=-1"),
        pytest.param(("kbasis", "--t", "2", "--h", "4", "--form", "table"), id="kbasis --form"),
        pytest.param(("counterexample", "--canonical-basis"), id="counterexample flag"),
        pytest.param(("weyl-word", "--h", "5", "--h"), id="weyl-word odd token"),
        pytest.param(("gamma", "--point", "-1,1,2,3,4"), id="gamma negative value"),
        pytest.param(("hodge", "--t", "+2", "--h", "4"), id="hodge signed int"),
    ],
    ids=lambda a: a[0],
)
def test_one_command_parser_errors_match_full_parser(capsys, argv):
    code, out, err = left_to_argparse(capsys, list(argv))
    # argparse prints help and results on stdout, usage errors on stderr
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))


def test_seed_is_a_verify_all_option_only(capsys):
    assert _build_parser().parse_args(["verify-all", "--seed", "1"]).seed == 1
    with pytest.raises(SystemExit) as exc:
        main(["flop-matrix", "--t", "2", "--h", "4", "--seed", "1"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --seed 1" in captured.err


# ---------------------------------------------------------------------------
# The README's command block
# ---------------------------------------------------------------------------

def _readme_commands():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("flopk ")]


def test_readme_command_block_covers_every_command():
    lines = _readme_commands()
    assert len(lines) == 15
    assert {shlex.split(line)[1] for line in lines} == set(_COMMANDS)
    claimed = [line.split()[1] for line in lines if re.search(r"# \{|diagonal \(|word \[", line)]
    assert claimed == ["check-iso", "bott", "hodge", "weyl-word"]


@pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: line.split("#")[0].strip())
def test_readme_command_runs_as_documented(capsys, line):
    command, _, comment = line.partition("#")
    code, out = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0
    comment = comment.strip()
    if comment.startswith("{"):
        assert out.strip() == comment
    if match := re.search(r"diagonal \(([\d,]+)\)", comment):
        assert json.loads(out)["diagonal"] == json.loads(f"[{match[1]}]")
    if match := re.search(r"word (\[[\d,]+\])", comment):
        assert json.loads(out)["word"] == json.loads(match[1])


# ---------------------------------------------------------------------------
# The fast path: argparse's answer on the command lines it accepts
# ---------------------------------------------------------------------------

def _fuzz_argv(rng, options):
    """A command line drawn from the commands, options and values of every
    command, with = forms, abbreviations, flags and malformed values."""
    ints = ["0", "2", "4", "007", "9" * 4300, "-1", "+3", " 5", "1_0", "\u0663", "", "x",
            "9" * 4301, "2.0"]
    texts = ["-2,-2|0,0", "0,0|0", "1,3,2,4", "1,1,2,3,4", "[[2,0],[0,3]]", "a b", "", "-",
             "--", "=", "1=2", "--t", "json"]
    formats = ["json", "table", "xml", "JSON", ""]
    junk = ["-h", "--help", "--form", "--fo", "--we", "--bogus", "--", "-t", "x", "--t=", "="]
    command = rng.choice(list(_COMMANDS) * 6 + ["--help", "bogus", "", "kbasi"])
    argv = [command]
    for _ in range(rng.randint(0, 4)):
        own = options.get(command, [])
        flag, kind = rng.choice(own if own and rng.random() < 0.8 else options["*"])
        good = (ints[:4] if kind is int else texts[:5] if kind is str
                else formats[:2] if isinstance(kind, tuple) else [""])
        value = rng.choice(good if rng.random() < 0.7 else ints + texts + formats)
        form = rng.random()
        if form < 0.45:
            argv += [flag, value]
        elif form < 0.9:
            argv.append(f"{flag}={value}")
        else:
            argv.append(rng.choice(junk + [flag]))
    return argv


def test_fast_parse_agrees_with_argparse():
    parser = _build_parser()
    options = {name: [(row[0], row[2]) for row in _options(name)] for name in _COMMANDS}
    options["*"] = sorted({option for rows in options.values() for option in rows}, key=str)
    rng = random.Random(18)
    accepted = 0
    for _ in range(20000):
        argv = _fuzz_argv(rng, options)
        fast = _fast_parse(argv)
        if fast is None:
            continue
        accepted += 1
        try:
            want = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"fast path accepted what argparse refuses: {argv}")
        assert vars(fast) == want, argv
    assert accepted >= 3000


def _benchmark_and_readme_commands():
    # the flop ladder G(1,2) ... G(3,7), verify-all as the benchmark seeds
    # it, and every README command line that sets no flag
    flags = {row[0] for rows in _OPTIONS.values() for row in rows if isinstance(row[2], str)}
    ladder = [
        ("flop-matrix", "--t", str(t), "--h", str(h))
        for h in range(2, 8) for t in range(1, h // 2 + 1)
    ]
    seeds = [("verify-all", "--seed", s) for s in ("0", "1", "999999")]
    readme = [tuple(shlex.split(line.partition("#")[0])[1:]) for line in _readme_commands()]
    return list(dict.fromkeys(ladder + seeds + [argv for argv in readme if not flags & set(argv)]))


@pytest.mark.parametrize("argv", _benchmark_and_readme_commands(), ids=" ".join)
def test_fast_path_answers_without_argparse(monkeypatch, capsys, argv):
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert main(list(argv)) == 0
    assert capsys.readouterr().err == ""


def _fresh(*args):
    """Exit status, stdout and stderr of a fresh interpreter run on ``args``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_fast_path_imports_no_argparse():
    # neither argparse nor the locale lookup of its messages loads on the fast path
    code = (
        "import sys, flopk.cli\n"
        "flopk.cli.main(['check-iso', '--t', '2', '--h', '4'])\n"
        "sys.exit(sorted({'argparse', 'locale'} & set(sys.modules)) or 0)\n"
    )
    assert _fresh("-c", code) == (0, '{"det":"1","isomorphism":true}\n', "")


def test_flop_command_loads_only_what_it_runs(capsys):
    # the package root loads no submodule, and a flop or box command loads
    # only cli, flop and partitions: no kgroup, no other flopk module, no
    # dataclasses (whose import pulls in inspect) and no argparse;
    # flop-matrix writes its JSON by hand, so it never loads json either
    unused = {"flopk.acceptance", "flopk.bott", "flopk.main_component", "flopk.flopgeom",
              "flopk.weyl", "flopk.chow", "flopk.kgroup", "dataclasses", "inspect", "argparse"}
    for command in ("flop-matrix", "check-iso", "snf", "kbasis"):
        argv = [command, "--t", "2", "--h", "4"]
        forbidden = unused | {"json"} if command == "flop-matrix" else unused
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"  # what the interpreter's site set-up loaded
            "import flopk\n"
            "bare = [m for m in sys.modules if m.startswith('flopk.')]\n"
            "import flopk.cli\n"
            f"flopk.cli.main({argv!r})\n"
            f"loaded = bare + sorted(set({sorted(forbidden)!r}) & (sys.modules.keys() - before))\n"
            "sys.exit(str(loaded) if loaded else 0)\n"
        )
        assert _fresh("-c", script) == (0, run_cli(capsys, *argv)[1], ""), command


def _untimed(out):
    # verify-all's table prints each criterion's measured time
    return re.sub(r"\[\d+\.\d+s\]", "[time]", out)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_fresh_interpreter_matches_in_process_call(capsys, command):
    # each handler imports its own module, so a fresh process that runs
    # one command answers as main does in this process
    line = next(line for line in _readme_commands() if line.split()[1] == command)
    argv = shlex.split(line.partition("#")[0])[1:]
    code, out, err = outcome(capsys, lambda: main(argv))
    fresh_code, fresh_out, fresh_err = _fresh("-m", "flopk.cli", *argv)
    assert (fresh_code, _untimed(fresh_out), fresh_err) == (code, _untimed(out), err)


@pytest.mark.parametrize("argv", [
    "bott --weight=--", "chamber-sort --vector=--", "gamma --point=--", "quadric --point=--",
    "snf --matrix=--", "springer-fiber --t=-- --h 4 --i 1", "verify-all --seed=--",
    "kbasis --t 2 --h 4 --format=--",
])
def test_double_dash_value_is_usage_error(argv):
    # argparse before 3.13 stores "--name=--" as an empty list, which no
    # handler can read
    code, out, err = _fresh("-m", "flopk.cli", *argv.split())
    assert (code, out) == (2, "")
    assert "error: " in err.splitlines()[-1]
    assert "Traceback" not in err
