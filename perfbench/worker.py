"""One benchmark job in a fresh interpreter.

Reads a JSON job on stdin, runs it against the flopk package found on
PYTHONPATH, and prints one JSON reply on stdout.  Set-up ends when
``flopk`` and its command line are imported: the reply's ``ready`` is
that moment on the system monotonic clock, so the parent can subtract
the time it spawned this process.

Every call into flopk is timed on its own; failures are caught per call
and reported, so one failing operation does not hide the others.
"""

import time

import flopk
import flopk.cli

READY = time.monotonic()


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    Read from VmHWM rather than ru_maxrss, which after exec still holds
    the peak of the parent that spawned the process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


READY_PEAK_RSS_KB = peak_rss_kb()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from flopk import acceptance, bott, kgroup, main_component  # noqa: E402
from flopk.chow import ch_matrix, ch_matrix_inverse, chern_character, dual_chern_character  # noqa: E402
from flopk.partitions import BoxShape, enumerate_box, lr_coefficients, partitions_of  # noqa: E402

from spans import Tracer  # noqa: E402

CRITERIA = [
    (1, acceptance.criterion_1_basis_ranks, False),
    (2, acceptance.criterion_2_flop_unimodular, False),
    (3, acceptance.criterion_3_involution, False),
    (4, acceptance.criterion_4_main_component, False),
    (5, acceptance.criterion_5_koszul_intermediates, False),
    (6, acceptance.criterion_6_bott_anchors, False),
    (7, acceptance.criterion_7_quadric_identity, True),
    (8, acceptance.criterion_8_weyl_words, True),
    (9, acceptance.criterion_9_oracles, False),
    (10, acceptance.criterion_10_serre_duality, True),
]

ATOMS = {
    "sub": lambda a: kgroup.schur_sub(tuple(a)),
    "sub*": lambda a: kgroup.schur_sub_dual(tuple(a)),
    "quot": lambda a: kgroup.schur_quot(tuple(a)),
    "tangent_wedge": kgroup.wedge_tangent,
    "line": kgroup.line_bundle,
}


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``flopk <argv>`` in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = flopk.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def job_setup(job, tracer):
    return {"ops": []}


def job_cli(job, tracer):
    """One cold CLI call: the untraced flop-ladder and verify-all operation."""
    started = perf_counter()
    rc, out = call_cli(job["argv"])
    return {"ops": [{"time": perf_counter() - started, "rc": rc, "stdout": out}]}


def job_flop_trace(job, tracer):
    """A flop certificate split into its layer calls, in dependency order,
    ending with the CLI call that prints it (now on warm caches)."""
    t, h = job["box"]
    op = f"G({t},{h})"
    started = perf_counter()
    with tracer.span("op", op):
        box = BoxShape.for_grassmannian(t, h)
        basis = enumerate_box(box)
        with tracer.span("partitions.lr_table", op):
            for lam in basis:
                for mu in basis:
                    lr_coefficients(lam, mu, box)
        with tracer.span("chow.ch_basis", op):
            for alpha in basis:
                chern_character(alpha, box)
        with tracer.span("chow.ch_dual", op):
            for alpha in basis:
                dual_chern_character(alpha, box)
        with tracer.span("chow.ch_inverse", op):
            ch_matrix(box)
            ch_matrix_inverse(box)
        with tracer.span("kgroup.flop_solve", op):
            m = kgroup.flop_matrix(box)
        with tracer.span("kgroup.det", op):
            m.det()
        with tracer.span("kgroup.snf", op):
            kgroup.smith_normal_form(m)
        with tracer.span("kgroup.involution", op):
            m @ m
        with tracer.span("cli.warm_call", op):
            rc, out = call_cli(["flop-matrix", "--t", str(t), "--h", str(h)])
    elapsed = perf_counter() - started
    bits = max(abs(x).bit_length() for row in m.entries for x in row)
    return {
        "ops": [{"time": elapsed, "rc": rc, "stdout": out}],
        "counts": {"lr_pairs": len(basis) ** 2, "max_entry_bits": bits},
    }


def job_verify_trace(job, tracer):
    """``verify-all`` split into the LR range it relies on and the ten
    criteria, each timed on its own."""
    seed = job["seed"]
    op = f"verify/{seed}"
    criteria = []
    started = perf_counter()
    with tracer.span("op", op):
        with tracer.span("partitions.lr_range", op):
            for n1 in range(0, 9):
                for n2 in range(0, 9 - n1):
                    for lam in partitions_of(n1):
                        for mu in partitions_of(n2):
                            lr_coefficients(lam, mu)
        for number, fn, seeded in CRITERIA:
            with tracer.span(f"acceptance.c{number}", op):
                r = fn(seed) if seeded else fn()
            criteria.append({"number": r.number, "pass": r.passed, "detail": r.detail})
    return {"ops": [{"time": perf_counter() - started, "criteria": criteria}]}


def job_taut(job, tracer):
    """A library session on warm caches: expansions, Koszul classes, the
    counterexample, Hodge tables, then Bott weights with their duals.

    Traced, the session first runs the work the expansions would do
    lazily, as its own layer calls: the character-matrix inverse of each
    box and the character of each distinct atom at its first use.
    """
    plan = job["plan"]
    out = {"expansions": [], "koszul": [], "counterexample": [], "hodge": [], "weights": []}
    expand_times = []
    wall = 0.0
    session = perf_counter()
    with tracer.span("op", "session"):
        items = []
        for (t, h), a, b in plan["expansions"]:
            box = BoxShape.for_grassmannian(t, h)
            items.append((box, a, b, ATOMS[a[0]](a[1]) * ATOMS[b[0]](b[1])))
        if tracer.enabled:
            for box in dict.fromkeys(item[0] for item in items):
                with tracer.span("chow.ch_inverse", f"inverse/{box.rows},{box.cols}"):
                    ch_matrix(box)
                    ch_matrix_inverse(box)
            seen = set()
            for box, a, b, _ in items:
                for atom in (a, b):
                    key = (box, atom[0], json.dumps(atom[1]))
                    if key not in seen:
                        seen.add(key)
                        with tracer.span("chow.atom_ch", f"atom/{len(seen)}"):
                            ATOMS[atom[0]](atom[1]).ch(box)

        for i, (box, a, b, expr) in enumerate(items):
            started = perf_counter()
            with tracer.span("kgroup.expand", f"expand/{i}"):
                try:
                    entry = {"coords": list(kgroup.expand_in_basis(expr, box).coords)}
                except Exception as exc:
                    entry = {"error": _error(exc)}
            elapsed = perf_counter() - started
            expand_times.append(elapsed)
            wall += elapsed
            out["expansions"].append(entry)

        for h in plan["koszul"]:
            started = perf_counter()
            with tracer.span("main_component.koszul", f"koszul/{h}"):
                try:
                    entry = {"coords": list(main_component.koszul_ideal_class(h).coords)}
                except Exception as exc:
                    entry = {"error": _error(exc)}
            wall += perf_counter() - started
            out["koszul"].append(entry)

        for basis in plan["counterexample"]:
            started = perf_counter()
            with tracer.span("main_component.counterexample", f"counterexample/{basis}"):
                try:
                    m = main_component.main_component_matrix(basis)
                    index = main_component.image_index(m)
                    entry = {"basis": basis, "matrix": [list(r) for r in m.entries], "index": index}
                except Exception as exc:
                    entry = {"basis": basis, "error": _error(exc)}
            wall += perf_counter() - started
            out["counterexample"].append(entry)

        for t, h in plan["hodge"]:
            started = perf_counter()
            with tracer.span("bott.hodge", f"hodge/{t},{h}"):
                try:
                    entry = {"table": bott.hodge_numbers(BoxShape.for_grassmannian(t, h))}
                except Exception as exc:
                    entry = {"error": _error(exc)}
            wall += perf_counter() - started
            out["hodge"].append(entry)

        weights = [bott.Weight(tuple(a), tuple(b)) for a, b in plan["weights"]]
        results = []
        started = perf_counter()
        with tracer.span("bott.weights", "weights"):
            for w in weights:
                try:
                    dual = bott.serre_dual_weight(w)
                    results.append((bott.bott_cohomology(w), dual, bott.bott_cohomology(dual)))
                except Exception as exc:
                    results.append(exc)
        wall += perf_counter() - started
    session = perf_counter() - session
    for r in results:
        if isinstance(r, Exception):
            out["weights"].append({"error": _error(r)})
        else:
            coh, dual, dual_coh = r
            out["weights"].append({
                "coh": None if coh is None else list(coh),
                "dual": [list(dual.a), list(dual.b)],
                "dual_coh": None if dual_coh is None else list(dual_coh),
            })
    refs = 2 * len(items)
    distinct = len({(box, json.dumps(atom)) for box, a, b, _ in items for atom in (a, b)})
    return {
        "ops": [{"time": session if tracer.enabled else wall, "taut": out}],
        "expand_times": expand_times,
        "counts": {"expansions": len(items), "atom_refs": refs, "atoms": distinct,
                   "weights": len(weights)},
    }


JOBS = {
    "setup": job_setup,
    "cli": job_cli,
    "flop_trace": job_flop_trace,
    "verify_trace": job_verify_trace,
    "taut": job_taut,
}


def main() -> int:
    job = json.load(sys.stdin)
    tracer = Tracer(job.get("trace", False))
    reply = JOBS[job["kind"]](job, tracer)
    reply["ready"] = READY
    reply["flopk_file"] = flopk.__file__
    reply["spans"] = tracer.spans
    reply["peak_rss_kb"] = peak_rss_kb()
    reply["ready_peak_rss_kb"] = READY_PEAK_RSS_KB
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
