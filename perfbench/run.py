"""The flopk benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flop-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

Each run repeats passes of one workload until ``--seconds`` have gone
by, one worker process at a time (a closed loop, no threads), and checks
every output.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; the line before it prints the
workload-specific figures.  With ``--trace 1`` the run makes one
untraced pass of the workload and one traced pass of every workload (so
that every layer is measured), and reports the per-layer metrics; the
spans are written to perfbench/out/.  See perfbench/README.md for the metrics and why the
workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

WORKLOADS = ("flop-ladder", "verify-all", "taut-session")
PROCESSES_PER_PASS = {"flop-ladder": len(inputs.LADDER), "verify-all": 1, "taut-session": 1}
CERT_BOXES = ((3, 6), (2, 7), (3, 7))
SETUP_PROBES = 11  # the first only fills the bytecode cache and is not counted
RUN_LIMIT_S = 170

STAGES = (
    "partitions.lr_table", "partitions.lr_range",
    "chow.ch_basis", "chow.ch_dual", "chow.ch_inverse", "chow.atom_ch",
    "kgroup.expand", "kgroup.flop_solve", "kgroup.det", "kgroup.snf", "kgroup.involution",
    "cli.warm_call",
    *(f"acceptance.c{n}" for n in range(1, 11)),
    "main_component.koszul", "main_component.counterexample", "bott.hodge", "bott.weights",
)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass
class PassResult:
    wall: float = 0.0
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    op_times: dict = field(default_factory=dict)
    expand_times: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # one list per worker
    rss_growth_kb: int = 0

    def add(self, reply: dict, op_problems: list[list[str]]):
        self.peak_rss_kb = max(self.peak_rss_kb, reply["peak_rss_kb"])
        self.rss_growth_kb = max(self.rss_growth_kb, reply["peak_rss_kb"] - reply["ready_peak_rss_kb"])
        for op in reply["ops"]:
            self.wall += op["time"]
        for problems in op_problems:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        for key, value in reply.get("counts", {}).items():
            if key == "max_entry_bits":
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value
        self.expand_times.extend(reply.get("expand_times", []))
        if reply["spans"]:
            self.spans.append(reply["spans"])


class Runner:
    """Spawns workers one at a time and records their set-up times."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setups: list[float] = []

    def spawn(self, job: dict) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)],
                input=json.dumps(job), capture_output=True, text=True, env=env,
                cwd=ROOT, timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for {job['kind']} passed the {RUN_LIMIT_S}s run limit")
        if proc.returncode != 0:
            raise BenchError(f"worker for {job['kind']} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        reply = json.loads(proc.stdout.splitlines()[-1])
        if not Path(reply["flopk_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"worker imported flopk from {reply['flopk_file']}, not {SRC}")
        self.setups.append(reply["ready"] - spawned)
        return reply

    def probe_setup(self):
        for i in range(SETUP_PROBES):
            self.spawn({"kind": "setup"})
            if i == 0:
                self.setups.clear()


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def run_pass(runner: Runner, workload: str, data, expected: dict, traced: bool = False) -> PassResult:
    """One pass of a workload on the generated inputs ``data``."""
    res = PassResult()
    base = {"trace": traced}
    if workload == "flop-ladder":
        for t, h in data:
            if traced:
                job = {"kind": "flop_trace", "box": [t, h], **base}
            else:
                job = {"kind": "cli", "argv": ["flop-matrix", "--t", str(t), "--h", str(h)], **base}
            reply = runner.spawn(job)
            op = reply["ops"][0]
            res.add(reply, [checks.check_flop_output(
                op["stdout"], op["rc"], t, h, expected["flop-ladder"][f"{t},{h}"])])
            res.op_times[(t, h)] = op["time"]
    elif workload == "verify-all":
        if traced:
            reply = runner.spawn({"kind": "verify_trace", "seed": data, **base})
            problems = checks.check_criteria(reply["ops"][0]["criteria"])
            for c in reply["ops"][0]["criteria"]:
                if c["number"] == 9:
                    reply.setdefault("counts", {})["lr_values_checked"] = (
                        checks.lr_values_checked(c["detail"]))
        else:
            reply = runner.spawn({"kind": "cli", "argv": ["verify-all", "--seed", str(data)], **base})
            op = reply["ops"][0]
            problems = checks.check_verify_output(op["stdout"], op["rc"], expected["verify-all"])
        res.add(reply, [problems])
    elif workload == "taut-session":
        reply = runner.spawn({"kind": "taut", "plan": data, **base})
        res.add(reply, taut_problems(data, reply["ops"][0]["taut"]))
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return res


def taut_problems(plan: dict, out: dict) -> list[list[str]]:
    """Problems per session operation; every weight is one operation."""
    per_op = []
    for ((t, h), a, b), entry in zip(plan["expansions"], out["expansions"]):
        per_op.append(checks.check_expansion(entry, (a, b), t, h))
    for h, entry in zip(plan["koszul"], out["koszul"]):
        per_op.append(checks.check_koszul(entry, h))
    for entry in out["counterexample"]:
        per_op.append(checks.check_counterexample(entry))
    for (t, h), entry in zip(plan["hodge"], out["hodge"]):
        per_op.append(checks.check_hodge(entry, t, h))
    for weight, entry in zip(plan["weights"], out["weights"]):
        per_op.append(checks.check_weight(weight, entry))
    want = sum(len(plan[k]) for k in ("expansions", "koszul", "counterexample", "hodge", "weights"))
    if len(per_op) != want:
        per_op.append([f"session answered {len(per_op)} of {want} operations"])
    return per_op


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, expected: dict) -> tuple[dict, dict]:
    """Untraced run: passes until ``seconds`` have elapsed; medians over passes."""
    runner = Runner()
    runner.probe_setup()
    passes: list[PassResult] = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        data = inputs.pass_inputs(workload, seed, len(passes))
        passes.append(run_pass(runner, workload, data, expected))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "setup_s": metric(statistics.median(runner.setups) * PROCESSES_PER_PASS[workload], "s"),
        "peak_rss_mb": metric(statistics.median(p.peak_rss_kb for p in passes) / 1024, "MB"),
    }
    detail = {
        "passes": metric(len(passes), "count"),
        "setup_samples": metric(len(runner.setups), "count"),
        "fail_frac": metric(failed / attempted, "share"),
    }
    if workload == "flop-ladder":
        for t, h in CERT_BOXES:
            detail[f"cert_s.g{t}_{h}"] = metric(
                statistics.median(p.op_times[(t, h)] for p in passes), "s")
    if workload == "taut-session":
        samples = [x for p in passes for x in p.expand_times]
        detail["expand_p50_s"] = metric(percentile(samples, 50), "s")
        detail["expand_p90_s"] = metric(percentile(samples, 90), "s")
        detail["expand_samples"] = metric(len(samples), "count")
    problems = [x for p in passes for x in p.problems]
    return result(attempted, failed, metrics, problems), detail


def measure_traced(workload: str, seed: int, expected: dict) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from span self times."""
    runner = Runner()
    runner.probe_setup()
    baseline = run_pass(runner, workload, inputs.pass_inputs(workload, seed, 0), expected)
    traced = {
        w: run_pass(runner, w, inputs.pass_inputs(w, seed, 0), expected, traced=True)
        for w in WORKLOADS
    }
    everything = [baseline, *traced.values()]

    selfs: dict[str, float] = {}
    for res in traced.values():
        for worker_spans in res.spans:
            for name, value in self_times(worker_spans).items():
                selfs[name] = selfs.get(name, 0.0) + value
    own = traced[workload]
    unattributed = sum(self_times(s).get("op", 0.0) for s in own.spans)
    counts = {}
    for res in traced.values():
        counts.update(res.counts)

    metrics = {f"{name}_s": metric(selfs.get(name, 0.0), "s") for name in STAGES}
    metrics.update({
        "partitions.lr_pairs": metric(counts["lr_pairs"], "count"),
        "kgroup.expansions": metric(counts["expansions"], "count"),
        "kgroup.atom_reuse": metric(counts["atom_refs"] / counts["atoms"], "refs/atom"),
        "kgroup.max_entry_bits": metric(counts["max_entry_bits"], "bits"),
        "acceptance.lr_values_checked": metric(counts["lr_values_checked"], "count"),
        "bott.weights": metric(counts["weights"], "count"),
        "mem.rss_growth_mb": metric(baseline.rss_growth_kb / 1024, "MB"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.unattributed_frac": metric(unattributed / own.wall, "share"),
        "trace.overhead_s": metric(own.wall - baseline.wall, "s"),
    })
    detail = {
        "traced_wall_s": metric(own.wall, "s"),
        "untraced_wall_s": metric(baseline.wall, "s"),
        "atom_refs": metric(counts["atom_refs"], "count"),
        "distinct_atoms": metric(counts["atoms"], "count"),
    }
    write_trace(workload, seed, traced, selfs)
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    problems = [x for p in everything for x in p.problems]
    return result(attempted, failed, metrics, problems), detail


def write_trace(workload: str, seed: int, traced: dict, selfs: dict):
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "self_time_s": dict(sorted(selfs.items())),
        "spans": {
            w: [dict(span, worker=i) for i, spans in enumerate(res.spans) for span in spans]
            for w, res in traced.items()
        },
    }
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump(doc, fh)


def result(attempted: int, failed: int, metrics: dict, problems: list[str]) -> dict:
    for line in problems[:20]:
        print(f"FAILED CHECK: {line}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_one(workload: str, seed: int, seconds: int, trace: bool, expected: dict):
    res, detail = (measure_traced(workload, seed, expected) if trace
                   else measure(workload, seed, seconds, expected))
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]}
    if set(res["metrics"]) != declared:
        raise BenchError(f"reported metrics {sorted(res['metrics'])} differ from BENCHMARK.json")
    return res, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flopk" / "__init__.py").is_file():
        print(f"error: no flopk sources under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    try:
        if args.workload != "all":
            res, detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace), expected)
            print(json.dumps({"workload": args.workload, "detail": detail}))
            print(json.dumps(res))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            res, detail = run_one(w, args.seed, args.seconds, bool(args.trace), expected)
            for name, m in {**res["metrics"], **detail}.items():
                print(f"{w:13} {name:32} {m['value']:>14.6g} {m['unit']}")
                combined["metrics"][f"{w}/{name}"] = m
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
