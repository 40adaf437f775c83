"""Record the exact outputs the benchmark compares against.

    python3 perfbench/make_expected.py

Writes perfbench/expected.json: the sha256 of the stdout of
``flopk flop-matrix --t t --h h`` for every ladder box, and of
``flopk verify-all`` (whose JSON does not depend on its seed).  Run it
only on a commit whose outputs are known to be right; the benchmark
counts every later difference as a failed operation.
"""

import json

import checks
import inputs
import run


def main():
    runner = run.Runner()
    flop = {}
    for t, h in sorted(inputs.LADDER, key=lambda b: (b[1], b[0])):
        reply = runner.spawn({"kind": "cli", "argv": ["flop-matrix", "--t", str(t), "--h", str(h)]})
        flop[f"{t},{h}"] = checks.digest(reply["ops"][0]["stdout"])
    reply = runner.spawn({"kind": "cli", "argv": ["verify-all", "--seed", "0"]})
    doc = {"flop-ladder": flop, "verify-all": checks.digest(reply["ops"][0]["stdout"])}
    with open(run.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
