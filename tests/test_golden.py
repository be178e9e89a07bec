"""Byte-identity of the resolution routes' stdout against recorded hashes.

``golden_stdout.json`` maps each command line below to the SHA-256 of its
stdout and its exit code.  A change that is meant to leave every printed
byte alone (a speedup, a refactor) keeps this test green for free; one that
changes output on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the keys it adds, removes or changes before it writes.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout

from tatelab.cli import main

from conftest import CATALOG, NONUNIT_Q, SINGLE_INSTANCES, TOWER_INSTANCES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_stdout.json")

RINGS = SINGLE_INSTANCES + ["nonunit_q"]

# every single-instance command at default bounds, as a table (the labels
# print relators through Presentation.poly_str) and as the JSON a script reads
TABLE_COMMANDS = [
    ["deviations"], ["deviations", "--route", "minimal-model"], ["ci-check"],
    ["aq-ranks"], ["betti"], ["poincare"], ["koszul-h1"], ["model-print"],
    ["audit", "rigidity"], ["audit", "growth"],
]

# the closure_fp jobs and the model_q model job of perfbench/jobs.py
DEEP_JOBS = [
    ("m2zero_f2", ["deviations", "--N", "10"]), ("m2zero_f5", ["betti", "--N", "10"]),
    ("m2zero_q", ["deviations", "--route", "minimal-model", "--N", "8"]),
]


def jobs():
    for name in RINGS:
        for route in ("acyclic-closure", "minimal-model"):
            yield name, ["model-print", "--route", route]
        yield name, ["deviations", "--route", "minimal-model", "--N", "7"]
    # divided powers of exponent >= 2 in characteristic p
    for name in ("m2zero_f5", "cidiag_f2"):
        yield name, ["model-print", "--route", "acyclic-closure", "--N", "8"]
    # towers over a quotient base, where words reduce modulo its relators
    for name in TOWER_INSTANCES:
        for kind in ("jacobi-zariski", "ci-vanishing"):
            for fmt in ("json", "table"):
                yield name, ["audit", kind, "--format", fmt]
    for name in SINGLE_INSTANCES:
        for argv in TABLE_COMMANDS:
            for fmt in ("table", "json"):
                yield name, argv + ["--format", fmt]
    # the deep benchmark jobs, and the cycles every stage of a deep closure
    # and a deep model picks
    for name, argv in DEEP_JOBS:
        for fmt in ("table", "json"):
            yield name, argv + ["--format", fmt]
    yield "m2zero_f2", ["model-print", "--N", "10"]
    yield "m2zero_q", ["model-print", "--route", "minimal-model", "--N", "8"]
    # a closure deep enough that each homological degree holds dozens of
    # variables, so the order of their lone patterns is exercised
    yield "m2zero_q", ["model-print", "--route", "acyclic-closure", "--N", "12", "--D", "14"]


def run_all(tmpdir):
    """{command line: {"sha256": stdout hash, "exit": code}}, in-process."""
    nonunit = os.path.join(tmpdir, "nonunit_q.json")
    with open(nonunit, "w") as fh:
        json.dump(NONUNIT_Q, fh)
    out = {}
    for name, argv in jobs():
        path = nonunit if name == "nonunit_q" else os.path.join(CATALOG, name + ".json")
        buf = io.StringIO()
        with redirect_stdout(buf):
            fmt = [] if "--format" in argv else ["--format", "json"]
            code = main(argv + ["--input", path] + fmt)
        key = " ".join(argv + [name])
        out[key] = {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                    "exit": code}
    return out


def test_stdout_matches_recorded_hashes(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert run_all(str(tmp_path)) == golden


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmpdir:
        doc = run_all(tmpdir)
    with open(GOLDEN) as fh:
        old = json.load(fh)
    for label, keys in (("added", doc.keys() - old.keys()),
                        ("removed", old.keys() - doc.keys()),
                        ("changed", {k for k in doc.keys() & old.keys()
                                     if doc[k] != old[k]})):
        for key in sorted(keys):
            sys.stdout.write("%s: %s\n" % (label, key))
    with open(GOLDEN, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sys.stdout.write("recorded %d hashes in %s\n" % (len(doc), GOLDEN))
