"""Workloads, seeded inputs and output checks for the tatelab benchmark.

A job is one CLI command on one instance: ``(instance, args)``.  Every
job runs with ``--format json``; its output is reduced to the
mathematical fields (counts, ranks, verdicts, series, audit results,
variables per stage) and compared with ``expected.json``, which
``derive_expected.py`` builds from closed forms and the independent
oracles of the test suite, never from tatelab itself.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

SINGLE = ["ci_q", "cidiag_f2", "hyp_f2", "hyp_q", "hyp_weighted_q",
          "m2zero_f2", "m2zero_f5", "m2zero_q", "xsq_xy_q"]
TOWERS = ["tower_ci_q", "tower_jz_f2", "tower_jz_q"]

SINGLE_COMMANDS = [
    ("deviations",),
    ("deviations", "--route", "minimal-model"),
    ("ci-check",),
    ("aq-ranks",),
    ("betti",),
    ("poincare",),
    ("koszul-h1",),
    ("model-print",),
    ("audit", "rigidity"),
    ("audit", "growth"),
]
TOWER_COMMANDS = [("audit", "jacobi-zariski"), ("audit", "ci-vanishing")]

WORKLOADS = {
    # Fraction elimination in linalg dominates the minimal model over Q.
    "model_q": [
        ("m2zero_q", ("deviations", "--route", "minimal-model", "--N", "8")),
        ("xsq_xy_q", ("aq-ranks",)),
    ],
    # Deep divided-power closures over prime fields: piece enumeration
    # dominates and elimination is cheap int arithmetic.
    "closure_fp": [
        ("m2zero_f2", ("deviations", "--N", "10")),
        ("m2zero_f5", ("betti", "--N", "10")),
    ],
    # Every subcommand on every instance at default bounds, one fresh
    # process each: start-up, parsing and rebuilt towers dominate.
    "catalog_cli": ([(inst, cmd) for inst in SINGLE for cmd in SINGLE_COMMANDS]
                    + [(inst, cmd) for inst in TOWERS for cmd in TOWER_COMMANDS]),
}


def job_key(job):
    inst, args = job
    return " ".join((inst,) + tuple(args))


def load_json(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


# -- seeded inputs ---------------------------------------------------------

def permute_instance(doc, rng):
    """Reorder variables and relators; every count the jobs read is invariant.

    In a tower each layer keeps the relators of the layer below as its
    prefix, so the surjections it declares do not change.  The single
    instances all have an empty base, which stays a prefix of anything.
    """
    layers = doc["tower"] if "tower" in doc else [doc]
    nvars = len(layers[0]["variables"])
    var_order = rng.sample(range(nvars), nvars)
    out, rel_order = [], []
    for layer in layers:
        fresh = list(range(len(rel_order), len(layer["relators"])))
        rng.shuffle(fresh)
        rel_order = rel_order + fresh
        out.append(dict(layer,
                        variables=[layer["variables"][i] for i in var_order],
                        relators=[layer["relators"][i] for i in rel_order]))
    return dict(doc, tower=out) if "tower" in doc else out[0]


def write_inputs(workload, seed, directory):
    """Write each instance of the workload, permuted from the seed; return paths."""
    instances = load_json("instances.json")
    paths = {}
    for inst in sorted({inst for inst, _ in WORKLOADS[workload]}):
        rng = random.Random("%d:%s" % (seed, inst))
        path = os.path.join(directory, inst + ".json")
        with open(path, "w") as fh:
            json.dump(permute_instance(instances[inst], rng), fh, indent=1)
        paths[inst] = path
    return paths


def job_argv(job, paths):
    inst, args = job
    return list(args) + ["--input", paths[inst], "--format", "json"]


# -- output checks ---------------------------------------------------------

def summarize(args, doc):
    """The mathematical fields of one command's JSON output."""
    cmd = args[0]
    if cmd == "deviations":
        return {"route": doc["route"], "N": doc["N"], "D": doc["D"],
                "counts": {n: v["count"] for n, v in doc["deviations"].items()}}
    if cmd == "ci-check":
        return {"is_ci": doc["is_ci"], "evidence": doc["evidence"]}
    if cmd == "aq-ranks":
        return {"window": doc["window"], "aq_ranks": doc["aq_ranks"]}
    if cmd == "betti":
        return {"betti": doc["betti"]}
    if cmd == "poincare":
        return {"poincare": doc["poincare"], "certified_T": doc["certified_T"]}
    if cmd == "koszul-h1":
        return {"koszul_h1_mu": doc["koszul_h1_mu"]}
    if cmd == "model-print":
        top = int(args[args.index("--N") + 1]) if "--N" in args else 6
        return {"vars_per_stage": [sum(1 for v in doc if v["hdeg"] == n)
                                   for n in range(1, top + 1)]}
    if cmd == "audit":
        return {"passed": doc["passed"],
                "observed": [c["observed"] for c in doc["checks"]]}
    raise ValueError("no summary for command %r" % cmd)


def check(job, expected, returncode, stdout, stderr):
    """None when the job's result matches ``expected``, else a reason."""
    want = expected[job_key(job)]
    if returncode != want["exit"]:
        return "exit code %s, expected %s" % (returncode, want["exit"])
    if "error" in want:
        lines = stderr.decode(errors="replace").splitlines()
        if stdout or len(lines) != 1 or not lines[0].startswith(want["error"]):
            return "expected a one-line %r refusal" % want["error"]
        return None
    try:
        got = summarize(job[1], json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %s" % exc
    if got != want["summary"]:
        return "got %s, expected %s" % (json.dumps(got, sort_keys=True),
                                        json.dumps(want["summary"], sort_keys=True))
    return None
