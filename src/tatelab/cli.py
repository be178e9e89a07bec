"""Command-line front end.

    tatelab deviations  --input pres.json [--N 6] [--D 12] [--route ...]
    tatelab ci-check    --input pres.json
    tatelab aq-ranks    --input pres.json
    tatelab betti       --input pres.json
    tatelab poincare    --input pres.json [--T 10]
    tatelab koszul-h1   --input pres.json
    tatelab model-print --input pres.json
    tatelab audit {rigidity,growth,jacobi-zariski,ci-vanishing} --input inst.json

Each command handler takes the parsed arguments and the parsed input and
returns ``(json_doc, table_lines, exit_code)``; ``table_lines`` is None
for a command that prints JSON in either format.  ``main`` alone loads
the input, picks the format, prints, and decides the refusals.

Exit codes: 0 success, 1 validation error (one-line diagnostic on
stderr), 2 audit failure (returned by the audit handler).  All output is
deterministic: JSON is emitted with sorted keys, and re-emitting a parsed
report is byte-identical.
"""

import argparse
import json
import sys

from .audits import (build_layer_chain, ci_vanishing_audit, growth_probe,
                     jacobi_zariski_audit, rigidity_audit)
from .invariants import (ROUTES, aq_ranks, betti_numbers, ci_check,
                         deviations, poincare_from_deviations)
from .presentations import parse_presentation
from .resolution import build_acyclic_closure, build_minimal_model


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise ValueError("malformed JSON in %s: %s" % (path, exc))


def _read_input(args):
    """--input as one Presentation, or as the raw document for an audit,
    whose object carries its own bounds and may hold a 'tower'."""
    doc = _load(args.input)
    if args.command == "audit":
        return doc
    if isinstance(doc, dict) and "tower" in doc:
        raise ValueError("a 'tower' document is read only by audit jacobi-zariski "
                         "and audit ci-vanishing")
    return parse_presentation(doc)


def _certline(count, D):
    return "%d (certified to internal degree %d)" % (count, D)


def _cmd_deviations(args, pres):
    table = deviations(pres, args.N, args.D, args.route)
    lines = ["deviations (route=%s, N=%d, D=%d)" % (table.route, table.N, table.D)]
    lines += ["  ε_%d = %s" % (n, _certline(table.counts[n], table.D))
              for n in sorted(table.counts)]
    return table.to_json(), lines, 0


def _cmd_ci_check(args, pres):
    verdict = ci_check(pres, args.D)
    lines = ["is_ci: %s (certified to internal degree %d)" % (verdict.is_ci, verdict.D)]
    lines += ["  %s: %s" % (key, verdict.evidence[key])
              for key in sorted(verdict.evidence)]
    lines += ["  flag: %s" % flag for flag in verdict.flags]
    return verdict.to_json(), lines, 0


def _cmd_aq_ranks(args, pres):
    table = aq_ranks(pres, args.N, args.D)
    lines = ["cotangent ranks (window: %s)" % table.window]
    for n in sorted(table.entries):
        entry = table.entries[n]
        if entry["status"] == "certified":
            lines.append("  rank D_%d = %s" % (n, _certline(entry["rank"], table.D)))
        else:
            lines.append("  rank D_%d: outside-window" % n)
    return table.to_json(), lines, 0


def _cmd_betti(args, pres):
    table = betti_numbers(pres, args.N, args.D)
    lines = ["  b_%d = %s" % (n, _certline(b, table.D))
             for n, b in enumerate(table.counts)]
    return table.to_json(), lines, 0


def _cmd_poincare(args, pres):
    # the series is emitted through the certifiable window min(T, N)
    T = min(args.T, args.N)
    table = deviations(pres, args.N, args.D, "acyclic-closure")
    coeffs = poincare_from_deviations(table, T)
    lines = ["poincare coefficients through t^%d (certified to internal degree %d):"
             % (T, args.D), "  " + ", ".join(str(c) for c in coeffs)]
    return {"poincare": coeffs, "T": args.T, "certified_T": T, "D": args.D}, lines, 0


def _cmd_koszul_h1(args, pres):
    # stage 1 of the minimal model is the Koszul complex on minimal
    # generators of the kernel, so mu(H_1) is the stage-2 count, eps_3
    mu = deviations(pres, 3, args.D, "minimal-model")[3]
    return ({"koszul_h1_mu": mu, "certified_D": args.D},
            ["mu(H_1 of Koszul complex) = %s" % _certline(mu, args.D)], 0)


def _cmd_model_print(args, pres):
    route = args.route
    if route is None:
        route = "minimal-model" if pres.base is not None else "acyclic-closure"
    build = build_minimal_model if route == "minimal-model" else build_acyclic_closure
    # a stage-1 variable can lie above D, where no count is certified
    dump = [v for v in build(pres, args.N, args.D).dump() if v["idim"] <= args.D]
    return dump, None, 0


def _doc_bound(doc, key, default, least):
    """A bound from the audit document, checked like the CLI flags."""
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError("audit document bound %r must be an integer >= %d"
                         % (key, least))
    return value


# each audit kind and its refusal of an instance of the other shape
AUDITS = {
    "rigidity": "rigidity audit takes a single presentation instance",
    "growth": "growth probe takes a single presentation instance",
    "jacobi-zariski": "jacobi-zariski audit needs a 'tower' of three layers",
    "ci-vanishing": "ci-vanishing audit needs a 'tower' of three layers",
}


def _cmd_audit(args, doc):
    if not isinstance(doc, dict):
        raise ValueError("audit document must be a JSON object")
    N = _doc_bound(doc, "N", args.N, 2)
    D = _doc_bound(doc, "D", args.D, 2)
    # a malformed document is reported before a kind mismatch
    tower = "tower" in doc
    instance = build_layer_chain(doc["tower"]) if tower else parse_presentation(doc)
    if tower != (args.kind in ("jacobi-zariski", "ci-vanishing")):
        raise ValueError(AUDITS[args.kind])
    if args.kind == "rigidity":
        report = rigidity_audit(instance, N, D)
    elif args.kind == "growth":
        report = growth_probe(instance, N, D)
    elif args.kind == "jacobi-zariski":
        i_max = _doc_bound(doc, "i_max", max(1, (N - 1) // 2), 1)
        report = jacobi_zariski_audit(instance, doc.get("witness", []), i_max, D)
    else:
        report = ci_vanishing_audit(instance, N, D)
    lines = ["audit: %s" % report.theorem, "instance: %s" % report.instance]
    lines += ["  [%s] %s -- observed %s"
              % ("ok" if c["ok"] else "FAIL", c["assertion"], c["observed"])
              for c in report.checks]
    lines += ["  note: %s" % note for note in report.notes]
    lines.append("PASS" if report.passed else "FAIL")
    return report.to_json(), lines, 0 if report.passed else 2


COMMANDS = (
    ("deviations", "deviation table", _cmd_deviations),
    ("ci-check", "complete-intersection verdict", _cmd_ci_check),
    ("aq-ranks", "cotangent homology rank table", _cmd_aq_ranks),
    ("betti", "Betti numbers of the residue field", _cmd_betti),
    ("poincare", "Poincare series from deviations", _cmd_poincare),
    ("koszul-h1", "minimal generator count of Koszul H_1", _cmd_koszul_h1),
    ("model-print", "dump the resolution tower variables", _cmd_model_print),
    ("audit", "run a theorem audit", _cmd_audit),
)

# the commands that take --route, with its default
ROUTE_DEFAULTS = {"deviations": "acyclic-closure", "model-print": None}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tatelab",
        description="exact homological calculator for graded local rings")
    subs = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        if name == "audit":
            sub.add_argument("kind", choices=tuple(AUDITS))
        sub.add_argument("--input", required=True, help="instance JSON file")
        sub.add_argument("--N", type=int, default=6, help="homological bound (default 6)")
        sub.add_argument("--D", type=int, default=12, help="internal degree bound (default 12)")
        if name == "poincare":
            sub.add_argument("--T", type=int, default=10,
                             help="series truncation order (default 10)")
        sub.add_argument("--format", choices=("json", "table"), default="table")
        if name in ROUTE_DEFAULTS:
            sub.add_argument("--route", choices=ROUTES, default=ROUTE_DEFAULTS[name])
        sub.set_defaults(func=handler)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for audit
        # failures, so usage problems are reported as plain validation
        # failures instead (--help keeps its success status).
        return 0 if not exc.code else 1
    try:
        if args.N < 2 or args.D < 2:
            raise ValueError("bounds must satisfy N >= 2 and D >= 2")
        if getattr(args, "T", 0) < 0:
            raise ValueError("series truncation T must be >= 0")
        doc, lines, code = args.func(args, _read_input(args))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if lines is None or args.format == "json":
        lines = [json.dumps(doc, indent=2, sort_keys=True)]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
