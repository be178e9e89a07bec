"""Command-line front end.

    tatelab deviations  --input pres.json [--N 6] [--D 12] [--route ...]
    tatelab ci-check    --input pres.json
    tatelab aq-ranks    --input pres.json
    tatelab betti       --input pres.json
    tatelab poincare    --input pres.json [--T 10]
    tatelab koszul-h1   --input pres.json
    tatelab model-print --input pres.json
    tatelab audit {rigidity,growth,jacobi-zariski,ci-vanishing} --input inst.json

Exit codes: 0 success, 1 validation error (one-line diagnostic on
stderr), 2 audit failure.  All output is deterministic: JSON is emitted
with sorted keys, and re-emitting a parsed report is byte-identical.
"""

import argparse
import json
import sys

from .audits import (AuditError, build_layer_chain, ci_vanishing_audit,
                     growth_probe, jacobi_zariski_audit, rigidity_audit)
from .invariants import (aq_ranks, betti_numbers, ci_check, deviations,
                         poincare_from_deviations)
from .presentations import parse_presentation
from .resolution import build_acyclic_closure, build_minimal_model


def _emit_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise ValueError("malformed JSON in %s: %s" % (path, exc))


def _certline(count, D):
    return "%d (certified to internal degree %d)" % (count, D)


def _cmd_deviations(args):
    pres = parse_presentation(_load(args.input))
    table = deviations(pres, args.N, args.D, args.route)
    if args.format == "json":
        _emit_json(table.to_json())
    else:
        print("deviations (route=%s, N=%d, D=%d)" % (table.route, table.N, table.D))
        for n in sorted(table.counts):
            print("  ε_%d = %s" % (n, _certline(table.counts[n], table.D)))
    return 0


def _cmd_ci_check(args):
    pres = parse_presentation(_load(args.input))
    verdict = ci_check(pres, args.D)
    if args.format == "json":
        _emit_json(verdict.to_json())
    else:
        print("is_ci: %s (certified to internal degree %d)" % (verdict.is_ci, verdict.D))
        for key in sorted(verdict.evidence):
            print("  %s: %s" % (key, verdict.evidence[key]))
        for flag in verdict.flags:
            print("  flag: %s" % flag)
    return 0


def _cmd_aq_ranks(args):
    pres = parse_presentation(_load(args.input))
    table = aq_ranks(pres, args.N, args.D)
    if args.format == "json":
        _emit_json(table.to_json())
    else:
        print("cotangent ranks (window: %s)" % table.window)
        for n in sorted(table.entries):
            entry = table.entries[n]
            if entry["status"] == "certified":
                print("  rank D_%d = %s" % (n, _certline(entry["rank"], table.D)))
            else:
                print("  rank D_%d: outside-window" % n)
    return 0


def _cmd_betti(args):
    pres = parse_presentation(_load(args.input))
    table = betti_numbers(pres, args.N, args.D)
    if args.format == "json":
        _emit_json(table.to_json())
    else:
        for n, b in enumerate(table.counts):
            print("  b_%d = %s" % (n, _certline(b, table.D)))
    return 0


def _cmd_poincare(args):
    pres = parse_presentation(_load(args.input))
    # the series is emitted through the certifiable window min(T, N)
    T = min(args.T, args.N)
    table = deviations(pres, args.N, args.D, "acyclic-closure")
    coeffs = poincare_from_deviations(table, T)
    doc = {"poincare": coeffs, "T": args.T, "certified_T": T, "D": args.D}
    if args.format == "json":
        _emit_json(doc)
    else:
        print("poincare coefficients through t^%d (certified to internal degree %d):"
              % (T, args.D))
        print("  " + ", ".join(str(c) for c in coeffs))
    return 0


def _cmd_koszul_h1(args):
    pres = parse_presentation(_load(args.input))
    # stage 1 of the minimal model is the Koszul complex on minimal
    # generators of the kernel, so mu(H_1) is the stage-2 count, eps_3
    mu = deviations(pres, 3, args.D, "minimal-model")[3]
    if args.format == "json":
        _emit_json({"koszul_h1_mu": mu, "certified_D": args.D})
    else:
        print("mu(H_1 of Koszul complex) = %s" % _certline(mu, args.D))
    return 0


def _cmd_model_print(args):
    pres = parse_presentation(_load(args.input))
    route = args.route
    if route is None:
        route = "minimal-model" if pres.base is not None else "acyclic-closure"
    if route == "minimal-model":
        tower = build_minimal_model(pres, args.N, args.D)
    else:
        tower = build_acyclic_closure(pres, args.N, args.D)
    _emit_json(tower.dump())
    return 0


def _doc_bound(doc, key, default, least):
    """A bound from the audit document, checked like the CLI flags."""
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError("audit document bound %r must be an integer >= %d"
                         % (key, least))
    return value


def _cmd_audit(args):
    doc = _load(args.input)
    if not isinstance(doc, dict):
        raise ValueError("audit document must be a JSON object")
    N = _doc_bound(doc, "N", args.N, 2)
    D = _doc_bound(doc, "D", args.D, 2)
    if "tower" in doc:
        layers = build_layer_chain(doc["tower"])
    else:
        layers = None
        pres = parse_presentation(doc)
    if args.kind == "rigidity":
        if layers is not None:
            raise ValueError("rigidity audit takes a single presentation instance")
        report = rigidity_audit(pres, N, D)
    elif args.kind == "growth":
        if layers is not None:
            raise ValueError("growth probe takes a single presentation instance")
        report = growth_probe(pres, N, D)
    elif args.kind == "jacobi-zariski":
        if layers is None:
            raise ValueError("jacobi-zariski audit needs a 'tower' of three layers")
        i_max = _doc_bound(doc, "i_max", max(1, (N - 1) // 2), 1)
        report = jacobi_zariski_audit(layers, doc.get("witness", []), i_max, D)
    else:  # ci-vanishing
        if layers is None:
            raise ValueError("ci-vanishing audit needs a 'tower' of three layers")
        report = ci_vanishing_audit(layers, N, D)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print("audit: %s" % report.theorem)
        print("instance: %s" % report.instance)
        for c in report.checks:
            print("  [%s] %s -- observed %s"
                  % ("ok" if c["ok"] else "FAIL", c["assertion"], c["observed"]))
        for note in report.notes:
            print("  note: %s" % note)
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def _add_common(sub, with_T=False):
    sub.add_argument("--input", required=True, help="instance JSON file")
    sub.add_argument("--N", type=int, default=6, help="homological bound (default 6)")
    sub.add_argument("--D", type=int, default=12, help="internal degree bound (default 12)")
    if with_T:
        sub.add_argument("--T", type=int, default=10,
                         help="series truncation order (default 10)")
    sub.add_argument("--format", choices=("json", "table"), default="table")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tatelab",
        description="exact homological calculator for graded local rings")
    subs = ap.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("deviations", help="deviation table")
    _add_common(sub)
    sub.add_argument("--route", choices=("acyclic-closure", "minimal-model"),
                     default="acyclic-closure")
    sub.set_defaults(func=_cmd_deviations)

    sub = subs.add_parser("ci-check", help="complete-intersection verdict")
    _add_common(sub)
    sub.set_defaults(func=_cmd_ci_check)

    sub = subs.add_parser("aq-ranks", help="cotangent homology rank table")
    _add_common(sub)
    sub.set_defaults(func=_cmd_aq_ranks)

    sub = subs.add_parser("betti", help="Betti numbers of the residue field")
    _add_common(sub)
    sub.set_defaults(func=_cmd_betti)

    sub = subs.add_parser("poincare", help="Poincare series from deviations")
    _add_common(sub, with_T=True)
    sub.set_defaults(func=_cmd_poincare)

    sub = subs.add_parser("koszul-h1", help="minimal generator count of Koszul H_1")
    _add_common(sub)
    sub.set_defaults(func=_cmd_koszul_h1)

    sub = subs.add_parser("model-print", help="dump the resolution tower variables")
    _add_common(sub)
    sub.add_argument("--route", choices=("acyclic-closure", "minimal-model"),
                     default=None)
    sub.set_defaults(func=_cmd_model_print)

    sub = subs.add_parser("audit", help="run a theorem audit")
    sub.add_argument("kind", choices=("rigidity", "growth", "jacobi-zariski",
                                      "ci-vanishing"))
    _add_common(sub)
    sub.set_defaults(func=_cmd_audit)
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
    if args.N < 2 or args.D < 2:
        print("error: bounds must satisfy N >= 2 and D >= 2", file=sys.stderr)
        return 1
    if getattr(args, "T", 0) < 0:
        print("error: series truncation T must be >= 0", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except AuditError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
