"""Command-line front end.

    tatelab deviations  --input pres.json [--N 6] [--D 12] [--route ...]
    tatelab ci-check    --input pres.json
    tatelab aq-ranks    --input pres.json
    tatelab betti       --input pres.json
    tatelab poincare    --input pres.json [--T 10]
    tatelab koszul-h1   --input pres.json
    tatelab model-print --input pres.json
    tatelab audit {rigidity,growth,jacobi-zariski,ci-vanishing} --input inst.json

``parse_args`` reads the command line from the command table below.
Each command handler takes the parsed arguments and the parsed input and
returns ``(json_doc, table_lines, exit_code)``; ``table_lines`` is None
for a command that prints JSON in either format.  ``main`` alone loads
the input, picks the format, prints, and decides the refusals; it is the
in-process API.  ``run`` is the process entry that ``python -m tatelab``
and the ``tatelab`` console script call.

Exit codes: 0 success, 1 validation error (one-line diagnostic on
stderr), 2 audit failure (returned by the audit handler).  All output is
deterministic: JSON is emitted with sorted keys, and re-emitting a parsed
report is byte-identical.
"""

import gc
import json
import os
import sys
import types

from .audits import (build_layer_chain, ci_vanishing_audit, growth_probe,
                     jacobi_zariski_audit, rigidity_audit)
from .invariants import (ROUTES, aq_ranks, betti_numbers, ci_check,
                         deviations, poincare_from_deviations)
from .presentations import Presentation
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
    return Presentation.from_json(doc)


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
    instance = build_layer_chain(doc["tower"]) if tower else Presentation.from_json(doc)
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
HANDLERS = {name: handler for name, _, handler in COMMANDS}
HELP = {name: help_text for name, help_text, _ in COMMANDS}


def _flags(command):
    """Each flag of one command -> (default, rule, help), where the rule is
    int, a tuple of the accepted words, or None for the file name."""
    flags = {"input": (None, None, "instance JSON file (required)"),
             "N": (6, int, "homological bound"),
             "D": (12, int, "internal degree bound")}
    if command == "poincare":
        flags["T"] = (10, int, "series truncation order")
    flags["format"] = ("table", ("json", "table"), "output format")
    if command in ROUTE_DEFAULTS:
        route = ROUTE_DEFAULTS[command]
        flags["route"] = (route, ROUTES, "resolution route" if route else
                          "resolution route (default minimal-model over a declared base)")
    return flags


def parse_args(argv):
    """The words after ``tatelab`` -> the command's arguments.

    A flag is written ``--name value`` or ``--name=value``, in full, and
    the last of a repeated flag wins; its value is the next word even when
    that starts with ``-``.  The audit kind may stand anywhere after the
    command.  Any usage problem is a ValueError with a one-line message.
    """
    if not argv or argv[0] not in HANDLERS:
        raise ValueError("%s; choose one of %s" % (
            "unknown command %r" % argv[0] if argv else "missing command",
            ", ".join(HANDLERS)))
    command, words = argv[0], iter(argv[1:])
    flags = _flags(command)
    args = {name: default for name, (default, _, _) in flags.items()}
    args.update(command=command, kind=None)
    for word in words:
        if not word.startswith("--"):
            if command != "audit" or args["kind"] is not None:
                raise ValueError("unexpected argument %r" % word)
            if word not in AUDITS:
                raise ValueError("unknown audit kind %r; choose one of %s"
                                 % (word, ", ".join(AUDITS)))
            args["kind"] = word
            continue
        name, eq, value = word[2:].partition("=")
        if name not in flags:
            raise ValueError("%s takes no option --%s" % (command, name))
        if not eq:
            value = next(words, None)
            if value is None:
                raise ValueError("option --%s needs a value" % name)
        rule = flags[name][1]
        if rule is int:
            digits = value[1:] if value[:1] in ("+", "-") else value
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError("option --%s takes an integer, not %r" % (name, value))
            value = int(value)
        elif rule is not None and value not in rule:
            raise ValueError("option --%s takes one of %s, not %r"
                             % (name, ", ".join(rule), value))
        args[name] = value
    if command == "audit" and args["kind"] is None:
        raise ValueError("audit needs a kind: one of %s" % ", ".join(AUDITS))
    if args["input"] is None:
        raise ValueError("%s needs --input FILE" % command)
    return types.SimpleNamespace(**args)


def _help(command):
    """The help page of one command, or of tatelab for None."""
    if command is None:
        rows = list(HELP.items())
        head = ["usage: tatelab COMMAND --input FILE [options]", "",
                "exact homological calculator for graded local rings", "",
                "commands:"]
        tail = ["", "tatelab COMMAND --help lists the options of one command."]
    else:
        kind = "{%s} " % ",".join(AUDITS) if command == "audit" else ""
        rows = []
        for name, (default, rule, text) in _flags(command).items():
            value = ("FILE" if rule is None else "INT" if rule is int
                     else "{%s}" % ",".join(rule))
            if default is not None:
                text = "%s (default %s)" % (text, default)
            rows.append(("--%s %s" % (name, value), text))
        rows.append(("-h, --help", "show this help and exit"))
        head = ["usage: tatelab %s %s--input FILE [options]" % (command, kind), "",
                HELP[command], "", "options:"]
        tail = []
    width = max(len(left) for left, _ in rows)
    lines = head + ["  %-*s  %s" % (width, left, right) for left, right in rows] + tail
    return "".join(line + "\n" for line in lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(argv[0] if argv[0] in HANDLERS else None))
        return 0
    try:
        args = parse_args(argv)
        if args.N < 2 or args.D < 2:
            raise ValueError("bounds must satisfy N >= 2 and D >= 2")
        if getattr(args, "T", 0) < 0:
            raise ValueError("series truncation T must be >= 0")
        doc, lines, code = HANDLERS[args.command](args, _read_input(args))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if lines is None or args.format == "json":
        lines = [json.dumps(doc, indent=2, sort_keys=True)]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


def run():
    """Run ``main`` on the command line and end the process with its code.

    The modules imported so far live until the process ends, so they are
    frozen out of the cyclic collector, which would otherwise walk them in
    every full collection, and the collector is then switched off.  The
    reference cycles a command makes are its towers (an element refers to
    its tower, the tower to its variables, a variable to its differential),
    which live until the process ends, and the odd tower a command drops,
    which only the collector could free before it.
    ``main`` neither freezes nor disables: a process that calls it many
    times would keep, at each call, the towers that earlier calls left for
    the collector.  Once stdout and stderr are flushed the process ends
    with ``os._exit``: the interpreter's teardown would only free every
    tower object one by one and collect them once more.  Output that
    cannot be written is refused on one line, exit code 1; nothing flushes
    the unwritten bytes again.
    """
    gc.freeze()
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        print("error: cannot write output: %s" % (exc.strerror or exc), file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
