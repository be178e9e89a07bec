"""Theorem audits: structured pass/fail reports on concrete instances.

Each audit states exactly what it checked, on which instance, through
which bounds.  Failures are reported, never silently repaired.  The
growth probe is non-certifying: it reports a diagnostic and never fails.
"""

from . import linalg
from .invariants import (aq_ranks, characteristic_window, ci_check, ci_verdict,
                         deviations, hilbert_product, model_deviations,
                         model_stage)
from .presentations import Presentation, PresentationError, parse_polynomial
from .resolution import build_minimal_model, kernel_coordinates


class AuditError(ValueError):
    pass


class AuditReport:
    def __init__(self, theorem, instance, bounds, checks, notes=None):
        self.theorem = theorem
        self.instance = instance
        self.bounds = dict(bounds)
        self.checks = list(checks)
        self.notes = list(notes or [])

    @property
    def passed(self):
        return all(c["ok"] for c in self.checks)

    def to_json(self):
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "bounds": self.bounds,
            "checks": [dict(c) for c in self.checks],
            "notes": self.notes,
            "passed": self.passed,
        }

    def __repr__(self):
        return "AuditReport(%s, passed=%s)" % (self.theorem, self.passed)


def _check(assertion, observed, ok):
    return {"assertion": assertion, "observed": observed, "ok": bool(ok)}


def _instance_label(pres):
    rels = ", ".join(pres.poly_str(f) for f in pres.relators)
    base = pres.free_base().relators
    over = (" over quotient base (%s)" % ", ".join(pres.poly_str(f) for f in base)
            if base else " over polynomial base")
    return "%s[%s]/(%s)%s" % (pres.field, ",".join(pres.names), rels, over)


def rigidity_audit(pres, N, D):
    """One vanishing deviation in degree >= 4 forces complete intersection
    (finite flat dimension is automatic over a polynomial base).  Audited
    as the contrapositive: a non-c.i. instance must have eps_n > 0 for
    every 4 <= n <= N, and a c.i. instance eps_n = 0 for 3 <= n <= N."""
    model = build_minimal_model(pres, max(model_stage(N), 2), D)
    verdict = ci_verdict(pres, model, D)
    dev = model_deviations(model, N, D)
    checks = [_check("ci verdict is decisive", verdict.is_ci,
                     verdict.is_ci in ("yes", "no"))]
    if verdict.is_ci == "no":
        for n in range(4, N + 1):
            checks.append(_check(
                "eps_%d > 0 (non-c.i. forbids vanishing)" % n,
                dev[n], dev[n] > 0))
    elif verdict.is_ci == "yes":
        for n in range(3, N + 1):
            checks.append(_check(
                "eps_%d = 0 (c.i. deviations vanish from 3 on)" % n,
                dev[n], dev[n] == 0))
    return AuditReport("rigidity-of-deviations", _instance_label(pres),
                       {"N": N, "D": D}, checks)


def growth_probe(pres, N, D):
    """Non-certifying diagnostic: for non-c.i. instances the deviations are
    expected to grow exponentially; reports max eps_n^(1/n) over the
    window and flags when it exceeds 1.  Never fails.  The deviations are
    the ring's own, so whether it is a c.i. is asked over the polynomial
    ring, whatever base the instance declares."""
    notes = []
    ring = pres.polynomial_ring()
    over_q = (pres if pres.free_base() is ring
              else Presentation(pres.field, pres.variables, pres.relators, base=ring))
    if N < 4:
        notes.append("window too small (N < 4): nothing to probe")
    elif ci_check(over_q, D).is_ci == "yes":
        notes.append("not applicable (complete intersection)")
    else:
        dev = deviations(over_q, N, D, "acyclic-closure")
        eps = {n: dev[n] for n in range(1, N + 1)}
        # eps_n^(1/n) > 1 exactly when eps_n >= 2; the float is display only
        flagged = any(c >= 2 for c in eps.values())
        max_root = max(c ** (1.0 / n) for n, c in eps.items())
        notes.append("eps(1..%d) = %s" % (N, [eps[n] for n in range(1, N + 1)]))
        notes.append("max eps_n^(1/n) = %.6f" % max_root)
        if flagged:
            notes.append("consistent with exponential growth (max root > 1); "
                         "this probe certifies nothing")
        else:
            notes.append("no growth detected in the window; this probe certifies nothing")
    return AuditReport("deviation-growth-probe", _instance_label(pres),
                       {"N": N, "D": D}, [], notes)


def _layer_chain(layers):
    """[Presentation] with each the base of the next; returns R, S and
    S over Q."""
    if len(layers) != 3:
        raise AuditError("expected a tower of exactly three presentation layers")
    q, r, s = layers
    if r.base is not q or s.base is not r:
        raise AuditError("tower layers must be chained base-to-quotient")
    return r, s, Presentation(s.field, s.variables, s.relators, base=q)


def build_layer_chain(docs):
    """Three presentation JSON layers (same field and variables, each
    relator list extending the previous) -> chained Presentations."""
    if not isinstance(docs, list) or len(docs) != 3:
        raise AuditError("'tower' must list exactly three presentation layers")
    pres = []
    for doc in docs:
        try:
            pres.append(Presentation.from_json(doc, base=pres[-1] if pres else None))
        except PresentationError as exc:
            raise AuditError("bad tower layer: %s" % exc)
    return tuple(pres)


def verify_regular_witness(r_pres, s_pres, witness_polys, D):
    """Check a declared regular sequence generating ker(R ->> S).

    (a) the witness elements generate the same ideal as the kernel
        through every internal degree <= D, and
    (b) hilb(S) == hilb(R) * prod(1 - t^{deg w_i}) through D, which is
        the Hilbert-series certificate of regularity.
    witness_polys is a list of polynomial strings in the variables of R.
    Raises AuditError when verification fails.
    """
    if (not isinstance(witness_polys, list)
            or not all(isinstance(text, str) for text in witness_polys)):
        raise AuditError("'witness' must be a list of polynomial strings")
    if not witness_polys:
        raise AuditError("witness verification failed: empty witness")
    wits = []
    for text in witness_polys:
        g = r_pres.from_int_poly(parse_polynomial(text, r_pres.names))
        if not g:
            raise AuditError("witness verification failed: %r is zero in the base"
                             % (text,))
        degs = {r_pres.degree_of(m) for m in g}
        if len(degs) != 1:
            raise AuditError("witness verification failed: %r is not homogeneous"
                             % (text,))
        wits.append(g)
    # the witness ideal lies in the kernel once every witness vanishes in S,
    # and then fills it in degree d when its span there misses no basis
    # vector of the kernel
    degrees = [r_pres.degree_of(next(iter(g))) for g in wits]
    outside = {e for e, g in zip(degrees, wits) if s_pres.normal_form(g)}
    for d in range(D + 1):
        if d in outside or linalg.complement(kernel_coordinates(r_pres, s_pres, d),
                                             r_pres.ideal_span(wits, d), r_pres.field):
            raise AuditError(
                "witness verification failed: witness ideal and kernel ideal "
                "differ in internal degree %d" % d)
    if hilbert_product(r_pres, degrees, D) != s_pres.hilbert(D):
        raise AuditError(
            "witness verification failed: Hilbert series of the quotient does "
            "not match the regular-sequence product through degree %d" % D)
    return wits


def jacobi_zariski_audit(layers, witness, i_max, D):
    """For a tower Q ->> R ->> S with a verified witness that the second
    map has finite flat dimension (a regular sequence generating its
    kernel), even cotangent ranks cannot grow when the base is shrunk:
    rank_{2i}(S over R) <= rank_{2i}(S over Q), inside the
    characteristic window 2i <= 2p-1 (all i in characteristic zero)."""
    r, s, s_over_q = _layer_chain(layers)
    if i_max < 1:
        raise AuditError("i_max must be >= 1")
    verify_regular_witness(r, s, witness, D)
    limit = characteristic_window(s.field)
    checks = []
    n_top = max(2 * i for i in range(1, i_max + 1) if limit is None or 2 * i <= limit)
    rk_sr = aq_ranks(s, n_top, D)
    rk_sq = aq_ranks(s_over_q, n_top, D)
    for i in range(1, i_max + 1):
        n = 2 * i
        if limit is not None and n > limit:
            checks.append(_check(
                "rank D_%d comparison (i=%d)" % (n, i),
                "outside-window (characteristic window caps n at %d)" % limit,
                True))
            continue
        a = rk_sr[n]["rank"]
        b = rk_sq[n]["rank"]
        checks.append(_check(
            "rank D_%d(S|R) <= rank D_%d(S|Q)" % (n, n),
            "%d <= %d" % (a, b), a <= b))
    return AuditReport(
        "jacobi-zariski-descent", _instance_label(s),
        {"i_max": i_max, "D": D},
        checks,
        ["witness regular sequence verified through internal degree %d" % D])


def ci_vanishing_audit(layers, N, D):
    """When both R and S are complete intersections over the polynomial
    layer Q, the cotangent homology of S over R vanishes in degrees >= 3:
    audited as eps_{n+1}(R ->> S) = 0, i.e. the minimal model of S over R
    has no stage-n variables, for 3 <= n <= N."""
    r, s, s_over_q = _layer_chain(layers)
    if N < 3:
        raise AuditError("N must be >= 3 to audit vanishing")
    ci_r = ci_check(r, D)
    ci_s = ci_check(s_over_q, D)
    if ci_r.is_ci != "yes" or ci_s.is_ci != "yes":
        raise AuditError(
            "precondition failed: both layers must be complete intersections "
            "over the polynomial base (got %s and %s)" % (ci_r.is_ci, ci_s.is_ci))
    model = build_minimal_model(s, N, D)
    checks = []
    for n in range(3, N + 1):
        count = len(model.variables_of_hdeg(n))
        checks.append(_check(
            "rank D_%d(S|R) = 0, i.e. no stage-%d model variables" % (n, n),
            count, count == 0))
    return AuditReport(
        "ci-vanishing-of-cotangent-homology", _instance_label(s),
        {"N": N, "D": D}, checks,
        ["preconditions: both layers certified c.i. through degree %d" % D])
