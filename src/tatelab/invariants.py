"""Numerical invariants read off the resolution towers.

Deviations come from two independent routes: counting variables per
stage of the divided-power acyclic closure of the ring, or counting
variables per stage of the minimal model of a surjection (where stage
n-1 carries deviation n).  Every count is certified only through the
internal-degree bound it was computed under, and reports say so.

The cotangent-complex rank dictionary (rank of the degree-n homology of
the cotangent complex, coefficients in the residue field) is the
deviation shifted by one, valid in characteristic zero for all n >= 2
and in characteristic p only for 2 <= n <= 2p-1.  Outside that window
the dictionary is not asserted at all: entries carry a status instead
of a number.
"""

from .resolution import build_acyclic_closure, build_minimal_model


class InsufficientCertification(ValueError):
    pass


class DeviationTable:
    """Counts eps_n for a range of n, with their certification bound;
    ``degrees[n]`` lists the internal degrees <= D of the eps_n variables."""

    def __init__(self, route, N, D, degrees):
        self.route = route
        self.N = N
        self.D = D
        self.degrees = {n: [d for d in ds if d <= D] for n, ds in degrees.items()}
        self.counts = {n: len(ds) for n, ds in self.degrees.items()}

    def __getitem__(self, n):
        return self.counts[n]

    def get(self, n):
        return self.counts.get(n)

    def to_json(self):
        return {
            "route": self.route,
            "N": self.N,
            "D": self.D,
            "deviations": {str(n): {"count": c, "certified_D": self.D}
                           for n, c in sorted(self.counts.items())},
        }

    def __repr__(self):
        body = ", ".join("eps_%d=%d" % (n, c) for n, c in sorted(self.counts.items()))
        return "DeviationTable(%s; route=%s, D=%d)" % (body, self.route, self.D)


ROUTES = ("acyclic-closure", "minimal-model")


def deviations(pres, N, D, route="acyclic-closure"):
    """Deviation table through n = N, certified through internal degree D.

    acyclic-closure: eps_n = number of stage-n closure variables, n >= 1.
    minimal-model:   eps_2 = number of stage-1 model variables and
                     eps_n = number of stage-(n-1) variables for n >= 3,
                     over pres.free_base().
    """
    if route not in ROUTES:
        raise ValueError("unknown route %r" % (route,))
    if route == "minimal-model":
        return model_deviations(build_minimal_model(pres, model_stage(N), D), N, D)
    if N < 1:
        raise ValueError("N must be >= 1")
    tower = build_acyclic_closure(pres, N, D)
    return DeviationTable(route, N, D, {n: [v.ideg for v in tower.variables_of_hdeg(n)]
                                        for n in range(1, N + 1)})


def model_stage(N):
    """Model stage that carries eps_N; the minimal-model route starts at eps_2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N < 2:
        raise ValueError("the minimal-model route starts at eps_2; N must be >= 2")
    return N - 1


def model_deviations(model, N, D):
    """eps_2..eps_N read off a minimal model built to stage >= N - 1."""
    return DeviationTable("minimal-model", N, D,
                          {n: [v.ideg for v in model.variables_of_hdeg(n - 1)]
                           for n in range(2, N + 1)})


class CiVerdict:
    """Three-way complete-intersection verdict with its evidence."""

    def __init__(self, is_ci, evidence, flags, D):
        self.is_ci = is_ci  # "yes" | "no" | "uncertified"
        self.evidence = evidence
        self.flags = list(flags)
        self.D = D

    def to_json(self):
        return {"is_ci": self.is_ci, "evidence": self.evidence,
                "flags": self.flags, "certified_D": self.D}

    def __repr__(self):
        return "CiVerdict(%s, %s)" % (self.is_ci, self.evidence)


def hilbert_product(ground, degrees, D):
    """hilb(ground) * prod(1 - t^e) over the given degrees, through t^D:
    the Hilbert series of ground modulo a regular sequence of those degrees."""
    out = ground.hilbert(D)
    for e in degrees:
        out = [c - (out[k - e] if k >= e else 0) for k, c in enumerate(out)]
    return out


def ci_check(pres, D):
    """Is the kernel of base ->> pres generated by a regular sequence?"""
    return ci_verdict(pres, build_minimal_model(pres, 2, D), D)


def ci_verdict(pres, model, D):
    """The c.i. verdict read off a minimal model of base ->> pres built to
    stage >= 2.

    Two oracles: the Koszul-homology count (the stage-2 variables, zero
    iff the stage-1 variables kill a regular sequence, certified through
    D) and the Hilbert-series product test
    hilb(quotient) == hilb(base) * prod(1 - t^{deg g_i}) through D over
    the stage-1 degrees.  They must agree for a certified verdict.
    """
    degrees = [v.ideg for v in model.variables_of_hdeg(1)]
    mu = len(model.variables_of_hdeg(2))
    match = pres.hilbert(D) == hilbert_product(model.ground, degrees, D)
    if mu > 0:
        verdict, flags = "no", []
    elif match:
        # no stage-1 variables: the base already is the quotient
        verdict, flags = "yes", [] if degrees else ["regular homomorphism"]
    else:
        verdict, flags = "uncertified", ["oracles disagree within certified bounds"]
    return CiVerdict(verdict,
                     {"epsilon3": mu, "koszul_h1_mu": mu, "hilbert_match": match,
                      "kernel_generators": len(degrees)},
                     flags, D)


class AqRankTable:
    """Ranks of cotangent homology with residue-field coefficients."""

    def __init__(self, entries, D, window):
        self.entries = dict(entries)  # n -> {"rank": int, "status": ...}
        self.D = D
        self.window = window

    def to_json(self):
        return {"aq_ranks": {str(n): dict(v) for n, v in sorted(self.entries.items())},
                "certified_D": self.D, "window": self.window}

    def __getitem__(self, n):
        return self.entries[n]

    def __repr__(self):
        return "AqRankTable(%s)" % (self.entries,)


def characteristic_window(field):
    """Largest n for which the rank dictionary applies (None = unbounded)."""
    if field.kind == "Q":
        return None
    return 2 * field.p - 1


def aq_ranks(pres, n_max, D):
    """Rank table for cotangent homology degrees 2..n_max.

    Inside the characteristic window the rank equals the deviation
    shifted by one; outside it no number is asserted.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    limit = characteristic_window(pres.field)
    need = [n for n in range(2, n_max + 1) if limit is None or n <= limit]
    entries = {}
    if need:
        dev = deviations(pres, max(need) + 1, D, "minimal-model")
    for n in range(2, n_max + 1):
        if limit is not None and n > limit:
            entries[n] = {"status": "outside-window"}
        else:
            entries[n] = {"rank": dev[n + 1], "status": "certified"}
    window = "all n >= 2" if limit is None else "2 <= n <= %d" % limit
    return AqRankTable(entries, D, window)


class BettiTable:
    def __init__(self, counts, N, D):
        self.counts = list(counts)  # b_0..b_N
        self.N = N
        self.D = D

    def to_json(self):
        return {"betti": self.counts, "N": self.N, "certified_D": self.D}

    def __getitem__(self, n):
        return self.counts[n]

    def __repr__(self):
        return "BettiTable(%s)" % (self.counts,)


def betti_numbers(pres, N, D):
    """Betti numbers of the residue field from the acyclic closure: b_n is
    the number of divided-power words of homological degree n and internal
    degree <= D in the closure variables (with base monomial 1), read off
    the deviation product.  Exact: the closure finds every variable of
    internal degree <= D."""
    return BettiTable(poincare_from_deviations(deviations(pres, N, D), N), N, D)


def poincare_from_deviations(table, T):
    """Coefficients through t^T of the deviation product

        prod_{n odd} (1 + t^n u^d)^{eps_{n,d}} / prod_{n even} (1 - t^n u^d)^{eps_{n,d}},

    each summed over u^0..u^D, D the table's bound: words of internal degree
    <= D only.  Requires a certified eps_n for every 1 <= n <= T."""
    if T < 0:
        raise ValueError("T must be >= 0")
    missing = [n for n in range(1, T + 1) if table.get(n) is None]
    if missing:
        raise InsufficientCertification(
            "series through t^%d needs eps_%d, which is not certified "
            "(table covers n <= %d)" % (T, missing[0], table.N))
    D = table.D
    out = [[1] + [0] * D] + [[0] * (D + 1) for _ in range(T)]
    for n in range(1, T + 1):
        # times (1 + t^n u^d) from the top down; over (1 - t^n u^d) from the bottom up
        ks = range(T, n - 1, -1) if n % 2 else range(n, T + 1)
        for d in table.degrees[n]:
            for k in ks:
                row, below = out[k], out[k - n]
                for j in range(d, D + 1):
                    row[j] += below[j - d]
    return [sum(row) for row in out]
