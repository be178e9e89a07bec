"""Graded presentations: weighted polynomial rings and homogeneous quotients.

A presentation is a coefficient field, an ordered list of weighted
variables, and homogeneous relators of internal degree >= 2 (so the
kernel sits inside the square of the maximal ideal).  An optional base
presentation over the same variables, whose relators form a prefix of
ours, encodes a surjection base ->> quotient; without one the base is
the polynomial ring on the variables (free_base()).

Everything is finite linear algebra per internal degree, held in one
record per degree: (replacement, basis, index).  The standard monomials
of degree d are the complement of the relator-multiple span, selected by
reduced row echelon pivoting under the fixed monomial order (graded
lexicographic for the declared variable order; within one degree that is
descending lex on exponent tuples), and the replacement maps each pivot
monomial to its normal form.  The polynomial ring eliminates nothing: its
basis lists every monomial, and ``monomials`` is that basis.  Every block
of products s*m, s over the standard monomials of one degree, is a shift
table (``shift``): the ideal spans behind the per-degree records, the
kernel generators and the witness check sum its rows, and so does every
tower over the ring.  Records and shift tables are cached idempotently,
so instances are safe for concurrent read-only use.
"""

import re
from operator import add

from . import linalg
from .fields import field_from_spec


class PresentationError(ValueError):
    pass


def _is_name(s):
    """A variable name: an ASCII letter or _, then ASCII letters, digits or _."""
    return s.isascii() and s.isidentifier()


# an optional sign, then factors joined by *, + or -; a factor is an ASCII
# integer or a variable with an optional exponent >= 1, and whitespace
# stands only next to an operator or at either end
_POLYNOMIAL = re.compile(r"\s*(?:[+-]\s*)?{0}(?:\s*[*+-]\s*{0})*\s*".format(
    r"(?:[0-9]+|[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*0*[1-9][0-9]*)?)"))


def parse_polynomial(text, names):
    """Parse '3*x^2*y - y^3' into {exponent tuple: int coefficient}.

    A term is integer and variable-power factors joined by *, and the
    terms are joined by + or -; ``_POLYNOMIAL`` is the whole grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise PresentationError("empty polynomial")
    if not _POLYNOMIAL.fullmatch(text):
        raise PresentationError("cannot parse %r: expected integers and variable "
                                "powers joined by *, + and -" % (text,))
    index = {nm: i for i, nm in enumerate(names)}
    poly = {}
    # dropping the whitespace joins no tokens, and each '-' becomes the
    # factor -1 of the term it starts
    for term in "".join(text.split()).replace("-", "+-1*").lstrip("+").split("+"):
        coeff, expo = 1, [0] * len(names)
        for factor in term.split("*"):
            name, _, e = factor.partition("^")
            if not _is_name(name):
                coeff *= int(name)
            elif name in index:
                expo[index[name]] += int(e or 1)
            else:
                raise PresentationError("cannot parse %r: unknown variable %r"
                                        % (text, name))
        mono = tuple(expo)
        c = poly.get(mono, 0) + coeff
        if c:
            poly[mono] = c
        else:
            poly.pop(mono, None)
    return poly


def _monomials(weights, d):
    # descending lex within fixed weighted degree d
    if not weights:
        return [()] if d == 0 else []
    w0, rest = weights[0], weights[1:]
    if not rest:  # the last exponent is what the others leave, if w0 divides it
        return [] if d % w0 else [(d // w0,)]
    out = []
    for e in range(d // w0, -1, -1):
        for tail in _monomials(rest, d - e * w0):
            out.append((e,) + tail)
    return out


def join_terms(pairs):
    """'c1*w1 + c2*w2 - ...' from (coefficient string, word string) pairs in
    order; a coefficient 1 or word 1 is left out, and no pairs give '0'."""
    out = []
    for cs, ws in pairs:
        if ws == "1":
            term = cs
        elif cs == "1":
            term = ws
        elif cs == "-1":
            term = "-" + ws
        else:
            term = "%s*%s" % (cs, ws)
        if not out:
            out.append(term)
        elif term.startswith("-"):
            out.append("- " + term[1:])
        else:
            out.append("+ " + term)
    return " ".join(out) if out else "0"


class Presentation:
    """Weighted graded quotient ring, presented by homogeneous relators."""

    def __init__(self, field, variables, relators, base=None):
        for nm, w in variables:
            if not isinstance(nm, str) or not _is_name(nm):
                raise PresentationError("bad variable name %r" % (nm,))
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise PresentationError("variable %s needs integer degree >= 1" % nm)
        names = [v[0] for v in variables]
        if len(set(names)) != len(names):
            raise PresentationError("duplicate variable names")
        self.field = field
        self.variables = tuple((nm, w) for nm, w in variables)
        self.names = tuple(names)
        self.weights = tuple(w for _, w in variables)
        if not isinstance(relators, (list, tuple)):
            raise PresentationError("'relators' must be a list")
        rels = []
        for f in relators:
            if not isinstance(f, dict):
                f = parse_polynomial(f, self.names)
            f = {m: c for m, c in f.items() if not field.is_zero(field.from_int(c))}
            if not f:
                raise PresentationError("zero relator")
            degs = {self.degree_of(m) for m in f}
            if len(degs) != 1:
                raise PresentationError("relator is not homogeneous")
            d = degs.pop()
            if d < 2:
                raise PresentationError(
                    "relator of internal degree %d: kernel must lie inside "
                    "the square of the maximal ideal" % d)
            if any(sum(m) < 2 for m in f):
                raise PresentationError(
                    "relator with a linear term: kernel must lie inside "
                    "the square of the maximal ideal")
            rels.append(f)
        self.relators = tuple(rels)
        if base is not None:
            if base.field != field:
                raise PresentationError("base has a different coefficient field")
            if base.variables != self.variables:
                raise PresentationError("base has different variables")
            if tuple(base.relators) != self.relators[:len(base.relators)]:
                raise PresentationError("base relators are not a prefix of relators")
        self.base = base
        self._cache = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_json(cls, doc, base=None):
        """JSON object -> Presentation.  base is the layer below, for a
        tower layer, and a declared base_relators must agree with it;
        without it the base is read from base_relators."""
        if not isinstance(doc, dict):
            raise PresentationError("presentation must be a JSON object")
        for key in ("field", "variables", "relators"):
            if key not in doc:
                raise PresentationError("presentation is missing %r" % key)
        for key in ("relators", "base_relators"):
            if doc.get(key) is not None and not isinstance(doc[key], list):
                raise PresentationError("%r must be a list" % key)
            if not all(isinstance(f, str) for f in doc.get(key) or ()):
                raise PresentationError("%r must list polynomial strings" % key)
        field = field_from_spec(doc["field"])
        entries = doc["variables"]
        if not isinstance(entries, list):
            raise PresentationError("'variables' must be a list")
        if not all(isinstance(v, dict) and "name" in v and "degree" in v
                   for v in entries):
            raise PresentationError("variable entries need 'name' and 'degree'")
        variables = [(v["name"], v["degree"]) for v in entries]
        if doc.get("base_relators") is not None:
            declared = cls(field, variables, doc["base_relators"])
            if base is None:
                base = declared
            elif declared.relators != base.relators:
                raise PresentationError("base_relators contradict the layer below")
        return cls(field, variables, doc["relators"], base=base)

    def to_json(self):
        doc = {
            "field": self.field.spec(),
            "variables": [{"name": nm, "degree": w} for nm, w in self.variables],
            "relators": [self.poly_str(f) for f in self.relators],
        }
        if self.base is not None:
            doc["base_relators"] = [self.poly_str(f) for f in self.base.relators]
        return doc

    def polynomial_ring(self):
        """The polynomial ring on the same variables: self if relator-free,
        else that of the declared base, so a relator-free base serves as
        the one polynomial ring of every layer above it."""
        if not self.relators:
            return self
        if self.base is not None:
            return self.base.polynomial_ring()
        key = ("free",)
        if key not in self._cache:
            self._cache[key] = Presentation(self.field, self.variables, ())
        return self._cache[key]

    def free_base(self):
        """The declared base, or the polynomial ring on the same variables."""
        return self.base if self.base is not None else self.polynomial_ring()

    # -- monomial bookkeeping ------------------------------------------

    def degree_of(self, mono):
        return sum(e * w for e, w in zip(mono, self.weights))

    def monomials(self, d):
        """All monomials of weighted degree d in descending lex order: the
        standard monomials of the polynomial ring, one tuple per degree."""
        return self.polynomial_ring().quotient_basis(d)

    def mono_str(self, mono):
        parts = []
        for nm, e in zip(self.names, mono):
            if e == 1:
                parts.append(nm)
            elif e > 1:
                parts.append("%s^%d" % (nm, e))
        return "*".join(parts) if parts else "1"

    def poly_str(self, poly):
        """Deterministic string form of {mono: coeff} (field or int coeffs)."""
        order = sorted(poly, key=lambda m: (self.degree_of(m),) + tuple(-e for e in m))
        return join_terms((str(poly[m]), self.mono_str(m)) for m in order)

    # -- per-degree quotient structure ---------------------------------

    def _degree(self, d):
        """The cached record of degree d; ``_degree_data`` runs on a miss only."""
        key = ("deg", d)
        if key not in self._cache:
            self._cache[key] = self._degree_data(d)
        return self._cache[key]

    def _degree_data(self, d):
        """(replacement, basis, index) of degree d, built once per degree.

        basis is the tuple of standard monomials in descending lex order and
        index maps each to its position.  replacement maps a pivot monomial
        of the relator-multiple span to the equivalent combination of
        standard monomials.  Without relators every monomial is standard:
        the basis lists them and nothing is eliminated.
        """
        repl = {}
        if not self.relators:
            basis = tuple(_monomials(self.weights, d)) if d >= 0 else ()
        else:
            monos = self.monomials(d)
            ring = self.polynomial_ring()
            rows = ring.ideal_span([ring.from_int_poly(f) for f in self.relators], d)
            pivots, red = linalg.rref(rows, self.field)
            for p in pivots:
                row = red[p]
                repl[monos[p]] = {monos[j]: self.field.neg(c)
                                  for j, c in row.items() if j != p}
            basis = tuple(m for m in monos if m not in repl)
        return repl, basis, {m: i for i, m in enumerate(basis)}

    def quotient_basis(self, d):
        """Standard monomials of degree d, a tuple in descending lex order."""
        return self._degree(d)[1]

    def basis_index(self, d):
        return self._degree(d)[2]

    def hilbert(self, D):
        """Quotient dimensions in internal degrees 0..D."""
        return [len(self.quotient_basis(d)) for d in range(D + 1)]

    def top_degree(self, cap):
        """The least s <= cap with no standard monomial in degrees s + 1 ..
        s + max(w), or None when there is none.  Then the ring is zero in
        every degree above s: a monomial of higher degree has a divisor of
        degree in that window, found by removing one variable at a time.
        No relator has a linear term, so every variable is standard and
        s >= max(w): a variable above cap gives None before any degree is
        read, and the scan, which stops at the first nonzero degree above
        cap, reads at most degree 2*cap."""
        wmax = max(self.weights, default=1)
        if wmax > cap:
            return None
        top = 0
        for d in range(1, cap + wmax + 1):
            if self.quotient_basis(d):
                if d > cap:
                    return None
                top = d
            elif d - top == wmax:
                return top

    def reduce_monomial(self, mono):
        """Normal form of a (not necessarily standard) monomial: {std mono: scalar}.

        A pivot's form is the dict its degree's record holds, so callers
        only read it.  Without relators every monomial is standard, so no
        per-degree data is built, whatever the degree.
        """
        if self.relators:
            repl = self._degree(self.degree_of(mono))[0]
            if mono in repl:
                return repl[mono]
        return {mono: self.field.one}

    def shift(self, mono, b):
        """Shift table of a monomial on degree b: row i holds the reduced
        s * mono, for the i-th standard monomial s of degree b, as (index in
        the degree-(b + |mono|) basis, scalar) pairs.  It is the one block
        of ground products: ``ideal_span`` and the tower's differential
        (``columns``, the cycle check of ``adjoin``) sum its rows, and a
        tower over the ring shares its tables."""
        key = ("shift", mono, b)
        if key not in self._cache:
            index = self.basis_index(b + self.degree_of(mono))
            self._cache[key] = tuple(
                tuple((index[sm], r) for sm, r
                      in self.reduce_monomial(tuple(map(add, s, mono))).items())
                for s in self.quotient_basis(b))
        return self._cache[key]

    def normal_form(self, poly):
        """Reduce {mono: field scalar} to standard monomials (any degrees mixed)."""
        f = self.field
        return linalg.add_into({}, ((sm, f.mul(c, r)) for mono, c in poly.items()
                                    for sm, r in self.reduce_monomial(mono).items()), f)

    def from_int_poly(self, poly):
        """Integer-coefficient polynomial -> reduced quotient element."""
        return self.normal_form({m: self.field.from_int(c) for m, c in poly.items()})

    def ideal_span(self, gens, d):
        """Coordinates of the degree-d multiples s*g of reduced elements g.

        s runs over the standard monomials of degree b = d - deg(g);
        generators of degree > d contribute nothing.  The rows span the
        degree-d part of the ideal the gens generate.  Row s*g sums c times
        row s of the shift table of (m, b) over the terms c*m of g; zero
        rows are left out.
        """
        f = self.field
        rows = []
        for g in gens:
            b = d - self.degree_of(next(iter(g)))
            if b < 0:
                continue
            tables = [(c, self.shift(m, b)) for m, c in g.items()]
            for i in range(len(self.quotient_basis(b))):
                row = linalg.add_into({}, ((j, f.mul(c, r)) for c, table in tables
                                           for j, r in table[i]), f)
                if row:
                    rows.append(row)
        return rows

    def __repr__(self):
        return "Presentation(%r, vars=%s, relators=%d%s)" % (
            self.field, ",".join(self.names), len(self.relators),
            ", base" if self.base is not None else "")


def parse_presentation(doc):
    """JSON object -> validated Presentation (the CLI input format)."""
    return Presentation.from_json(doc)
