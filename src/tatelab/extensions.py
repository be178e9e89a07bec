"""Strictly graded-commutative extension towers over a graded ground ring.

A tower adjoins homologically graded variables to a ground presentation.
Odd-degree variables are exterior: they square to zero in every
characteristic, including 2.  Even-degree variables are ordinary
polynomial generators in a *plain* tower (the minimal-model flavor) and
divided-power generators in a *gamma* tower (the acyclic-closure
flavor), with basis {v^(e)} and

    v^(i) * v^(j) = binom(i+j, i) * v^(i+j)
    d(v^(e))      = d(v) * v^(e-1)            (gamma)
    d(v^e)        = e * d(v) * v^(e-1)        (plain)

Conventions fixed once and for all:

  * the differential follows the left Leibniz rule
        d(a*b) = d(a)*b + (-1)^{|a|} a*d(b);
    it is ground-linear, so a word's differential comes from a shorter
    word's: d(m*X) = m*d(X) for a ground monomial m, and
    d(a*v^e) = d(a)*v^e + (-1)^{|a|} a*d(v^e) for the last factor v^e;
  * a word is a canonical product  (base monomial) * v1^{e1} * v2^{e2} ...
    with the variables in adjunction order; reordering while multiplying
    picks up the usual Koszul sign, one -1 per odd-odd transposition.
    ``_merge`` multiplies extension parts (sign and power coefficient).
    The Leibniz step of a pure word, of monomial 1, multiplies it by the
    standard terms of d(v), which needs ``_merge`` alone, so no
    differential enters the ground ring;
  * a piece is laid out in blocks, one per admissible exponent pattern X
    in a fixed enumeration order: block X holds the words s*X, s over the
    standard ground monomials of the leftover internal degree b, so all
    matrices are reproducible.  The patterns of homological degree n are
    the lone degree-n variables, latest first, then the patterns of the
    variables below n, enumerated once up to the tower's internal bound
    with their internal degrees; each piece of degree n keeps, in that
    order, the patterns whose leftover degree has standard monomials;
  * the one ground-monomial shift is the ground ring's table per
    (monomial m, degree b), ``Presentation.shift``: for each standard s of
    degree b, the reduced s*m as (basis index, scalar) pairs.  The ring
    caches it, so every tower over one ring reads the same tables.  The
    one differential route reads d(s*X), s standard of degree b, off
    d(1*X), the only word differential cached: a term c*m*x of d(1*X)
    adds c times row s of the shift table of (m, b) at the words of
    pattern x (``_shifted``).  ``columns`` fills each block that way but
    a unit block (b = 0), whose one column is d(1*X) placed as it stands,
    and ``adjoin`` checks that a differential value is a cycle by summing
    the same rows over its terms;
  * ``kernel(n, d)`` keeps the free columns of the kernel it takes, and
    the kernel out of (n + 1, d), which takes it first when it is not
    kept, eliminates only its rows there, or none when those rows decide
    it: no rows make the differential zero, and as many rows as words,
    where H_n = 0 is recorded (``mark_acyclic``), make it injective.

Words are pairs (mono, ext) with mono a standard ground monomial and ext
a tuple of (variable index, exponent) pairs sorted by index.
"""

from bisect import bisect_left, bisect_right
from itertools import chain
from math import comb
from operator import attrgetter, itemgetter

from . import linalg
from .presentations import join_terms


class TowerError(ValueError):
    pass


EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
DIVIDED = "divided-power"


class ExtensionVariable:
    __slots__ = ("name", "hdeg", "ideg", "flavor", "dval", "index", "odd")

    def __init__(self, name, hdeg, ideg, flavor, dval, index):
        self.name = name
        self.hdeg = hdeg
        self.ideg = ideg
        self.flavor = flavor
        self.dval = dval
        self.index = index
        self.odd = hdeg % 2 == 1

    def __repr__(self):
        return "%s(%d,%d)" % (self.name, self.hdeg, self.ideg)


class Element:
    """Finite scalar combination of words of one tower: a container of
    terms {word: scalar} with a bidegree and a printed form, and no
    arithmetic.  Its differential is read through the tower's shift
    tables (``ExtensionTower.columns``)."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower, terms):
        self.tower = tower
        self.terms = terms

    @classmethod
    def zero(cls, tower):
        return cls(tower, {})

    def bidegree(self):
        """(homological, internal) bidegree; None for zero, error if mixed."""
        degs = {self.tower.word_bidegree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise TowerError("element is not bihomogeneous: %s" % sorted(degs))
        return degs.pop()

    def __eq__(self, other):
        return (isinstance(other, Element) and other.tower is self.tower
                and other.terms == self.terms)

    def __hash__(self):
        raise TypeError("Element is unhashable")

    def __str__(self):
        return self.tower.element_str(self)

    def __repr__(self):
        return "<Element %s>" % self


class ExtensionTower:
    """Ground presentation plus adjoined variables, with cached piece data.

    Towers are frozen once their builder returns them, unless a caller
    hands one to ``resolution.minimal_generators``, which adjoins the next
    stage; ``adjoin`` is the builders' constructor step and drops exactly
    the cached records a new variable reaches, each keyed (kind, n, d) by
    the highest bidegree of variable it can read.  Ground-monomial shift
    tables belong to the ground ring (``Presentation.shift``).
    """

    def __init__(self, ground, flavor, dmax, nmax=None):
        if flavor not in ("plain", "gamma"):
            raise TowerError("flavor must be 'plain' or 'gamma'")
        self.ground = ground
        self.field = ground.field
        self.flavor = flavor
        self.nmax = nmax
        self.dmax = dmax
        self.variables = []
        self._unit = (0,) * len(ground.names)
        # modulo monomial relators a product of monomials is standard or
        # zero, so the shifts of distinct monomials never merge
        self._merges = any(len(f) > 1 for f in ground.relators)
        self._cache = {}
        self._swept = None
        self._dwords = {}

    # -- construction ---------------------------------------------------

    def adjoin(self, name, hdeg, ideg, dval):
        if hdeg < 1 or ideg < 1:
            raise TowerError("adjoined variables need positive bidegree")
        if self.variables and hdeg < self.variables[-1].hdeg:
            raise TowerError("adjoin variables in weakly increasing homological degree")
        if hdeg % 2 == 1:
            flavor = EXTERIOR
        else:
            flavor = DIVIDED if self.flavor == "gamma" else POLYNOMIAL
        if dval is None:
            dval = Element.zero(self)
        if not isinstance(dval, Element):
            raise TowerError("differential value is a %s, not an Element"
                             % type(dval).__name__)
        if dval.tower is not self:
            raise TowerError("differential value belongs to a different tower")
        ground, field = self.ground, self.field
        for (mono, ext), c in dval.terms.items():
            if not field.contains(c) or field.is_zero(c):
                raise TowerError("differential value has scalar %r: not a nonzero "
                                 "element of %r" % (c, field))
            for idx, _ in ext:
                if idx >= len(self.variables):
                    raise TowerError("differential value uses later variables")
            # without relators every monomial is standard, whatever its degree,
            # and relators have no linear term, so a variable always is
            if (ground.relators and sum(mono) != 1
                    and mono not in ground.basis_index(ground.degree_of(mono))):
                raise TowerError("differential value is not reduced: %s is not a "
                                 "standard monomial" % ground.mono_str(mono))
        bid = dval.bidegree()
        if bid is not None and bid != (hdeg - 1, ideg):
            raise TowerError("differential value has bidegree %s, expected %s"
                             % (bid, (hdeg - 1, ideg)))
        # the cycle check reads shift tables of degree ideg, which only a
        # ground term (d = 0) leaves unread
        if ideg > self.dmax and any(ext for _, ext in dval.terms):
            raise TowerError("differential value of internal degree %d exceeds the "
                             "tower's internal bound %d" % (ideg, self.dmax))
        if not self._is_cycle(dval):
            raise TowerError("differential value of %s is not a cycle" % name)
        var = ExtensionVariable(name, hdeg, ideg, flavor, dval, len(self.variables))
        self.variables.append(var)
        # a variable of bidegree (h, i) adds words only to pieces (n, d)
        # with n >= h and d >= i; every other piece keeps its words, and
        # the differential out of it, whose free list is keyed (n, d),
        # keeps its target (n - 1, d).  The patterns of degree n built from
        # variables of degree < n, keyed (n - 1, cap), gain it only for
        # n > h.  It adds only boundaries to H_{h-1}, so the record that
        # H_n = 0 in degree d, keyed (n, d), goes only for n >= h.  The
        # builders adjoin a degree's generators back to back: when nothing
        # was recorded since a drop at a bidegree <= (h, i), every key left
        # has n < h or d < i, and the cache is not scanned again.
        swept = self._swept
        if swept is None or swept[0] > hdeg or swept[1] > ideg:
            for key in [k for k in self._cache if k[1] >= hdeg and k[2] >= ideg]:
                del self._cache[key]
        self._swept = (hdeg, ideg)
        return var

    def _record(self, key, value):
        """Cache value under key; the next ``adjoin`` scans the cache."""
        self._cache[key] = value
        self._swept = None
        return value

    def mark_acyclic(self, n, D):
        """Record that H_n = 0 in internal degrees 0..D, one ("acyclic", n,
        d) record per degree, which ``kernel`` reads; ``adjoin`` drops the
        record of degree d with a variable of bidegree <= (n, d)."""
        self._cache.update((("acyclic", n, d), True) for d in range(D + 1))
        self._swept = None

    def ground_element(self, elem):
        """Reduced ground element {mono: scalar} -> degree-zero tower element."""
        return Element(self, {(m, ()): c for m, c in elem.items()})

    # -- word structure ---------------------------------------------------

    def word_bidegree(self, word):
        mono, ext = word
        h = 0
        d = self.ground.degree_of(mono)
        for idx, e in ext:
            v = self.variables[idx]
            h += e * v.hdeg
            d += e * v.ideg
        return (h, d)

    def _merge(self, e1, e2):
        """Product of two extension parts: (ext, integer coefficient), or
        None when the parts share an odd variable, whose square is zero.

        The coefficient is the Koszul sign, an odd factor of e2 moving past
        the odd factors of e1 of higher index, times binom(a + b, a) for
        each divided-power variable v^(a) * v^(b); a polynomial v^a * v^b
        adds nothing.  An empty part is the unit.  Each factor of e2 is
        placed by bisection, so only the factors of e1 an odd factor
        passes are read one by one.
        """
        if not e1:
            return e2, 1
        if not e2:
            return e1, 1
        vs = self.variables
        out = list(e1)
        coeff = 1
        crossings = 0
        pos = 0
        for factor in e2:
            idx, b = factor
            v = vs[idx]
            # every factor at pos or after comes from e1: e2 ascends
            pos = bisect_left(out, (idx,), pos)
            if pos < len(out) and out[pos][0] == idx:
                if v.odd:
                    return None
                a = out[pos][1]
                if v.flavor == DIVIDED:
                    coeff *= comb(a + b, a)
                out[pos] = (idx, a + b)
            else:
                if v.odd:
                    for i, _ in out[pos:]:
                        crossings += vs[i].odd
                out.insert(pos, factor)
            pos += 1
        return tuple(out), -coeff if crossings % 2 else coeff

    def _pure_differential(self, ext):
        """Terms {word: scalar} of d(1 * ext), cached under the word (1, ext).

        For the last factor v^e of ext = a * v^e, d(a * v^e) = d(a) * v^e +
        (-1)^{|a|} k * a * d(v) * v^(e-1), with k = e for a polynomial v and
        1 otherwise.  d(a) and a * d(v) use only variables before v, so v^e
        and v^(e-1) are plain, unsigned suffixes, and since a has monomial 1
        and every term c * m * x of d(v) is standard, a * (m * x) is
        m * ``_merge``(a, x): extension parts alone are multiplied.

        No two terms share a word, so the terms are written straight into
        one dict: those of d(a) * v^e end in v^e and those of a * d(v) *
        v^(e-1) in v^(e-1) or in no v, and since exponents add injectively
        ``_merge``(a, x) determines x.  Only a scalar that is zero in the
        field is dropped: k = e, or a divided-power binomial, divisible by p.
        """
        key = (self._unit, ext)
        terms = self._dwords.get(key)
        if terms is not None:
            return terms
        if not ext:
            return {}
        left, last = ext[:-1], ext[-1]
        idx, e = last
        vs = self.variables
        v = vs[idx]
        terms = {(m, x + (last,)): c for (m, x), c in self._pure_differential(left).items()}
        k = e if v.flavor == POLYNOMIAL else 1
        for i, _ in left:  # |a| is odd when a has an odd number of odd factors
            if vs[i].odd:
                k = -k
        rest = ((idx, e - 1),) if e > 1 else ()
        f = self.field
        for (m, x), c in v.dval.terms.items():
            p = self._merge(left, x)
            if p is not None:
                s = f.mul(f.from_int(k * p[1]), c)
                if not f.is_zero(s):
                    terms[(m, p[0] + rest)] = s
        self._dwords[key] = terms
        return terms

    def _shifted(self, ext, b, place):
        """The differential of the words s * ext, s over the standard
        monomials of degree b: one (place(x), c, shift table of (m, b)) per
        term c * m * x of d(1 * ext) with place(x) not None, so d(s_i * ext)
        is the sum over the terms of c times row i of the table, at the
        words of pattern x.  ``columns`` places x at its target block's
        offset, and skips a pattern with no block, whose rows are empty;
        ``_is_cycle`` keys by the pattern itself."""
        shift = self.ground.shift
        return [(key, c, shift(m, b)) for (m, x), c in self._pure_differential(ext).items()
                if (key := place(x)) is not None]

    def _is_cycle(self, elem):
        """Whether d(elem) = 0, for an element of reduced words, summed as
        ``columns`` sums it: a term c * s * ext adds c times row s of each
        table of ``_shifted``(ext, deg s), keyed by target pattern and
        index, so no piece layout and no internal bound is read."""
        f, ground = self.field, self.ground
        out = {}
        for (s, ext), c in elem.terms.items():
            if not ext:  # a ground term has d = 0 and reads no degree data
                continue
            b = ground.degree_of(s)
            i = ground.basis_index(b)[s]
            linalg.add_into(out, (((x, j), f.mul(c, f.mul(cx, r)))
                                  for x, cx, rows in self._shifted(ext, b, lambda x: x)
                                  for j, r in rows[i]), f)
        return not out

    # -- piece layout and matrices ----------------------------------------

    def _layout(self, n, d):
        """Block layout of the bidegree-(n, d) piece: (blocks, index, size).

        blocks holds one (ext, b, off) per extension pattern ext of
        homological degree n whose internal degree i is at most d and whose
        leftover internal degree b = d - i has standard ground monomials;
        its words s * ext, s over the standard monomials of degree b, sit at
        coordinates off, off + 1, ...  index maps each ext to its offset.
        The blocks are a filter over the patterns of degree n: the lone
        degree-n variables, latest first, then the patterns of the variables
        below n enumerated once up to the tower's internal bound: a bound
        above d only adds exponent branches, so the kept patterns come in the
        same order as an enumeration up to d.
        """
        if n < 0 or d < 0:
            return (), {}, 0
        if self.nmax is not None and n > self.nmax + 1:
            raise TowerError("homological bound exceeded: %d > %d" % (n, self.nmax + 1))
        if d > self.dmax:
            raise TowerError("internal bound exceeded: %d > %d" % (d, self.dmax))
        key = ("layout", n, d)
        layout = self._cache.get(key)
        if layout is not None:
            return layout
        pkey = ("patterns", n - 1, self.dmax)
        patterns = self._cache.get(pkey)
        if patterns is None:
            patterns = self._record(pkey, self._patterns(n, self.dmax))
        lo, hi = (bisect_right(self.variables, h, key=attrgetter("hdeg")) for h in (n - 1, n))
        lone = ((((v.index, 1),), v.ideg) for v in reversed(self.variables[lo:hi]))
        widths = [len(self.ground.quotient_basis(b)) for b in range(d + 1)]
        blocks = []
        size = 0
        for ext, i in chain(lone, patterns):
            if i <= d and (width := widths[d - i]):
                blocks.append((ext, d - i, size))
                size += width
        return self._record(key, (tuple(blocks), {ext: off for ext, _, off in blocks}, size))

    def _patterns(self, n, cap):
        """Extension patterns of homological degree n and internal degree
        at most cap in the variables below n, as (ext, internal degree) in
        the enumeration order."""
        if not n:
            return (((), 0),)
        out = []
        variables = self.variables
        hdegs = [v.hdeg for v in variables if v.hdeg < n]

        def rec(i, h, dd, head):
            # the next factor is v_j^e for some j >= i with hdeg <= h (hdeg
            # weakly increases); patterns that skip v_j come before patterns
            # that use it, so j runs down, and the depth is the factor count.
            # hh and rest are what v_j^e leaves of h and dd
            for j in range(bisect_right(hdegs, h) - 1, i - 1, -1):
                v = variables[j]
                top = 1 if v.flavor == EXTERIOR else h // v.hdeg
                e, hh, rest = 1, h - v.hdeg, dd - v.ideg
                while e <= top and rest >= 0:
                    ext = head + ((j, e),)
                    if hh:
                        rec(j + 1, hh, rest, ext)
                    else:
                        out.append((ext, cap - rest))
                    e, hh, rest = e + 1, hh - v.hdeg, rest - v.ideg

        rec(0, n, cap, ())
        return tuple(out)

    def piece(self, n, d):
        """Ordered word basis of the bidegree-(n, d) piece, block by block."""
        blocks = self._layout(n, d)[0]
        quotient_basis = self.ground.quotient_basis
        return tuple((s, ext) for ext, b, _ in blocks for s in quotient_basis(b))

    def element(self, coords, n, d):
        blocks = self._layout(n, d)[0]
        quotient_basis = self.ground.quotient_basis
        terms = {}
        for i, c in coords.items():
            ext, b, off = blocks[bisect_right(blocks, i, key=itemgetter(2)) - 1]
            terms[(quotient_basis(b)[i - off], ext)] = c
        return Element(self, terms)

    def columns(self, n, d):
        """The sparse columns of the differential piece (n, d) -> (n-1, d),
        in piece order, each assembled only when it is read.

        Column s * ext of a block is s * d(1 * ext): a term c * m * x of
        d(1 * ext) adds c times row s of the shift table of (m, b) into
        target block x (``_shifted``).  A target block is missing only where
        its degree has no standard monomials, and then every row is empty.
        The one column of a unit block (b = 0, s = 1) is d(1 * ext) itself,
        each term c * m * x placed at the word m * x, with no shift table.
        Sums are taken only where two shifts can merge: b > 0 over a ground
        whose relators are not all monomials.
        """
        blocks = self._layout(n, d)[0]
        offset = self._layout(n - 1, d)[1].get
        f, ground = self.field, self.ground
        widths = [range(len(ground.quotient_basis(b))) for b in range(d + 1)]
        where = {}  # each standard monomial of degree <= d: its index in its degree
        for ext, b, _ in blocks:
            if not b:
                if not where:  # filled at the first unit block
                    for deg in range(d + 1):
                        where.update(ground.basis_index(deg))
                yield {off + where[m]: c for (m, x), c in self._pure_differential(ext).items()
                       if (off := offset(x)) is not None}
                continue
            terms = self._shifted(ext, b, offset)
            if self._merges:
                for i in widths[b]:
                    yield linalg.add_into({}, ((off + j, f.mul(c, r)) for off, c, rows in terms
                                               for j, r in rows[i]), f)
            else:
                for i in widths[b]:
                    yield {off + j: c for off, c, rows in terms for j, _ in rows[i]}

    def matrix(self, n, d):
        """Differential piece (n, d) -> (n-1, d) as (list of ``columns``,
        nrows)."""
        return list(self.columns(n, d)), self._layout(n - 1, d)[2]

    def kernel(self, n, d):
        """``linalg.Kernel`` of the differential out of (n, d), eliminating
        only its rows at the free columns of the kernel out of (n - 1, d),
        which it takes first when no free list of it is kept; out of
        (1, d) it eliminates all rows.

        Those rows have the kernel of the whole matrix in any tower:
        d_{n-1} d_n = 0 puts every column of d_n in the kernel of d_{n-1},
        and a vector of that kernel is zero when it is zero at the free
        columns.  Read at those columns, the image of d_n fills every
        coordinate, so the rows are independent, exactly where H_{n-1} = 0
        in degree d.  A builder kills H_{n-1} before it takes this kernel,
        so there each row eliminated adds a pivot.

        Two counts decide the kernel with no assembly and no elimination.
        No rows named: d_n is zero, and every column is free.  H_{n-1} = 0
        recorded in degree d (``mark_acyclic``) and as many rows as words:
        the rank is the number of rows, so d_n is injective.  The free list
        is kept under ("free", n, d) for the kernel out of (n + 1, d), and
        ``adjoin`` drops it with the piece (n, d).
        """
        if n > 1 and ("free", n - 1, d) not in self._cache:
            self.kernel(n - 1, d)
        rows = self._cache.get(("free", n - 1, d))
        size = self._layout(n, d)[2]
        if rows == []:
            kernel = linalg.Kernel.of_units(list(range(size)), self.field)
        elif rows is not None and len(rows) == size and ("acyclic", n - 1, d) in self._cache:
            kernel = linalg.Kernel.of_units([], self.field)
        else:
            cols, nrows = self.matrix(n, d)
            kernel = linalg.Kernel(cols, nrows, self.field, rows)
        self._record(("free", n, d), kernel.free)
        return kernel

    def solved(self, n, d):
        """Canonical kernel basis of the differential out of (n, d), uncached."""
        cols, nrows = self.matrix(n, d)
        return linalg.solve_cols(cols, nrows, self.field)

    # -- printing ---------------------------------------------------------

    def word_str(self, word):
        mono, ext = word
        parts = []
        ms = self.ground.mono_str(mono)
        if ms != "1":
            parts.append(ms)
        for idx, e in ext:
            v = self.variables[idx]
            if e == 1:
                parts.append(v.name)
            elif v.flavor == DIVIDED:
                parts.append("%s^(%d)" % (v.name, e))
            else:
                parts.append("%s^%d" % (v.name, e))
        return "*".join(parts) if parts else "1"

    def element_str(self, elem):
        order = sorted(elem.terms, key=lambda w: (w[1], tuple(-e for e in w[0])))
        return join_terms((self.field.to_str(elem.terms[w]), self.word_str(w)) for w in order)

    def dump(self):
        """Tower as a JSON-ready list: one entry per adjoined variable."""
        return [{"name": v.name, "hdeg": v.hdeg, "idim": v.ideg,
                 "flavor": v.flavor, "differential": self.element_str(v.dval)}
                for v in self.variables]

    def variables_of_hdeg(self, n):
        return [v for v in self.variables if v.hdeg == n]

    def __repr__(self):
        return "ExtensionTower(%s, %d variables over %r)" % (
            self.flavor, len(self.variables), self.ground)
