"""Longhand tower arithmetic, the reference the tests compare the library's
one differential route against.

``tatelab.extensions`` computes every differential from ``_pure_differential``
and the ground ring's shift tables (``columns``, ``_is_cycle``), and its
``Element`` is a container with no arithmetic.  Here the same numbers come
from a word product: ``_merge`` of the extension parts, then
``reduce_monomial`` of the product of the monomials, and d(m * X) is the
product (m * 1) * d(1 * X).  ``RefElement`` adds sums, scalings, products
and the differential to ``Element``; ``ref`` views a library element as one.
"""

from operator import add

from tatelab import linalg
from tatelab.extensions import Element, TowerError


def mul_words(tower, w1, w2):
    """Product of two canonical words: list of (word, scalar).  ``_merge``
    multiplies the extension parts, then the base monomials multiply in the
    ground ring and reduce to normal form; a standard monomial times 1 is
    already standard."""
    m1, e1 = w1
    m2, e2 = w2
    merged = tower._merge(e1, e2)
    if merged is None:
        return []
    ext, coeff = merged
    f = tower.field
    c = f.from_int(coeff)
    if f.is_zero(c):
        return []
    if not any(m1):
        return [((m2, ext), c)]
    if not any(m2):
        return [((m1, ext), c)]
    combo = tower.ground.reduce_monomial(tuple(map(add, m1, m2)))
    return [((sm, ext), f.mul(c, r)) for sm, r in combo.items()]


def word_differential(tower, word):
    """d(word) as a ``RefElement``: the cached ``_pure_differential`` for a
    word of monomial 1, and for a ground monomial m != 1 the word product
    (m * 1) * d(1 * X), one ``mul_words`` per term, uncached."""
    mono, ext = word
    pure = RefElement(tower, tower._pure_differential(ext))
    if any(mono):
        return RefElement.from_word(tower, (mono, ())) * pure
    return pure


class RefElement(Element):
    """``Element`` with the arithmetic of the tower: +, -, *, scale and d."""

    __slots__ = ()

    @classmethod
    def from_word(cls, tower, word):
        return cls(tower, {word: tower.field.one})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.tower is not other.tower:
            raise TowerError("elements belong to different towers")

    def __add__(self, other):
        self._check(other)
        return RefElement(self.tower, linalg.add_into(dict(self.terms), other.terms.items(),
                                                      self.tower.field))

    def __neg__(self):
        f = self.tower.field
        return RefElement(self.tower, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-ref(other))

    def scale(self, c):
        f = self.tower.field
        if f.is_zero(c):
            return RefElement(self.tower, {})
        return RefElement(self.tower, {w: f.mul(c, x) for w, x in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        t = self.tower
        f = t.field
        terms = ((w, f.mul(f.mul(c1, c2), x)) for w1, c1 in self.terms.items()
                 for w2, c2 in other.terms.items() for w, x in mul_words(t, w1, w2))
        return RefElement(t, linalg.add_into({}, terms, f))

    def differential(self):
        t = self.tower
        f = t.field
        terms = ((w, f.mul(c, x)) for v, c in self.terms.items()
                 for w, x in word_differential(t, v).terms.items())
        return RefElement(t, linalg.add_into({}, terms, f))


def ref(elem):
    """The library element elem as a ``RefElement`` on the same terms."""
    return RefElement(elem.tower, elem.terms)


def variable_element(tower, var):
    """The adjoined variable var as the word 1 * var."""
    return RefElement.from_word(tower, (tower._unit, ((var.index, 1),)))


def coords(tower, elem, n, d):
    """Coordinates {piece index: scalar} of elem in the bidegree-(n, d) piece."""
    index = {ext: (b, off) for ext, b, off in tower._layout(n, d)[0]}
    basis_index = tower.ground.basis_index
    out = {}
    for (mono, ext), c in elem.terms.items():
        blk = index.get(ext)
        i = None if blk is None else basis_index(blk[0]).get(mono)
        if i is None:
            raise TowerError("element does not lie in piece (%d, %d)" % (n, d))
        out[blk[1] + i] = c
    return out


def multiply(ring, a, b):
    """Product of two reduced quotient elements {mono: scalar}, reduced again."""
    f = ring.field
    return ring.normal_form(linalg.add_into(
        {}, ((tuple(map(add, m1, m2)), f.mul(c1, c2))
             for m1, c1 in a.items() for m2, c2 in b.items()), f))
