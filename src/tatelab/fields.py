"""Exact coefficient fields: the rationals and prime fields F_p.

All arithmetic is exact -- no floats anywhere in the engine.  Field
elements are plain Python values: over Q an ``int`` when the rational is
integral and a ``Fraction`` only when its denominator is not 1, so the
integer data the towers almost always carry never allocates one; over F_p
an ``int`` in ``range(p)``.  The field object supplies the operations, so
the linear algebra and ring layers stay field-agnostic.

Each field also fixes the row form that ``linalg`` eliminates in: a
nonzero scalar multiple of a sparse field vector, chosen so that one
elimination step is cheap.  ``to_row`` maps a field vector into it, as
a new dict the caller owns; ``eliminate`` clears one coordinate of such
a row, over F_p by rewriting the row itself and over Q into a new
primitive row, and returns the result; ``pivot_row`` normalises a row
before it is stored as a pivot, and ``from_row`` gives back the field
vector scaled to lead coefficient 1.
"""

from fractions import Fraction
from math import gcd, lcm


class FieldError(ValueError):
    pass


# Miller-Rabin to the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017), so the test is
# a proof there; larger characteristics are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive(row):
    g = gcd(*row.values())
    return {k: c // g for k, c in row.items()} if g > 1 else row


def _canonical(x):
    """An int for an integral rational, else the Fraction itself."""
    return x.numerator if x.__class__ is Fraction and x.denominator == 1 else x


class Rationals:
    """Arbitrary-precision rationals: ints when integral, else Fractions."""

    kind = "Q"
    p = None
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canonical(Fraction(1) / a)

    def is_zero(self, a):
        return a == 0

    def contains(self, a):
        return a.__class__ is int or a.__class__ is Fraction

    def to_str(self, a):
        return str(a)

    # Row form: primitive integer vectors (coprime ints, no Fractions).

    def to_row(self, v):
        den = lcm(*[x.denominator for x in v.values()])
        return _primitive({k: x.numerator * (den // x.denominator)
                           for k, x in v.items()})

    def eliminate(self, out, row, j):
        """Primitive part of a*out - b*row, with a/b = row[j]/out[j] in lowest terms."""
        x, y = row[j], out[j]
        g = gcd(x, y)
        a, b = x // g, y // g
        if a < 0:
            a, b = -a, -b
        new = dict(out) if a == 1 else {k: a * c for k, c in out.items()}
        for k, c in row.items():
            s = new.get(k, 0) - b * c
            if s:
                new[k] = s
            else:
                del new[k]
        return _primitive(new)

    def pivot_row(self, row, j):
        return row

    def from_row(self, row, j):
        lead = row[j]
        return {k: c // lead if c % lead == 0 else Fraction(c, lead)
                for k, c in row.items()}

    def spec(self):
        return {"type": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("field", "Q"))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for prime p; elements are ints reduced to range(p)."""

    kind = "Fp"

    def __init__(self, p):
        if isinstance(p, int) and p >= _MR_LIMIT:
            raise FieldError("field characteristic %d is too large: primality "
                             "is certified only below %d" % (p, _MR_LIMIT))
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError("field characteristic must be prime, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def contains(self, a):
        return a.__class__ is int and 0 <= a < self.p

    def to_str(self, a):
        return str(a % self.p)

    # Row form: the field vector itself; stored pivot rows have lead 1.

    def to_row(self, v):
        return dict(v)

    def eliminate(self, out, row, j):
        """out - out[j]*row, for a row with row[j] == 1, written into out
        itself and returned: the caller hands over a row it owns."""
        p = self.p
        c = -out[j] % p
        for k, x in row.items():
            s = (out.get(k, 0) + c * x) % p
            if s:
                out[k] = s
            else:
                del out[k]
        return out

    def pivot_row(self, row, j):
        # a new dict either way: ``eliminate`` rewrote row in place, and its
        # table may be sized for a longer row than the one it now holds
        if row[j] == 1:
            return dict(row)
        p = self.p
        inv = pow(row[j], p - 2, p)
        return {k: c * inv % p for k, c in row.items()}

    def from_row(self, row, j):
        return row

    def spec(self):
        return {"type": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", "Fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def field_from_spec(spec):
    """Build a field from its JSON spec: {"type": "Q"} or {"type": "Fp", "p": 5}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise FieldError("field spec must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        if "p" not in spec:
            raise FieldError("field spec of type Fp needs a key 'p'")
        return PrimeField(spec["p"])
    raise FieldError("unknown field type %r (expected 'Q' or 'Fp')" % (kind,))
