"""Sparse exact linear algebra over a coefficient field.

Vectors are dicts {index: nonzero scalar}.  A matrix is a list of sparse
columns plus an explicit row count.  Pivots are always taken at the
smallest available index, so every derived basis (row echelon, kernel)
is deterministic and, for a fixed span, canonical.

Elimination works on the field's row form (``field.to_row``): primitive
integer vectors over Q and the field vectors themselves over F_p.  Over Q
no Fraction is built during elimination, and ``rref``'s lead-1 rows hold
one only where the lead does not divide an entry.  A row form vector is
a nonzero scalar multiple of the field vector it stands for, so every
lead index and rank is the one plain field arithmetic would give.
"""


class Echelon:
    """Incremental row-echelon span; rows are kept in the field's row form.

    Stored rows only ever have support at indices >= their lead, so
    reduction scans strictly left to right and terminates.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # lead index -> row, in row form

    def reduce(self, v):
        field, rows = self.field, self.rows
        out = field.to_row(v)
        while out:
            j = min(out)
            row = rows.get(j)
            if row is None:
                return out
            out = field.eliminate(out, row, j)
        return out

    def add(self, v):
        """Insert v if independent; return its lead index, else None."""
        r = self.reduce(v)
        if not r:
            return None
        j = min(r)
        self.rows[j] = self.field.pivot_row(r, j)
        return j


def rref(vectors, field):
    """Canonical reduced row echelon basis of span(vectors).

    Returns (pivots, rows): pivots sorted ascending, rows a dict
    pivot -> row with lead coefficient 1 and zeros at all other pivots.
    """
    ech = Echelon(field)
    for v in vectors:
        ech.add(v)
    pivots = sorted(ech.rows)
    reduced = {}
    for j in reversed(pivots):
        row = ech.rows[j]
        for k in sorted(row):
            if k != j and k in reduced:
                row = field.eliminate(row, reduced[k], k)
        reduced[j] = row
    return pivots, {j: field.from_row(reduced[j], j) for j in pivots}


def transpose(cols, nrows):
    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return [rows.get(i, {}) for i in range(nrows)]


def solve_cols(cols, nrows, field):
    """Canonical kernel basis of a matrix, from one elimination of its rows.

    One vector per non-pivot column f of the reduced row echelon form: 1 at
    f and the negated reduced entries of column f at the pivots.  Returns a
    list, ascending by f.
    """
    pivots, red = rref(transpose(cols, nrows), field)
    pivset = set(pivots)
    kernel = []
    for f in range(len(cols)):
        if f in pivset:
            continue
        v = {f: field.one}
        for p in pivots:
            c = red[p].get(f)
            if c is not None:
                v[p] = field.neg(c)
        kernel.append(v)
    return kernel
