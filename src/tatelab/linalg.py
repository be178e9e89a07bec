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

A kernel takes at most one forward elimination and no reduced echelon
form: ``Kernel.vector`` back-solves the canonical kernel vector of one
free column on demand, so a caller that needs only a few of them pays for
only those.  The elimination reads the rows a caller names, all rows by
default; a caller that knows the kernel is spanned by unit vectors (a
zero matrix, or an injective one) names its free columns instead and no
elimination runs (``Kernel.of_units``).
"""

from bisect import bisect


def add_into(out, terms, field):
    """Add the (index, scalar) pairs of terms into the sparse vector out, in
    place, dropping an index whose sum is zero; returns out."""
    add, is_zero, zero = field.add, field.is_zero, field.zero
    for k, c in terms:
        s = add(out.get(k, zero), c)
        if is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


class Echelon:
    """Incremental row-echelon span; rows are kept in the field's row form.

    Stored rows only ever have support at indices >= their lead, so
    reduction scans strictly left to right and terminates.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # lead index -> row, in row form

    def reduce(self, v):
        """(v reduced against the stored rows, in row form, and its lead
        index): an empty row and None when v lies in the span.  ``to_row``
        gives a row of its own, which each elimination may rewrite in
        place; the stored rows are only read."""
        field, rows = self.field, self.rows
        out = field.to_row(v)
        while out:
            j = min(out)
            row = rows.get(j)
            if row is None:
                return out, j
            out = field.eliminate(out, row, j)
        return out, None

    def add(self, v):
        """Insert v if independent; return its lead index, else None."""
        r, j = self.reduce(v)
        if j is not None:
            self.rows[j] = self.field.pivot_row(r, j)
        return j


def complement(free, vectors, field):
    """The indices f of free (ascending) whose basis vector span(vectors)
    misses, in a space whose vectors are fixed by their coordinates at
    free and whose basis vector f is 1 at f and 0 at the rest of free.

    These are the basis vectors that a greedy complement of the span keeps
    on full coordinates, taken ascending: f is missed when no vector of the
    span has its highest coordinate in free at f.  The vectors are reduced
    at free alone, with leads at the highest index, and none is read once
    the span fills free.
    """
    pos = {f: len(free) - 1 - i for i, f in enumerate(free)}
    span = Echelon(field)
    for v in vectors if free else ():
        span.add({pos[k]: c for k, c in v.items() if k in pos})
        if len(span.rows) == len(free):
            break
    return [f for f in free if pos[f] not in span.rows]


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
        row = dict(ech.rows[j])  # eliminate may rewrite the row it is handed
        for k in sorted(row):
            if k != j and k in reduced:
                row = field.eliminate(row, reduced[k], k)
        reduced[j] = row
    return pivots, {j: field.from_row(reduced[j], j) for j in pivots}


def transpose(cols, rows):
    """The rows of a matrix given by sparse columns, one per index in rows,
    in that order."""
    out = {i: {} for i in rows}
    for j, col in enumerate(cols):
        for i, c in col.items():
            row = out.get(i)
            if row is not None:
                row[j] = c
    return list(out.values())


class Kernel:
    """Kernel of a matrix (sparse columns, row count), from one forward
    elimination of the rows listed in ``rows``, all of them when None.

    A caller that lists some rows vouches that they have the kernel of
    the whole matrix (``ExtensionTower.kernel`` says why its rows do).
    ``free`` lists the non-pivot columns ascending; each has one canonical
    kernel vector, 1 at it and 0 at the other free columns, which
    ``vector`` solves when asked.  Both depend on the kernel alone, not on
    the rows read.
    """

    def __init__(self, cols, nrows, field, rows=None):
        ech = Echelon(field)
        for row in transpose(cols, range(nrows) if rows is None else rows):
            ech.add(row)
        self.field = field
        self.rows = ech.rows
        self.pivots = sorted(ech.rows)
        self.free = [f for f in range(len(cols)) if f not in ech.rows]

    @classmethod
    def of_units(cls, free, field):
        """The kernel whose canonical vectors are the unit vectors at the
        columns free (ascending), taken with no elimination: that of a zero
        matrix when free lists every column, the zero kernel when it is
        empty.  ``rows`` and ``pivots`` are empty, as no row was read."""
        kernel = cls.__new__(cls)
        kernel.field, kernel.rows, kernel.pivots, kernel.free = field, {}, [], free
        return kernel

    def vector(self, f):
        """Canonical kernel vector of free column f.

        A pivot row has support at its lead and above, so a pivot above f
        is 0 and the pivots below f are back-solved, highest first, each
        from its own row: O(nnz) of the rows below f.
        """
        field = self.field
        v = {f: field.one}
        for p in reversed(self.pivots[:bisect(self.pivots, f)]):
            row = self.rows[p]
            s = field.zero
            for k, c in row.items():
                x = v.get(k)
                if x is not None:
                    s = field.add(s, field.mul(c, x))
            if not field.is_zero(s):
                v[p] = field.neg(field.mul(s, field.inv(row[p])))
        return v


def solve_cols(cols, nrows, field):
    """Canonical kernel basis of a matrix: one vector per free column of
    its ``Kernel``, ascending by that column."""
    k = Kernel(cols, nrows, field)
    return [k.vector(f) for f in k.free]
