"""Exact sparse linear algebra over the coefficient fields.

Random matrices get cross-checked against dense rank/kernel facts
computed with Fraction arithmetic — same math, different code path.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from tatelab.fields import PrimeField, QQ
from tatelab.linalg import Echelon, Kernel, add_into, complement, rref, solve_cols


def to_dense(v, n):
    return [v.get(i, 0) for i in range(n)]


def from_dense(row, field):
    out = {}
    for i, c in enumerate(row):
        x = c if not isinstance(c, int) else field.from_int(c)
        if not field.is_zero(x):
            out[i] = x
    return out


def apply_cols(cols, v, field):
    """The image sum_j v[j] * cols[j] as a sparse dict."""
    out = {}
    for j, c in v.items():
        for i, x in cols[j].items():
            s = field.add(out.get(i, field.zero), field.mul(c, x))
            if field.is_zero(s):
                out.pop(i, None)
            else:
                out[i] = s
    return out


def test_eliminate_cancels():
    # Q rows are primitive integer vectors: 2*(2, 0, 6) - 1*(4, 2, 0) = (0, -2, 12),
    # primitive part (0, -1, 6)
    assert QQ.eliminate({0: 2, 2: 6}, {0: 4, 1: 2}, 0) == {1: -1, 2: 6}
    assert QQ.to_row({0: Fraction(1, 2), 1: Fraction(-3, 4)}) == {0: 2, 1: -3}
    assert QQ.from_row({1: -2, 3: 6}, 1) == {1: Fraction(1), 3: Fraction(-3)}
    f5 = PrimeField(5)
    assert f5.eliminate({0: 3, 1: 2}, {0: 1, 1: 1, 2: 4}, 0) == {1: 4, 2: 3}
    assert f5.pivot_row({2: 3, 4: 1}, 2) == {2: 1, 4: 2}


def test_echelon_rank_counts_independent_vectors():
    ech = Echelon(QQ)
    assert ech.add(from_dense([1, 2, 3], QQ)) is not None
    assert ech.add(from_dense([0, 1, 1], QQ)) is not None
    # dependent: (1,2,3) + 2*(0,1,1) = (1,4,5)
    assert ech.add(from_dense([1, 4, 5], QQ)) is None
    assert len(ech.rows) == 2
    assert ech.reduce(from_dense([2, 4, 6], QQ)) == ({}, None)
    assert ech.reduce(from_dense([0, 0, 1], QQ)) == ({2: 1}, 2)


def test_rref_canonical_form():
    vecs = [from_dense(v, QQ) for v in ([2, 4, 0], [1, 2, 1], [3, 6, 1])]
    pivots, rows = rref(vecs, QQ)
    assert pivots == [0, 2]
    assert to_dense(rows[0], 3) == [1, 2, 0]
    assert to_dense(rows[2], 3) == [0, 0, 1]


def test_rref_is_input_order_independent():
    vecs = [[1, 1, 0], [0, 1, 1], [1, 0, -1]]
    base = rref([from_dense(v, QQ) for v in vecs], QQ)
    for perm in ([1, 0, 2], [2, 1, 0], [2, 0, 1]):
        got = rref([from_dense(vecs[i], QQ) for i in perm], QQ)
        assert got[0] == base[0]
        assert [to_dense(r, 3) for _, r in sorted(got[1].items())] == \
               [to_dense(r, 3) for _, r in sorted(base[1].items())]


def test_solve_cols_small_example():
    # columns of the map (x, y) -> x + y from k^2 to k^1
    cols = [from_dense([1], QQ), from_dense([1], QQ)]
    kernel = solve_cols(cols, 1, QQ)
    assert len(kernel) == 1
    assert to_dense(kernel[0], 2) == [-1, 1]


def test_solve_cols_zero_map():
    cols = [{}, {}]
    kernel = solve_cols(cols, 2, QQ)
    assert [to_dense(v, 2) for v in kernel] == [[1, 0], [0, 1]]


def _random_sparse_cols(rng, fld):
    """Sparse columns, some of them zero, with small entries and, over Q,
    non-integral ones."""
    nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 8)
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    entries = [2, 3, -2, 5, 1, -1, 4] + ([Fraction(3, 2), Fraction(-5, 3)]
                                         if fld is QQ else [])
    cols = []
    for _ in range(ncols):
        col = {}
        if rng.random() > 0.2:
            for i in range(nrows):
                c = rng.choice(entries)
                c = c if fld is QQ else fld.from_int(c)
                if rng.random() < density and not fld.is_zero(c):
                    col[i] = c
        cols.append(col)
    return cols, nrows


def _full_rank_cols(rng, fld, n):
    """Upper triangular n x n with a non-unit diagonal where the field has
    one: full column rank."""
    diag = fld.from_int(2 if fld is QQ or fld.p != 2 else 1)
    cols = []
    for j in range(n):
        above = {i: fld.from_int(rng.randrange(1, 4)) for i in range(j)
                 if rng.random() < 0.5}
        cols.append({i: c for i, c in above.items() if not fld.is_zero(c)})
        cols[-1][j] = diag
    return cols, n


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=repr)
def test_kernel_vectors_match_oracle(fld):
    # every free column's vector is the oracle's null space vector for it,
    # and over Q every scalar is canonical: an int when integral, else a
    # Fraction with denominator > 1
    rng = random.Random(20261018)
    ofld = oracles.OField(None if fld is QQ else fld.p)
    zero, full = ([{}, {}, {}], 2), _full_rank_cols(rng, fld, 5)
    assert Kernel(*zero, fld).free == [0, 1, 2]
    assert Kernel(*full, fld).free == []
    cases = [zero, ([{}, {}], 0), full,
             ([{0: c} if c else {} for c in map(fld.from_int, (2, 3, 0))], 1)]
    cases += [_random_sparse_cols(rng, fld) for _ in range(60)]
    fractions = 0
    for cols, nrows in cases:
        k = Kernel(cols, nrows, fld)
        rows = [[ofld.of(col.get(i, 0)) for col in cols] for i in range(nrows)]
        want = oracles.kernel_basis(rows, len(cols), ofld)
        got = [k.vector(f) for f in k.free]
        assert [to_dense(v, len(cols)) for v in got] == want, (cols, nrows)
        assert solve_cols(cols, nrows, fld) == got
        for v in got:
            assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                       for c in v.values())
            fractions += any(type(c) is Fraction for c in v.values())
    if fld is QQ:
        assert fractions > 0


def _dense_rank(rows, fld):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows))
                    if not fld.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][c])
        rows[rank] = [fld.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not fld.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [fld.add(a, fld.neg(fld.mul(f, b)))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_solve_cols_random_rank_nullity():
    rng = random.Random(20240811)
    for fld in (QQ, PrimeField(5), PrimeField(2)):
        for _ in range(25):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            dense_cols = [[fld.from_int(rng.randrange(-3, 4))
                           for _ in range(nrows)] for _ in range(ncols)]
            cols = [from_dense(c, fld) for c in dense_cols]
            kernel = solve_cols(cols, nrows, fld)
            # nullity agrees with straightforward dense elimination on rows
            rows = [[dense_cols[j][i] for j in range(ncols)]
                    for i in range(nrows)]
            assert _dense_rank(rows, fld) + len(kernel) == ncols
            # kernel vectors actually die
            for v in kernel:
                assert apply_cols(cols, v, fld) == {}


def test_solve_cols_kernel_is_deterministic():
    cols = [from_dense(c, QQ) for c in ([1, 0], [2, 0], [0, 1], [2, 3])]
    k1 = solve_cols(cols, 2, QQ)
    k2 = solve_cols([dict(c) for c in cols], 2, QQ)
    assert k1 == k2
    # canonical: one vector per non-pivot column, 1 there, 0 at the others
    assert [to_dense(v, 4) for v in k1] == [[-2, 1, 0, 0], [-2, 0, -3, 1]]


def _fraction_leads(vectors):
    """Lead index each vector adds to a plain lead-1 Fraction echelon, or None."""
    rows, leads = {}, []
    for v in vectors:
        out = dict(v)
        while out and min(out) in rows:
            j = min(out)
            c = out[j]
            for k, x in rows[j].items():
                s = out.get(k, 0) - c * x
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        if out:
            j = min(out)
            rows[j] = {k: x / out[j] for k, x in out.items()}
            leads.append(j)
        else:
            leads.append(None)
    return leads


_big_rational = st.builds(Fraction, st.integers(-10**6, 10**6),
                          st.integers(1, 9))


@st.composite
def _rational_rows(draw):
    """Dense Q rows with large non-integral entries, then dependent and
    duplicate rows drawn from them."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)), _big_rational)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(_big_rational), draw(_big_rational)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return draw(st.permutations(rows))


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(_rational_rows())
def test_rref_matches_oracle_on_large_rationals(dense):
    ncols = len(dense[0])
    vecs = [from_dense(r, QQ) for r in dense]
    pivots, rows = rref(vecs, QQ)
    opivots, orows = oracles.rref(dense, oracles.OField(None))
    assert pivots == opivots
    assert [to_dense(rows[p], ncols) for p in pivots] == orows
    ech = Echelon(QQ)
    assert [ech.add(v) for v in vecs] == _fraction_leads(vecs)
    cols = [from_dense([r[j] for r in dense], QQ) for j in range(ncols)]
    kernel = solve_cols(cols, len(dense), QQ)
    assert len(kernel) == ncols - len(opivots)
    for v in kernel:
        assert apply_cols(cols, v, QQ) == {}


# -- the sparse accumulator ----------------------------------------------------

@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
def test_add_into_drops_cancelled_keys(field):
    one, neg = field.one, field.neg
    out = {0: one, 1: one}
    assert add_into(out, [(0, neg(one)), (2, one)], field) is out
    assert out == {1: one, 2: one}
    rng = random.Random(20261018)
    for _ in range(300):
        start = {k: field.from_int(rng.randint(1, 4)) for k in rng.sample(range(5), 2)}
        start = {k: c for k, c in start.items() if not field.is_zero(c)}
        terms = [(rng.randrange(5), field.from_int(rng.randint(-4, 4)))
                 for _ in range(rng.randrange(10))]
        if field.kind == "Q":
            terms = [(k, field.mul(c, field.inv(field.from_int(rng.randint(1, 3)))))
                     if c else (k, c) for k, c in terms]
        # reference: sum each key over all its terms, then keep nonzero sums
        sums = dict(start)
        for k, c in terms:
            sums[k] = field.add(sums.get(k, field.zero), c)
        expect = {k: c for k, c in sums.items() if not field.is_zero(c)}
        got = add_into(dict(start), terms, field)
        assert got == expect
        assert not any(field.is_zero(c) for c in got.values())


# -- complements at free coordinates --------------------------------------------

def greedy_complement(free, basis, vectors, field):
    """The indices f of free whose basis vector, taken ascending, is
    independent on full coordinates of the vectors and the basis vectors
    before it."""
    span = Echelon(field)
    for v in vectors:
        span.add(v)
    return [f for f in free if span.add(basis[f]) is not None]


def draw_free_space(rng, field):
    """(free, basis, vectors): free an ascending sample of 0..n-1, basis[f]
    1 at f, 0 at the rest of free and sparse elsewhere, and vectors sparse
    combinations of the basis vectors, some of them repeated or zero."""
    def scalar():
        c = field.from_int(rng.choice([-3, -1, 1, 2, 5]))
        if field.kind == "Q" and rng.random() < 0.3:
            c = field.mul(c, field.inv(field.from_int(rng.randint(2, 7))))
        return c

    n = rng.randint(0, 10)
    free = sorted(rng.sample(range(n), rng.randint(0, n)))
    rest = [k for k in range(n) if k not in free]
    basis = {}
    for f in free:
        basis[f] = {f: field.one}
        for k in rng.sample(rest, rng.randint(0, len(rest))):
            c = scalar()
            if not field.is_zero(c):
                basis[f][k] = c
    vectors = []
    for _ in range(rng.randint(0, len(free) + 2)):
        v = {}
        for f in rng.sample(free, rng.randint(0, min(3, len(free)))):
            a = scalar()
            add_into(v, ((k, field.mul(a, c)) for k, c in basis[f].items()), field)
        vectors.append(v)
    if vectors and rng.random() < 0.3:
        vectors.append(dict(rng.choice(vectors)))
    return free, basis, vectors


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=str)
def test_complement_matches_a_greedy_full_coordinate_complement(field):
    # the free indices the span misses, read at free coordinates with leads
    # at the highest index, are the greedy full-coordinate complement; once
    # the span fills free no further vector is read
    rng = random.Random(20261019)
    filled = 0
    for _ in range(400):
        free, basis, vectors = draw_free_space(rng, field)
        read = []

        def stream():
            for v in vectors:
                read.append(v)
                yield v

        got = complement(free, stream(), field)
        assert got == greedy_complement(free, basis, vectors, field), (free, vectors)
        if free and not got:
            filled += 1
            assert len(greedy_complement(free, basis, read, field)) == 0
            assert greedy_complement(free, basis, read[:-1], field) != []
        elif free:
            assert read == vectors
    assert filled >= 50


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
def test_complement_stops_once_the_span_is_full(field):
    one = field.one

    def vectors():
        yield {0: one, 1: one, 5: one}
        yield {}
        yield {1: one, 2: one, 4: one}
        yield {2: one}
        raise AssertionError("read past a full span")

    assert complement([0, 1, 2], vectors(), field) == []
    assert complement([0, 1, 2, 3], [{0: one, 3: one}, {3: one, 1: one}], field) == [0, 2]
    # no free index: nothing to pick and nothing read
    assert complement([], vectors(), field) == []
    assert complement([], [], field) == []


# -- elimination writes only the rows it owns -----------------------------------

@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_elimination_leaves_inputs_and_stored_rows_as_they_were(field):
    # an elimination step may rewrite the row it is handed, so every caller
    # hands over a row of its own: the vectors it is given, the columns of a
    # kernel and the pivots an echelon keeps stay as they were
    rng = random.Random(20261020)
    eliminated = 0
    for _ in range(200):
        cols, nrows = _random_sparse_cols(rng, field)
        vectors = cols + [dict(c) for c in cols[:2]]  # repeats reduce to zero
        given = copy.deepcopy(vectors)
        ech = Echelon(field)
        for v in vectors:
            stored = copy.deepcopy(ech.rows)
            ech.add(v)
            assert all(ech.rows[j] == row for j, row in stored.items())
        assert vectors == given
        eliminated += len(vectors) - len(ech.rows)

        kernel = Kernel(vectors, nrows, field)
        stored = copy.deepcopy(kernel.rows)
        basis = [kernel.vector(f) for f in kernel.free]
        assert vectors == given and kernel.rows == stored
        assert basis == solve_cols(given, nrows, field)

        pivots, rows = rref(vectors, field)
        assert vectors == given
        assert rref(given, field) == (pivots, rows)

        free, _, spanning = draw_free_space(rng, field)
        spanned = copy.deepcopy(spanning)
        complement(free, spanning, field)
        assert spanning == spanned
    assert eliminated > 200
