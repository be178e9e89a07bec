"""Independent cross-checks for the test suite.

Everything here is deliberately self-contained: its own field
arithmetic, its own dense Gaussian elimination, its own polynomial
parser, its own graded quotient-ring model.  Nothing is imported from
the package under test, so agreement between the two is meaningful.

The three oracles:

  * ``betti_oracle`` builds a minimal free resolution of the residue
    field by raw syzygy computation (kernel pieces degree by degree,
    minimal generators via the graded Nakayama complement) and reports
    the ranks of the free modules.

  * ``koszul_h1_mu_oracle`` forms the length-two tail of the Koszul
    complex on a minimal generating set of the defining ideal and
    counts minimal generators of its first homology module.

  * ``deviations_from_betti`` inverts the infinite-product formula for
    the Poincare series: strip one factor per homological degree and
    read the next coefficient.  The remainder must collapse to 1
    exactly, which is asserted.

All arithmetic is exact (Fraction over the rationals, ints mod p).
Dense lists of lists throughout; these run on small instances only.
"""

from fractions import Fraction

# ---------------------------------------------------------------------------
# field arithmetic


class OField:
    """Exact field: rationals when p is None, else integers mod p."""

    def __init__(self, p=None):
        self.p = p

    def of(self, n):
        return Fraction(n) if self.p is None else n % self.p

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a):
        if self.p is None:
            return Fraction(1) / a
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0


def field_of(doc):
    spec = doc["field"]
    return OField(None) if spec["type"] == "Q" else OField(spec["p"])


# ---------------------------------------------------------------------------
# dense linear algebra


def rref(rows, fld):
    """Reduced row echelon form.  Returns (pivot column list, rows)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows))
                   if not fld.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = fld.inv(rows[r][c])
        rows[r] = [fld.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not fld.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [fld.sub(a, fld.mul(f, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def kernel_basis(mat_rows, ncols, fld):
    """Null space of the matrix whose rows are given (equations)."""
    if not mat_rows:
        return [[fld.one() if j == i else fld.zero() for j in range(ncols)]
                for i in range(ncols)]
    pivots, red = rref(mat_rows, fld)
    pivot_row = {c: i for i, c in enumerate(pivots)}
    basis = []
    for f in range(ncols):
        if f in pivot_row:
            continue
        v = [fld.zero()] * ncols
        v[f] = fld.one()
        for c, i in pivot_row.items():
            v[c] = fld.sub(fld.zero(), red[i][f])
        basis.append(v)
    return basis


def _nakayama_new_generators(candidates, below_span, fld):
    """Vectors among `candidates` that extend the echelon of `below_span`."""
    _, red = rref(below_span, fld) if below_span else ([], [])
    taken = list(red)
    chosen = []
    for z in candidates:
        p2, r2 = rref(taken + [z], fld)
        if len(p2) > len(taken):
            chosen.append(z)
            taken = r2
    return chosen


# ---------------------------------------------------------------------------
# polynomials and the quotient ring, dense per internal degree


def parse_poly(text, names):
    """Integer-coefficient polynomial -> {exponent tuple: int}."""
    poly = {}
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0:
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])
    for chunk in chunks:
        sign = -1 if chunk.startswith("-") else 1
        if chunk[0] in "+-":
            chunk = chunk[1:]
        coeff = sign
        expo = [0] * len(names)
        for factor in chunk.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                base, _, power = factor.partition("^")
                expo[names.index(base)] += int(power) if power else 1
        key = tuple(expo)
        poly[key] = poly.get(key, 0) + coeff
    return {k: v for k, v in poly.items() if v}


def monomials_of_degree(weights, d):
    """All exponent tuples of weighted degree d (ascending lex)."""
    if not weights:
        return [()] if d == 0 else []
    out = []
    w0 = weights[0]
    for e in range(d // w0 + 1):
        for rest in monomials_of_degree(weights[1:], d - e * w0):
            out.append((e,) + rest)
    return out


class DenseRing:
    """A graded quotient ring, tabulated through internal degree D.

    For each degree d it stores the monomial list, a basis (the
    monomials that survive elimination against the relator-multiple
    span), and the normal form of every monomial as a dense coordinate
    vector over that basis.
    """

    def __init__(self, fld, weights, relator_polys, D):
        self.fld = fld
        self.weights = weights
        self.D = D
        self.monos = {}
        self.index = {}
        self.basis = {}      # d -> list of monomials
        self.nf = {}         # d -> {mono: dense vector over basis}
        for d in range(D + 1):
            monos = monomials_of_degree(weights, d)
            self.monos[d] = monos
            self.index[d] = {m: i for i, m in enumerate(monos)}
            rows = []
            for f in relator_polys:
                df = self.poly_degree(f)
                if df > d:
                    continue
                for m in monomials_of_degree(weights, d - df):
                    row = [fld.zero()] * len(monos)
                    for expo, c in f.items():
                        prod = tuple(a + b for a, b in zip(m, expo))
                        k = self.index[d][prod]
                        row[k] = fld.add(row[k], fld.of(c))
                    rows.append(row)
            pivots, red = rref(rows, fld) if rows else ([], [])
            pivot_row = {c: i for i, c in enumerate(pivots)}
            std = [i for i in range(len(monos)) if i not in pivot_row]
            self.basis[d] = [monos[i] for i in std]
            std_pos = {i: j for j, i in enumerate(std)}
            nf = {}
            for i, m in enumerate(monos):
                vec = [fld.zero()] * len(std)
                if i in pivot_row:
                    row = red[pivot_row[i]]
                    for j in std:
                        if not fld.is_zero(row[j]):
                            vec[std_pos[j]] = fld.sub(fld.zero(), row[j])
                else:
                    vec[std_pos[i]] = fld.one()
                nf[m] = vec
            self.nf[d] = nf

    def poly_degree(self, f):
        degs = {sum(e * w for e, w in zip(m, self.weights)) for m in f}
        if len(degs) != 1:
            raise ValueError("inhomogeneous relator")
        return degs.pop()

    def dim(self, d):
        return len(self.basis[d]) if 0 <= d <= self.D else 0

    def reduce_poly(self, f, d):
        """Integer polynomial of degree d -> dense coords over basis[d]."""
        vec = [self.fld.zero()] * self.dim(d)
        for m, c in f.items():
            nf = self.nf[d][m]
            cc = self.fld.of(c)
            for j, v in enumerate(nf):
                vec[j] = self.fld.add(vec[j], self.fld.mul(cc, v))
        return vec

    def mult(self, d1, u, d2, v):
        """Product of coordinate vectors: R_{d1} x R_{d2} -> R_{d1+d2}."""
        d = d1 + d2
        out = [self.fld.zero()] * self.dim(d)
        for i, a in enumerate(u):
            if self.fld.is_zero(a):
                continue
            mi = self.basis[d1][i]
            for j, b in enumerate(v):
                if self.fld.is_zero(b):
                    continue
                mj = self.basis[d2][j]
                prod = tuple(x + y for x, y in zip(mi, mj))
                nf = self.nf[d][prod]
                c = self.fld.mul(a, b)
                for k, w in enumerate(nf):
                    out[k] = self.fld.add(out[k], self.fld.mul(c, w))
        return out

    def variable_vectors(self):
        """(weight, coords of the variable in basis[weight]) per variable."""
        out = []
        for i, w in enumerate(self.weights):
            expo = tuple(1 if j == i else 0 for j in range(len(self.weights)))
            out.append((w, self.nf[w][expo]))
        return out


def hilbert_oracle(doc, D):
    """dim R_d for d = 0..D of the ring doc presents, by DenseRing."""
    names = [v["name"] for v in doc["variables"]]
    weights = [v["degree"] for v in doc["variables"]]
    relators = [parse_poly(r, names) for r in doc["relators"]]
    ring = DenseRing(field_of(doc), weights, relators, D)
    return [ring.dim(d) for d in range(D + 1)]


# ---------------------------------------------------------------------------
# graded free modules over a DenseRing


class FreeModule:
    """Free graded module with generator degrees gdeg over ring."""

    def __init__(self, ring, gdeg):
        self.ring = ring
        self.gdeg = list(gdeg)

    def dim(self, d):
        return sum(self.ring.dim(d - a) for a in self.gdeg)

    def scale_by_variable(self, d, vec, w, var_vec):
        """Multiply a degree-d element by a weight-w variable."""
        out = []
        off = 0
        for a in self.gdeg:
            n = self.ring.dim(d - a)
            block = vec[off:off + n]
            off += n
            out.extend(self.ring.mult(w, var_vec, d - a, block))
        return out


def map_matrix_rows(ring, source, target, entries, d):
    """Rows (= target coordinates) of a module map at internal degree d.

    entries[i][j] is the component of the i-th source generator on the
    j-th target generator: a dense coordinate vector over
    ring.basis[source.gdeg[i] - target.gdeg[j]], or None for zero.
    """
    nrows = target.dim(d)
    cols = []
    for i, a in enumerate(source.gdeg):
        n_i = ring.dim(d - a)
        for k in range(n_i):
            unit = [ring.fld.zero()] * n_i
            unit[k] = ring.fld.one()
            col = []
            for j, b in enumerate(target.gdeg):
                ent = entries[i][j]
                if ent is None:
                    col.extend([ring.fld.zero()] * ring.dim(d - b))
                else:
                    col.extend(ring.mult(a - b, ent, d - a, unit))
            cols.append(col)
    return [[cols[c][r] for c in range(len(cols))] for r in range(nrows)]


# ---------------------------------------------------------------------------
# oracle 1: Betti numbers by raw syzygy resolution


def betti_oracle(doc, N, D):
    """Ranks of a minimal free resolution of the residue field, 0..N."""
    names = [v["name"] for v in doc["variables"]]
    weights = [v["degree"] for v in doc["variables"]]
    fld = field_of(doc)
    relators = [parse_poly(r, names) for r in doc["relators"]]
    ring = DenseRing(fld, weights, relators, D)
    varvecs = ring.variable_vectors()

    betti = [1]
    # stage 1: kernel of the augmentation R -> k is everything in degree >= 1
    source = FreeModule(ring, [0])
    kernel = {d: ([] if d == 0 else
                  [[fld.one() if j == i else fld.zero()
                    for j in range(ring.dim(d))] for i in range(ring.dim(d))])
              for d in range(D + 1)}

    for stage in range(1, N + 1):
        gens = []
        for d in range(0, D + 1):
            if not kernel[d]:
                continue
            below = []
            for w, vv in varvecs:
                for z in kernel.get(d - w, []):
                    below.append(source.scale_by_variable(d - w, z, w, vv))
            for z in _nakayama_new_generators(kernel[d], below, fld):
                gens.append((d, z))
        betti.append(len(gens))
        if stage == N:
            break
        # next map: free module on gens, entries = generator block slices
        target = source
        source = FreeModule(ring, [d for d, _ in gens])
        entries = []
        for d, z in gens:
            row = []
            off = 0
            for a in target.gdeg:
                n = ring.dim(d - a)
                block = z[off:off + n]
                off += n
                row.append(None if all(fld.is_zero(c) for c in block)
                           else block)
            entries.append(row)
        kernel = {}
        for d in range(D + 1):
            if source.dim(d) == 0:
                kernel[d] = []
                continue
            rows = map_matrix_rows(ring, source, target, entries, d)
            kernel[d] = kernel_basis(rows, source.dim(d), fld)
    return betti


# ---------------------------------------------------------------------------
# oracle 2: minimal generator count of H_1 of the Koszul complex


def _ideal_minimal_generators(doc, D):
    """Minimal generators of the defining ideal inside the free ring.

    Returns (free ring, list of (degree, coords over free.basis[degree])).
    """
    names = [v["name"] for v in doc["variables"]]
    weights = [v["degree"] for v in doc["variables"]]
    fld = field_of(doc)
    relators = [parse_poly(r, names) for r in doc["relators"]]
    free = DenseRing(fld, weights, [], D)
    ideal = {}
    for d in range(D + 1):
        vecs = []
        for f in relators:
            df = free.poly_degree(f)
            if df > d:
                continue
            for m in monomials_of_degree(weights, d - df):
                shifted = {tuple(a + b for a, b in zip(m, e)): c
                           for e, c in f.items()}
                vecs.append(free.reduce_poly(shifted, d))
        _, red = rref(vecs, fld) if vecs else ([], [])
        ideal[d] = red
    varvecs = free.variable_vectors()
    gens = []
    for d in range(D + 1):
        if not ideal[d]:
            continue
        below = []
        for w, vv in varvecs:
            for z in ideal.get(d - w, []):
                below.append(free.mult(w, vv, d - w, z))
        for z in _nakayama_new_generators(ideal[d], below, fld):
            gens.append((d, z))
    return free, gens


def koszul_h1_mu_oracle(doc, D):
    """Minimal generator count of H_1 of the Koszul complex on a
    minimal generating set of the defining ideal, certified through D.

    The complex lives over the free ring: its zeroth homology is the
    quotient, and its first homology measures non-Koszul relations
    among the generators (zero exactly when they form a regular
    sequence within the certified window).
    """
    fld = field_of(doc)
    ring, gens = _ideal_minimal_generators(doc, D)
    if not gens:
        return 0
    gdegs = [d for d, _ in gens]
    gvecs = [z for _, z in gens]

    k1 = FreeModule(ring, gdegs)
    k0 = FreeModule(ring, [0])
    d1_entries = [[gvecs[i]] for i in range(len(gens))]

    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    k2 = FreeModule(ring, [gdegs[i] + gdegs[j] for i, j in pairs])
    d2_entries = []
    for i, j in pairs:
        row = [None] * len(gens)
        row[j] = gvecs[i]
        row[i] = [fld.sub(fld.zero(), c) for c in gvecs[j]]
        d2_entries.append(row)

    varvecs = ring.variable_vectors()
    cycles = {}
    mu = 0
    for d in range(D + 1):
        if k1.dim(d) == 0:
            cycles[d] = []
            continue
        rows = map_matrix_rows(ring, k1, k0, d1_entries, d)
        Z = kernel_basis(rows, k1.dim(d), fld)
        cycles[d] = Z
        if not Z:
            continue
        spans = []
        if k2.dim(d) > 0:
            rows2 = map_matrix_rows(ring, k2, k1, d2_entries, d)
            for c in range(k2.dim(d)):
                spans.append([rows2[r][c] for r in range(k1.dim(d))])
        for w, vv in varvecs:
            for z in cycles.get(d - w, []):
                spans.append(k1.scale_by_variable(d - w, z, w, vv))
        mu += len(_nakayama_new_generators(Z, spans, fld))
    return mu


# ---------------------------------------------------------------------------
# oracle 3: deviations by inverting the Poincare product


def _series_mul(a, b, T):
    out = [Fraction(0)] * (T + 1)
    for i, x in enumerate(a):
        if i > T or x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > T:
                break
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def deviations_from_betti(betti, N):
    """Strip the product formula factor by factor; assert exact collapse.

    betti[0..N] are the Betti numbers; returns [eps_1 .. eps_N].
    """
    T = N
    q = [Fraction(b) for b in betti[:T + 1]]
    q += [Fraction(0)] * (T + 1 - len(q))
    assert q[0] == 1, "resolution must start with rank 1"
    eps = []
    for n in range(1, N + 1):
        e = q[n]
        assert e == int(e) and e >= 0, "non-integral deviation at %d" % n
        e = int(e)
        eps.append(e)
        if n % 2 == 1:
            # divide by (1+t^n)^e: multiply by the alternating inverse
            inv = [Fraction(0)] * (T + 1)
            for k in range(0, T + 1, n):
                inv[k] = Fraction((-1) ** (k // n))
            for _ in range(e):
                q = _series_mul(q, inv, T)
        else:
            factor = [Fraction(0)] * (T + 1)
            factor[0] = Fraction(1)
            if n <= T:
                factor[n] = Fraction(-1)
            for _ in range(e):
                q = _series_mul(q, factor, T)
    assert q[0] == 1 and all(c == 0 for c in q[1:]), \
        "product formula residue: %s" % (q,)
    return eps
