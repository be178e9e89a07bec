import json
import os

import pytest

from tatelab import linalg, parse_presentation

from oracles import hilbert_oracle

CATALOG = os.path.join(os.path.dirname(__file__), "..", "catalog")

SINGLE_INSTANCES = [
    "hyp_q", "hyp_f2", "ci_q", "m2zero_q", "m2zero_f2", "m2zero_f5",
    "cidiag_f2", "xsq_xy_q", "hyp_weighted_q",
]

TOWER_INSTANCES = ["tower_ci_q", "tower_jz_q", "tower_jz_f2"]

# the top degree s of each single instance (R_d = 0 exactly for d > s), read
# off its relators: k[x]/(x^2) and m^2 = 0 stop at 1, x^2, y^2 at x*y, x^2,
# y^3 at x*y^2; x^2, x*y keeps every y^d, and x^4 + y^2 every x^d
TOP_DEGREES = {"hyp_q": 1, "hyp_f2": 1, "ci_q": 3, "m2zero_q": 1, "m2zero_f2": 1,
               "m2zero_f5": 1, "cidiag_f2": 2, "xsq_xy_q": None, "hyp_weighted_q": None}


def monomial_relator_degree(doc):
    """The largest relator degree m of a ring of weights 1 whose relators
    are monomials, read off the JSON strings ('x^2', 'x*y'), or None for
    any other ring; a relator-free ring of weights 1 gives 2."""
    if any(v["degree"] != 1 for v in doc["variables"]):
        return None
    degrees = []
    for f in doc["relators"]:
        if "+" in f or "-" in f:
            return None
        degrees.append(sum(int(e or 1) for name, _, e in
                           (factor.strip().partition("^") for factor in f.split("*"))
                           if not name.isdigit()))
    return max(degrees, default=2)


# a Q ring whose eliminations meet non-unit pivots and print non-integral
# coefficients
NONUNIT_Q = {"field": {"type": "Q"},
             "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
             "relators": ["2*x^2 - 3*y^2", "x*y"], "base_relators": []}


def load_doc(name):
    with open(os.path.join(CATALOG, name + ".json")) as fh:
        return json.load(fh)


def load_pres(name):
    return parse_presentation(load_doc(name))


# the m of monomial_relator_degree for each single instance: Backelin's rate
# bound puts eps_{n,j} = 0 above j = 1 + (m - 1)*(n - 1) where it is not None
RATE_DEGREES = {name: monomial_relator_degree(load_doc(name)) for name in SINGLE_INSTANCES}


def homology_dim(t, n, d):
    """dim H_n of tower t in internal degree d: cycles minus boundaries,
    the rank of d_{n+1} being its source dimension minus its nullity."""
    return len(t.solved(n, d)) - (len(t.piece(n + 1, d)) - len(t.solved(n + 1, d)))


def check_kernel(t, n, d, got):
    """Check the free columns and every canonical vector of kernel got of
    the differential out of (n, d) against a ``linalg.Kernel`` of all its
    rows, and return that kernel."""
    want = linalg.Kernel(*t.matrix(n, d), t.field)
    assert got.free == want.free, (n, d)
    for f in want.free:
        assert got.vector(f) == want.vector(f), (n, d, f)
    return want


def check_kernels(t, nmax, D):
    """``check_kernel`` on ``t.kernel(n, d)`` for every piece (n, d) of
    tower t, n = 1..nmax ascending.  Returns [(n, d, rows named, rank)],
    rows named being the free list below or None for all rows."""
    taken = []
    for n in range(1, nmax + 1):
        for d in range(D + 1):
            rows = t._cache.get(("free", n - 1, d))
            want = check_kernel(t, n, d, t.kernel(n, d))
            taken.append((n, d, rows, len(want.pivots)))
    return taken


def check_top_degree(doc, caps, known=None):
    """Presentation.top_degree against DenseRing dimensions for each cap: s
    is the least s <= cap whose max(w) degrees above are empty, the ring is
    zero in every degree above s up to three windows further, and the scan
    finds the top degree known whenever cap reaches it."""
    pres = parse_presentation(doc)
    wmax = max(pres.weights)
    dims = hilbert_oracle(doc, max(caps) + 3 * wmax)
    for cap in caps:
        s = pres.top_degree(cap)
        empty = [t for t in range(cap + 1) if not any(dims[t + 1:t + wmax + 1])]
        assert s == min(empty, default=None), cap
        if s is not None:
            assert (dims[s] or s == 0) and not any(dims[s + 1:]), cap
        if known is not None and cap >= known:
            assert s == known, cap
    return s


@pytest.fixture(scope="session")
def catalog_docs():
    return {name: load_doc(name) for name in SINGLE_INSTANCES}


@pytest.fixture(scope="session")
def catalog_presentations(catalog_docs):
    return {name: parse_presentation(doc) for name, doc in catalog_docs.items()}
