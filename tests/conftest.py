import json
import os

import pytest

from tatelab import linalg, parse_presentation

CATALOG = os.path.join(os.path.dirname(__file__), "..", "catalog")

SINGLE_INSTANCES = [
    "hyp_q", "hyp_f2", "ci_q", "m2zero_q", "m2zero_f2", "m2zero_f5",
    "cidiag_f2", "xsq_xy_q", "hyp_weighted_q",
]

TOWER_INSTANCES = ["tower_ci_q", "tower_jz_q", "tower_jz_f2"]

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


@pytest.fixture(scope="session")
def catalog_docs():
    return {name: load_doc(name) for name in SINGLE_INSTANCES}


@pytest.fixture(scope="session")
def catalog_presentations(catalog_docs):
    return {name: parse_presentation(doc) for name, doc in catalog_docs.items()}
