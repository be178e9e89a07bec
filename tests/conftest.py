import json
import os

import pytest

from tatelab import parse_presentation

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


@pytest.fixture(scope="session")
def catalog_docs():
    return {name: load_doc(name) for name in SINGLE_INSTANCES}


@pytest.fixture(scope="session")
def catalog_presentations(catalog_docs):
    return {name: parse_presentation(doc) for name, doc in catalog_docs.items()}
