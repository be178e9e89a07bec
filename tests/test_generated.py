"""Both routes, the syzygy oracle and every kernel taken from the free
columns below against all rows, on generated presentations.

Hypothesis draws small graded rings beyond the catalog: 2-3 variables of
weight 1-2 and 1-3 homogeneous monomial or binomial relators of degree
2-3, over Q, F_2, F_3 and F_5; a second term may carry the coefficient 2
or -3, so eliminations over Q meet non-unit pivots.  The strategy draws only
what the parser accepts: no monomial of a relator is linear, and no
relator vanishes in the field, since each keeps a term with coefficient 1.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tatelab.extensions import Element
from tatelab.invariants import betti_numbers
from tatelab.presentations import parse_presentation
from tatelab.resolution import build_acyclic_closure, build_minimal_model

from conftest import check_kernels
from oracles import betti_oracle

N, D = 4, 6
NAMES = "xyz"
FIELDS = [{"type": "Q"}, {"type": "Fp", "p": 2}, {"type": "Fp", "p": 3},
          {"type": "Fp", "p": 5}]


def monomials(weights, d):
    """Exponent tuples of weighted degree d."""
    if not weights:
        return [()] if d == 0 else []
    return [(e,) + rest for e in range(d // weights[0] + 1)
            for rest in monomials(weights[1:], d - e * weights[0])]


def mono_str(mono):
    return "*".join("%s^%d" % (NAMES[i], e) for i, e in enumerate(mono) if e)


@st.composite
def presentations(draw):
    # x has weight 1, so x^2 and x^3 exist and every relator degree is drawn
    weights = [1] + draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        # a lone weight-2 variable is a linear term: the parser refuses it
        monos = [m for m in monomials(weights, draw(st.integers(2, 3)))
                 if sum(m) >= 2]
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2,
                              unique=True))
        sign = draw(st.sampled_from(["+", "-", "+2*", "-3*"]))
        relators.append(sign.join(mono_str(m) for m in terms))
    return {"field": draw(st.sampled_from(FIELDS)),
            "variables": [{"name": NAMES[i], "degree": w}
                          for i, w in enumerate(weights)],
            "relators": relators, "base_relators": []}


def assert_d_squared_zero(tower, nmax):
    for n in range(nmax + 1):
        for d in range(D + 1):
            for w in tower.piece(n, d):
                dd = Element.from_word(tower, w).differential().differential()
                assert dd.is_zero(), (tower.flavor, n, d, tower.word_str(w))


@seed(20261018)
@settings(max_examples=50, deadline=None, database=None)
@given(presentations())
def test_routes_and_oracle_agree_on_generated_rings(doc):
    pres = parse_presentation(doc)
    closure = build_acyclic_closure(pres, N, D)
    model = build_minimal_model(pres, N - 1, D)
    for n in range(2, N + 1):
        assert (len(closure.variables_of_hdeg(n))
                == len(model.variables_of_hdeg(n - 1))), n
    assert betti_numbers(pres, N, D).counts == betti_oracle(doc, N, D)
    assert_d_squared_zero(closure, N + 1)
    assert_d_squared_zero(model, N)
    check_kernels(closure, N + 1, D)
    check_kernels(model, N, D)


def invariants(doc):
    """Bigraded deviations of both routes and the Betti numbers."""
    pres = parse_presentation(doc)
    towers = (build_acyclic_closure(pres, N, D), build_minimal_model(pres, N - 1, D))
    return ([sorted((v.hdeg, v.ideg) for v in t.variables) for t in towers],
            betti_numbers(pres, N, D).counts)


@seed(20261018)
@settings(max_examples=50, deadline=None, database=None)
@given(st.data())
def test_counts_invariant_under_permutation(data):
    doc = data.draw(presentations())
    nvars, nrels = len(doc["variables"]), len(doc["relators"])
    var_order = data.draw(st.permutations(range(nvars)))
    rel_order = data.draw(st.permutations(range(nrels)))
    permuted = dict(doc, variables=[doc["variables"][i] for i in var_order],
                    relators=[doc["relators"][i] for i in rel_order])
    assert invariants(permuted) == invariants(doc)
