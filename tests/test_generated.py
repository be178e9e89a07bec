"""Both routes, the syzygy oracle, every kernel taken from the free
columns below against all rows and the kernel generators against an
elimination of the relators, on generated presentations.

Hypothesis draws small graded rings beyond the catalog: 2-3 variables of
weight 1-2 and 1-3 homogeneous monomial or binomial relators of degree
2-3, over Q, F_2, F_3 and F_5; a second term may carry the coefficient 2
or -3, so eliminations over Q meet non-unit pivots.  The strategy draws only
what the parser accepts: no monomial of a relator is linear, and no
relator vanishes in the field, since each keeps a term with coefficient 1.
"""

from unittest.mock import patch

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tatelab import linalg
from tatelab.audits import build_layer_chain
from tatelab.invariants import betti_numbers
from tatelab.presentations import Presentation, parse_presentation
from tatelab.resolution import (build_acyclic_closure, build_minimal_model,
                                kernel_generators)

from conftest import TOWER_INSTANCES, check_kernels, check_top_degree, load_doc
from oracles import betti_oracle
from reference import RefElement

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
                dd = RefElement.from_word(tower, w).differential().differential()
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


def with_pure_powers(doc):
    """The drawn ring with the square of every variable added: artinian, so
    the builders stop each stage at its top-degree bound."""
    return dict(doc, relators=doc["relators"] + ["%s^2" % v["name"] for v in doc["variables"]])


@seed(20261020)
@settings(max_examples=50, deadline=None, database=None)
@given(presentations())
def test_top_degree_bound_builds_the_unbounded_tower_on_generated_rings(doc):
    # the top degree agrees with DenseRing on the drawn ring and on its
    # artinian variant, and where it bounds a stage below D = 8, both
    # routes build the towers they build with it patched to None
    builds = ((build_acyclic_closure, N), (build_minimal_model, N - 1))
    for variant in (doc, with_pure_powers(doc)):
        if check_top_degree(variant, range(5)) is None:
            continue
        towers = [build(parse_presentation(variant), n, 8).dump() for build, n in builds]
        with patch.object(Presentation, "top_degree", lambda self, cap: None):
            assert [build(parse_presentation(variant), n, 8).dump()
                    for build, n in builds] == towers


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


def kernel_generators_by_rref(pres):
    """The kernel generators as an elimination finds them: in each degree
    2..top, the reduced echelon rows of the span of the relators beyond the
    base, reduced in the base, kept in pivot order when they are
    independent on full coordinates of the multiples found below and of
    the rows kept before them."""
    ground = pres.free_base()
    raw = [g for g in map(ground.from_int_poly, pres.relators[len(ground.relators):])
           if g]
    top = max((ground.degree_of(next(iter(g))) for g in raw), default=1)
    gens = []
    for d in range(2, top + 1):
        pivots, red = linalg.rref(ground.ideal_span(raw, d), ground.field)
        sub = linalg.Echelon(ground.field)
        for row in ground.ideal_span([g for _, g in gens], d):
            sub.add(row)
        for p in pivots:
            if sub.add(red[p]) is not None:
                basis = ground.quotient_basis(d)
                gens.append((d, {basis[i]: c for i, c in red[p].items()}))
    return gens


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_kernel_generators_match_the_rref_route(data):
    # the same generators, element by element and in order, over the
    # polynomial ring and over a declared base holding a prefix of the relators
    doc = data.draw(presentations())
    for cut in (0, data.draw(st.integers(0, len(doc["relators"])))):
        pres = parse_presentation(dict(doc, base_relators=doc["relators"][:cut]))
        assert kernel_generators(pres) == kernel_generators_by_rref(pres), cut


def test_tower_kernel_generators_match_the_rref_route():
    # R over Q, S over R and S over Q for every catalog tower
    count = 0
    for name in TOWER_INSTANCES:
        q, r, s = build_layer_chain(load_doc(name)["tower"])
        for pres in (r, s, Presentation(s.field, s.variables, s.relators, base=q)):
            gens = kernel_generators(pres)
            assert gens == kernel_generators_by_rref(pres), (name, pres)
            count += len(gens)
    assert count >= 9
