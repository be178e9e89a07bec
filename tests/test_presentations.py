import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tatelab.audits import build_layer_chain
from tatelab.fields import PrimeField, QQ
from tatelab.presentations import (Presentation, PresentationError, _is_name,
                                   parse_polynomial, parse_presentation)
from tatelab.resolution import build_acyclic_closure

from conftest import (NONUNIT_Q, RATE_DEGREES, SINGLE_INSTANCES, TOP_DEGREES,
                      TOWER_INSTANCES, check_top_degree, load_doc, load_pres)
from reference import multiply

VARS_XY = [("x", 1), ("y", 1)]


def P(relators, variables=VARS_XY, field=QQ, base=None):
    return Presentation(field, variables, relators, base=base)


# -- parsing ----------------------------------------------------------------

def test_parse_polynomial_basic():
    assert parse_polynomial("x^2", ("x", "y")) == {(2, 0): 1}
    assert parse_polynomial("x*y", ("x", "y")) == {(1, 1): 1}
    assert parse_polynomial("x^2 - 2*x*y + y^2", ("x", "y")) == \
        {(2, 0): 1, (1, 1): -2, (0, 2): 1}
    assert parse_polynomial("-x^2", ("x", "y")) == {(2, 0): -1}
    assert parse_polynomial("3*x*x", ("x", "y")) == {(2, 0): 3}


def test_parse_polynomial_cancellation():
    assert parse_polynomial("x^2 - x^2 + y^2", ("x", "y")) == {(0, 2): 1}


@pytest.mark.parametrize("bad", ["", "x + ", "z^2", "x^-1", "x^0*", "2*",
                                 "x^\u0662", "x^\u00b2", "\u0663*x^2"])
def test_parse_polynomial_rejects(bad):
    with pytest.raises(PresentationError):
        parse_polynomial(bad, ("x", "y"))


@st.composite
def drawn_polynomials(draw):
    """(names, text, dict): signed terms of ASCII coefficients and variable
    powers over drawn names, factors in any order and whitespace drawn
    between tokens; the dict sums like terms and drops zero sums."""
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,2}", fullmatch=True),
                          min_size=1, max_size=3, unique=True))
    tokens, want = [], {}
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        coeff = draw(st.none() | st.integers(0, 20))
        expo = tuple(draw(st.lists(st.integers(0, 3), min_size=len(names),
                                   max_size=len(names))))
        factors = [[str(coeff)]] if coeff is not None else []
        for nm, e in zip(names, expo):
            if e:
                factors.append([nm, "^", str(e)] if e > 1 or draw(st.booleans()) else [nm])
        tokens += [sign] if sign else []
        for j, factor in enumerate(draw(st.permutations(factors or [["1"]]))):
            tokens += ["*"] + factor if j else factor
        c = (-1 if sign == "-" else 1) * (1 if coeff is None else coeff)
        want[expo] = want.get(expo, 0) + c
    space = st.sampled_from(["", "", " ", "\t", "  "])
    text = "".join(draw(space) + t for t in tokens) + draw(space)
    return names, text, {m: c for m, c in want.items() if c}


@pytest.fixture(scope="module")
def catalog_rings():
    """Every catalog ring, tower layers included."""
    return [load_pres(name) for name in SINGLE_INSTANCES] + [
        pres for name in TOWER_INSTANCES
        for pres in build_layer_chain(load_doc(name)["tower"])]


# non-ASCII decimal digits, superscripts and the characters of the grammar
NOISE = st.text(st.sampled_from("xyz_0129\u0662\u0663\u00b2\u00b3 \t+-*^("), max_size=16)


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(drawn=drawn_polynomials(), noise=NOISE)
def test_parse_polynomial_grammar(catalog_rings, drawn, noise):
    names, text, want = drawn
    # (a) a drawn polynomial parses to the dict it was built from
    assert parse_polynomial(text, names) == want
    # (b) the printed form of the drawn polynomial and of every catalog
    # relator parses back to the same dict
    ring = Presentation(QQ, [(nm, 1) for nm in names], ())
    assert parse_polynomial(ring.poly_str(want), names) == want
    for pres in catalog_rings:
        for f in pres.relators:
            assert parse_polynomial(pres.poly_str(f), pres.names) == f
    # (c) any string is a dict or a PresentationError, never another error
    try:
        assert isinstance(parse_polynomial(noise, ("x", "y", "z")), dict)
    except PresentationError:
        pass


# -- validation -------------------------------------------------------------

def test_relator_must_be_homogeneous():
    with pytest.raises(PresentationError):
        P(["x^2 + y^3"])


def test_relator_degree_at_least_two():
    with pytest.raises(PresentationError):
        P(["x"])


def test_relator_no_linear_terms_weighted():
    # y alone has internal degree 2 here, but it is still a linear term
    with pytest.raises(PresentationError):
        P(["x^2 + y"], variables=[("x", 1), ("y", 2)])


def test_zero_relator_rejected():
    with pytest.raises(PresentationError):
        P(["x^2 - x^2"])


@pytest.mark.parametrize("relator", ["2*x + y^2", "2*x^3 + y^2", "y^2 + 4*x*y^5"])
def test_terms_that_vanish_in_the_field_are_dropped(relator):
    # over F_2 each relator is y^2: its zero terms count in no check, and
    # the stored relator is the reduced one
    f2 = PrimeField(2)
    assert P(["x^2", relator], field=f2).relators == ({(2, 0): 1}, {(0, 2): 1})
    doc = {"field": {"type": "Fp", "p": 2},
           "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
           "relators": ["y^2", "x^2"], "base_relators": [relator]}
    assert parse_presentation(doc).base.relators == ({(0, 2): 1},)
    with pytest.raises(PresentationError):
        P(["x^2", relator])


# the reference for _is_name: the pattern names were checked against
OLD_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
NAME_CASES = ["", "1x", "x\n", "\u00e9", "x\u00e9", "if", "None", "lambda", "_", "x_1",
              "X9", " x", "x y", "x-1", "\u0660", "x\u00b2", "\u212a"]


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(text=st.sampled_from(NAME_CASES)
       | st.text(alphabet="aZ_09 \n-\u00e9\u00aa\u00b2\u0660\u212a", max_size=5)
       | st.text(alphabet=st.characters(max_codepoint=0x3ff), max_size=6))
def test_name_check_accepts_what_the_old_pattern_did(text):
    # on ASCII text isidentifier() is exactly [A-Za-z_][A-Za-z_0-9]*, and a
    # name with anything else is refused by both
    assert _is_name(text) == bool(OLD_NAME.match(text))


def test_duplicate_variable_names_rejected():
    with pytest.raises(PresentationError):
        P([], variables=[("x", 1), ("x", 1)])


def test_one_polynomial_ring_per_instance_and_tower():
    # a relator-free declared base is the polynomial ring, shared with every
    # layer above it, and a quotient lists its ring's monomials
    pres = parse_presentation(load_doc("m2zero_q"))
    assert pres.polynomial_ring() is pres.free_base() is pres.base
    assert pres.monomials(3) is pres.base.monomials(3)
    q, r, s = build_layer_chain(load_doc("tower_jz_q")["tower"])
    assert r.polynomial_ring() is s.polynomial_ring() is q
    baseless = P(["x^2"])
    ring = baseless.polynomial_ring()
    assert ring.relators == () and ring is baseless.free_base()
    assert baseless.monomials(2) is ring.monomials(2) == ((2, 0), (1, 1), (0, 2))


def test_relator_free_normal_form_builds_no_degree_data():
    ring = P([])
    huge = (10 ** 20, 3)
    assert ring.reduce_monomial(huge) == {huge: 1}
    assert ring.normal_form({huge: 2, (0, 1): 1}) == {huge: 2, (0, 1): 1}
    assert not any(key[0] == "deg" for key in ring._cache)


def test_base_must_be_prefix():
    base = P(["x^2"])
    P(["x^2", "y^2"], base=base)  # fine
    with pytest.raises(PresentationError):
        P(["y^2", "x^2"], base=base)
    with pytest.raises(PresentationError):
        P(["y^2"], base=base)


def test_base_field_and_variables_must_match():
    base = P(["x^2"])
    with pytest.raises(PresentationError):
        Presentation(PrimeField(5), VARS_XY, ["x^2", "y^2"], base=base)
    with pytest.raises(PresentationError):
        Presentation(QQ, [("x", 1)], ["x^2"], base=base)


# -- monomial order and graded pieces ---------------------------------------

def test_monomials_descending_lex():
    p = P([])
    assert p.monomials(2) == ((2, 0), (1, 1), (0, 2))
    assert p.monomials(0) == ((0, 0),)


def test_monomials_weighted():
    p = P([], variables=[("x", 1), ("y", 2)])
    assert p.monomials(2) == ((2, 0), (0, 1))
    assert p.monomials(3) == ((3, 0), (1, 1))


def test_quotient_basis_m2zero():
    p = P(["x^2", "x*y", "y^2"])
    assert p.quotient_basis(0) == ((0, 0),)
    assert p.quotient_basis(1) == ((1, 0), (0, 1))
    assert p.quotient_basis(2) == ()
    assert p.hilbert(5) == [1, 2, 0, 0, 0, 0]


def test_quotient_basis_nontrivial_pivot():
    # relator x^2 - y^2: pivot on the lex-larger monomial x^2
    p = P(["x^2 - y^2"])
    assert p.quotient_basis(2) == ((1, 1), (0, 2))
    assert p.hilbert(4) == [1, 2, 2, 2, 2]


def test_hilbert_hypersurface_weighted():
    p = P(["x^4 + y^2"], variables=[("x", 1), ("y", 2)])
    assert p.hilbert(8) == [1, 1, 2, 2, 2, 2, 2, 2, 2]


# -- top degree ---------------------------------------------------------------

# weights 1 and 2: x^3*y, of degree 5, is the top monomial, and degrees 6
# and 7 are the first max(w) = 2 empty degrees in a row
WEIGHTED_ARTINIAN = {"field": {"type": "Q"},
                     "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
                     "relators": ["x^4", "y^2"], "base_relators": []}
TOP_DEGREE_DOCS = {**{name: load_doc(name) for name in SINGLE_INSTANCES},
                   "weighted_artinian": WEIGHTED_ARTINIAN, "nonunit_q": NONUNIT_Q}


@pytest.mark.parametrize("name", sorted(TOP_DEGREE_DOCS))
def test_top_degree_matches_dense_ring(name):
    known = {"weighted_artinian": 5, "nonunit_q": 2}.get(name, TOP_DEGREES.get(name))
    assert check_top_degree(TOP_DEGREE_DOCS[name], range(9), known) == known


def test_top_degree_reads_no_degree_past_the_first_nonzero_above_cap():
    # y^d never vanishes on k[x, y]/(x^2, x*y): cap 4 reads degrees 1..5
    p = P(["x^2", "x*y"])
    assert p.top_degree(4) is None
    assert max(key[1] for key in p._cache if key[0] == "deg") == 5


def test_top_degree_reads_no_degree_below_a_variable_above_cap(monkeypatch):
    # every variable is standard, so a variable of degree 10^9 puts the top
    # degree above any cap, and the helper says so before reading a degree
    def unread(self, d):
        raise AssertionError(d)

    p = P(["x^2"], variables=[("x", 1), ("y", 10 ** 9)])
    monkeypatch.setattr(Presentation, "_degree_data", unread)
    assert [p.top_degree(cap) for cap in (0, 4, 10 ** 9 - 1)] == [None] * 3


# -- deviation bound ------------------------------------------------------------

MONOMIAL_INSTANCES = [name for name in SINGLE_INSTANCES if RATE_DEGREES[name] is not None]


@pytest.mark.parametrize("name", MONOMIAL_INSTANCES)
def test_deviation_bound_holds_on_the_unbounded_closure(monkeypatch, name):
    # the bound is the least of n*s and Backelin's 1 + (m - 1)*(n - 1), s
    # and m read off the catalog, and the closure scanned through D with no
    # bound has every eps_{n,j} at or below it
    N, D = 6, 12
    pres = load_pres(name)
    monkeypatch.setattr(Presentation, "deviation_bound", lambda self, n, cap: None)
    closure = build_acyclic_closure(pres, N, D)
    monkeypatch.undo()
    s, m = TOP_DEGREES[name], RATE_DEGREES[name]
    for n in range(1, N + 1):
        bound = pres.deviation_bound(n, D)
        rate = 1 + (m - 1) * (n - 1)
        assert bound == (rate if s is None else min(rate, n * s)), n
        assert all(v.ideg <= bound for v in closure.variables_of_hdeg(n)), (n, bound)


def test_deviation_bound_needs_a_top_degree_or_weights_one_and_monomials():
    # neither bound: weights 1 and 2, a standard-graded binomial, and a
    # monomial ring with a variable of weight 2, none of them artinian
    assert load_pres("hyp_weighted_q").deviation_bound(3, 12) is None
    assert P(["x^2 + y^2"]).deviation_bound(3, 12) is None
    assert P(["x^2", "x*y"], variables=[("x", 1), ("y", 2)]).deviation_bound(3, 12) is None
    # one bound each: the top degree 5 of a weighted artinian ring and 2
    # of a binomial one, the rate bound on a polynomial ring (m = 2, Koszul)
    assert parse_presentation(WEIGHTED_ARTINIAN).deviation_bound(3, 12) == 15
    assert parse_presentation(NONUNIT_Q).deviation_bound(3, 12) == 6
    assert P([]).deviation_bound(3, 12) == 3
    # the lesser of the two, and a top degree above the cap is not seen:
    # x^2, y^2, x*y^3 has s = 2 and m = 4, so 3*s = 6 and 1 + 3*2 = 7
    pres = P(["x^2", "y^2", "x*y^3"])
    assert [pres.deviation_bound(3, cap) for cap in (1, 2)] == [7, 6]


# -- normal form and multiplication -----------------------------------------

def test_reduce_monomial_hypersurface():
    p = P(["x^2 - y^2"])
    # x^2 reduces to y^2; x^3 to x*y^2
    assert p.reduce_monomial((2, 0)) == {(0, 2): Fraction(1)}
    assert p.reduce_monomial((3, 0)) == {(1, 2): Fraction(1)}
    assert p.reduce_monomial((1, 1)) == {(1, 1): Fraction(1)}


def test_normal_form_kills_ideal():
    p = P(["x^2", "x*y", "y^2"])
    f = parse_polynomial("x^3 + 2*x*y - y^2", ("x", "y"))
    assert p.normal_form(p.from_int_poly(f)) == {}


def test_multiply_in_quotient():
    p = P(["x^2 - y^2"])
    x = p.from_int_poly(parse_polynomial("x", ("x", "y")))
    prod = multiply(p, x, x)
    assert prod == {(0, 2): Fraction(1)}


def _catalog_presentations():
    """Every catalog presentation, tower layers included: tower_jz_q's top
    layer sits over the quotient base k[x,y,z]/(x,y)^2."""
    for name in SINGLE_INSTANCES + TOWER_INSTANCES:
        doc = load_doc(name)
        yield from (build_layer_chain(doc["tower"]) if "tower" in doc
                    else [parse_presentation(doc)])


def test_ideal_span_rows_are_the_multiply_rows():
    # in the presentation, its free base and the polynomial ring, the
    # shifted, once-reduced rows equal the multiply({s: 1}, g) rows, entry
    # order included; the gens are the relators and a degree-2 element
    # with distinct coefficients, reduced in the ring
    shortened = 0
    for pres in _catalog_presentations():
        for ring in (pres, pres.free_base(), pres.polynomial_ring()):
            gens = [ring.from_int_poly(f) for f in pres.relators]
            gens.append(ring.from_int_poly({m: k + 2 for k, m in
                                            enumerate(ring.monomials(2))}))
            gens = [g for g in gens if g]
            for d in range(8):
                index = ring.basis_index(d)
                want = []
                for g in gens:
                    e = ring.degree_of(next(iter(g)))
                    for s in ring.quotient_basis(d - e) if e <= d else ():
                        prod = multiply(ring, {s: ring.field.one}, g)
                        shortened += len(prod) < len(g)
                        if prod:
                            want.append({index[m]: c for m, c in prod.items()})
                got = ring.ideal_span(gens, d)
                assert [list(r.items()) for r in got] == \
                    [list(r.items()) for r in want], (pres, ring, d)
    assert shortened > 0


@pytest.mark.parametrize("name", SINGLE_INSTANCES + TOWER_INSTANCES)
def test_shift_rows_are_the_multiply_products(name):
    # row i of shift(m, b) holds the coordinates of the reduced s_i * m, s_i
    # the i-th standard monomial of degree b, in the ring and its free base
    # through degree 6; over cidiag_f2 some shifts vanish, and over
    # hyp_weighted_q some reduce to other monomials
    doc = load_doc(name)
    vanish = reduced = 0
    for pres in build_layer_chain(doc["tower"]) if "tower" in doc else [parse_presentation(doc)]:
        for ring in (pres, pres.free_base()):
            one = ring.field.one
            for k in range(7):
                for m in ring.quotient_basis(k):
                    for b in range(7 - k):
                        rows = ring.shift(m, b)
                        basis = ring.quotient_basis(b)
                        index = ring.basis_index(b + k)
                        assert len(rows) == len(basis)
                        for s, row in zip(basis, rows):
                            prod = multiply(ring, {s: one}, {m: one})
                            assert dict(row) == {index[sm]: c for sm, c in prod.items()}, \
                                (ring, m, s)
                            vanish += not row
                            reduced += bool(row) and tuple(map(sum, zip(s, m))) not in prod
    if name == "cidiag_f2":
        assert vanish
    if name == "hyp_weighted_q":
        assert reduced


# -- serialization ----------------------------------------------------------

def test_json_roundtrip():
    doc = {
        "field": {"type": "Fp", "p": 5},
        "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
        "relators": ["x^4 + y^2"],
        "base_relators": [],
    }
    p = parse_presentation(doc)
    doc2 = p.to_json()
    p2 = parse_presentation(doc2)
    assert p2.field == p.field
    assert p2.variables == p.variables
    assert p2.relators == p.relators
    assert (p2.base is None) == (p.base is None)


def test_missing_keys_rejected():
    with pytest.raises(PresentationError):
        parse_presentation({"variables": [], "relators": []})


def test_poly_str_deterministic():
    p = P(["x^2", "x*y", "y^2"])
    f = p.from_int_poly(parse_polynomial("y^2 - x^2 + x*y", ("x", "y")))
    assert p.poly_str(f) == p.poly_str(dict(reversed(list(f.items()))))
