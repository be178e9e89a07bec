"""Koszul complexes, homology dimensions, and staged tower construction."""

import collections
import copy
import json
import os
import random
from fractions import Fraction

import pytest

import tatelab
from tatelab import cli, linalg, resolution
from tatelab.audits import build_layer_chain
from tatelab.extensions import DIVIDED, POLYNOMIAL, Element, ExtensionTower
from tatelab.fields import PrimeField, QQ
from tatelab.presentations import Presentation, parse_presentation
from tatelab.resolution import (ResolutionError, build_acyclic_closure,
                                build_minimal_model, kernel_generators,
                                koszul_complex, koszul_on_minimal_generators,
                                minimal_generators)

from conftest import (CATALOG, NONUNIT_Q, RATE_DEGREES, SINGLE_INSTANCES, TOP_DEGREES,
                      check_kernel, check_kernels, homology_dim, load_doc, load_pres)
from oracles import betti_oracle, deviations_from_betti
from reference import RefElement, coords, ref, word_differential


def P(relators, variables=(("x", 1), ("y", 1)), field=QQ, base_relators=None):
    base = None
    if base_relators is not None:
        base = Presentation(field, list(variables), base_relators)
    return Presentation(field, list(variables), relators, base=base)


# -- kernel generators --------------------------------------------------------

def test_kernel_generators_minimal_set():
    p = P(["x^2", "x*y"], base_relators=[])
    gens = [(d, p.poly_str(g)) for d, g in kernel_generators(p)]
    assert gens == [(2, "x^2"), (2, "x*y")]


def test_kernel_generators_trim_redundant():
    # x^4 = x^2 * x^2 is not a minimal generator
    p = P(["x^2", "x^4"], base_relators=[])
    gens = [(d, p.poly_str(g)) for d, g in kernel_generators(p)]
    assert gens == [(2, "x^2")]


def test_kernel_generators_relative_to_base():
    p = P(["x^2", "y^2"], base_relators=["x^2"])
    gens = [(d, p.poly_str(g)) for d, g in kernel_generators(p)]
    assert gens == [(2, "y^2")]


def test_kernel_generators_reduce_over_base():
    # y^3 lies in (x^2, x*y, y^2), so the top layer adds nothing
    p = P(["x^2", "x*y", "y^2", "y^3"], base_relators=["x^2", "x*y", "y^2"])
    assert kernel_generators(p) == []


def test_kernel_generators_empty():
    assert kernel_generators(P([], base_relators=[])) == []


# -- Koszul complexes ---------------------------------------------------------

def test_koszul_complex_shape():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = koszul_complex(p, 12)
    assert [v.name for v in t.variables] == ["y1_1", "y1_2", "y1_3"]
    assert all(v.hdeg == 1 and v.ideg == 2 for v in t.variables)
    assert all(v.flavor == "exterior" for v in t.variables)


def test_koszul_complex_empty():
    t = koszul_complex(P([], base_relators=[]), 12)
    assert t.variables == []


def test_koszul_on_minimal_generators_trims():
    p = P(["x^2", "x^4"], base_relators=[])
    t = koszul_on_minimal_generators(p, 12)
    assert len(t.variables) == 1


def test_koszul_complex_is_the_model_stage_1():
    # every single instance lists its minimal kernel generators, in
    # kernel_generators' order, as its relators, so the Koszul complex on
    # the relators is stage 1 of the minimal model, names and all
    for name in SINGLE_INSTANCES:
        pres = load_pres(name)
        stage1 = [v for v in build_minimal_model(pres, 3, 12).dump() if v["hdeg"] == 1]
        assert koszul_complex(pres, 12).dump() == stage1, name


# -- flat base change ---------------------------------------------------------

def _with_z(doc, square):
    """doc's ring with a fresh variable z of weight 1, and with z^2 in its
    base and its relators when square is set."""
    out = dict(doc, variables=doc["variables"] + [{"name": "z", "degree": 1}])
    if square:
        out.update(relators=["z^2"] + doc["relators"], base_relators=["z^2"])
    return parse_presentation(out)


def _stage_degrees(tower, N):
    return [sorted(v.ideg for v in tower.variables_of_hdeg(n)) for n in range(1, N + 1)]


def test_deviations_are_stable_under_flat_base_change():
    # P[z] -> S[z] and P[z]/(z^2) -> S[z]/(z^2) are flat base changes of
    # P -> S, so their minimal models keep every stage's internal degrees,
    # and the closure gains only the deviations of k[z], one variable of
    # bidegree (1, 1), or of k[z]/(z^2), one more of bidegree (2, 2)
    N, D = 5, 8
    for name in SINGLE_INSTANCES:
        doc = load_doc(name)
        pres = parse_presentation(doc)
        model = _stage_degrees(build_minimal_model(pres, N, D), N)
        closure = _stage_degrees(build_acyclic_closure(pres, N, D), N)
        if name.startswith("m2zero"):
            assert [len(degs) for degs in model] == [3, 2, 3, 6, 11]
        for square in (False, True):
            ext = _with_z(doc, square)
            assert _stage_degrees(build_minimal_model(ext, N, D), N) == model, (name, square)
            gained = [[1], [2] if square else []] + [[]] * (N - 2)
            want = [sorted(degs + more) for degs, more in zip(closure, gained)]
            assert _stage_degrees(build_acyclic_closure(ext, N, D), N) == want, (name, square)


# -- homology dimensions ------------------------------------------------------

def test_homology_piece_x2_xy():
    p = P(["x^2", "x*y"], base_relators=[])
    t = koszul_complex(p, 12)
    assert homology_dim(t, 1, 3) == 1
    assert [str(z) for _, z in minimal_generators(t, 1, 3)] == ["y*y1_1 - x*y1_2"]


def test_package_exports_resolve():
    missing = [name for name in tatelab.__all__ if not hasattr(tatelab, name)]
    assert missing == []


def test_homology_vanishes_for_regular_sequence():
    p = P(["x^2", "y^3"], base_relators=[])
    t = koszul_complex(p, 12)
    for d in range(0, 13):
        assert homology_dim(t, 1, d) == 0, d
    for d in range(0, 13):
        assert homology_dim(t, 2, d) == 0, d


def test_homology_h0_is_quotient():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = koszul_complex(p, 12)
    assert homology_dim(t, 0, 0) == 1
    assert homology_dim(t, 0, 1) == 2
    assert homology_dim(t, 0, 2) == 0


def test_minimal_generators_of_koszul_h1():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = koszul_complex(p, 12)
    gens = minimal_generators(t, 1, 12)
    assert [d for d, _ in gens] == [3, 3]


def test_minimal_generators_single_for_x2_xy():
    p = P(["x^2", "x*y"], base_relators=[])
    t = koszul_complex(p, 12)
    gens = minimal_generators(t, 1, 12)
    assert len(gens) == 1
    assert gens[0][0] == 3


# -- minimal models -----------------------------------------------------------

def test_model_baseless_equals_empty_base():
    # a baseless presentation is read over its free polynomial base
    for rels in (["x^2"], ["x^2", "x*y", "y^2"]):
        assert build_minimal_model(P(rels), 4, 12).dump() == \
            build_minimal_model(P(rels, base_relators=[]), 4, 12).dump()
    with pytest.raises(ResolutionError, match="stage bound"):
        build_minimal_model(P(["x^2"]), 0, 12)


def test_model_hypersurface_stops_at_stage_one():
    p = P(["x^2"], variables=(("x", 1),), base_relators=[])
    t = build_minimal_model(p, 5, 12)
    assert [v.hdeg for v in t.variables] == [1]
    assert t.flavor == "plain"


def test_model_m2zero_stage_counts():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_minimal_model(p, 4, 12)
    by_hdeg = {}
    for v in t.variables:
        by_hdeg[v.hdeg] = by_hdeg.get(v.hdeg, 0) + 1
    assert by_hdeg == {1: 3, 2: 2, 3: 3, 4: 6}


def test_model_homology_killed_below_top():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_minimal_model(p, 3, 10)
    # after building stages through 3, homology vanishes in degrees 1, 2
    for n in (1, 2):
        for d in range(0, 11):
            assert homology_dim(t, n, d) == 0, (n, d)


def test_model_differentials_decomposable():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_minimal_model(p, 4, 12)
    unit = (0,) * len(p.names)
    for v in t.variables:
        for (mono, ext) in v.dval.terms:
            letters = sum(e for _, e in ext)
            assert mono != unit or letters >= 2, (v.name, mono, ext)


# -- acyclic closures ---------------------------------------------------------

def test_closure_hypersurface_gulliksen_pattern():
    p = P(["x^2"], variables=(("x", 1),), base_relators=[])
    t = build_acyclic_closure(p, 6, 12)
    assert [(v.hdeg, v.flavor) for v in t.variables] == \
        [(1, "exterior"), (2, "divided-power")]


def test_closure_m2zero_counts():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_acyclic_closure(p, 6, 12)
    by_hdeg = {}
    for v in t.variables:
        by_hdeg[v.hdeg] = by_hdeg.get(v.hdeg, 0) + 1
    assert by_hdeg == {1: 2, 2: 3, 3: 2, 4: 3, 5: 6, 6: 11}


def test_closure_stage_one_kills_variables():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_acyclic_closure(p, 2, 8)
    assert [v.name for v in t.variables if v.hdeg == 1] == ["x1_1", "x1_2"]
    assert str(t.variables[0].dval) == "x"
    assert str(t.variables[1].dval) == "y"


def test_closure_homology_killed_below_top():
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_acyclic_closure(p, 4, 10)
    for n in (1, 2, 3):
        for d in range(0, 11):
            assert homology_dim(t, n, d) == 0, (n, d)


def test_closure_minimality():
    # no differential value has a term that is a bare tower variable
    p = P(["x^2", "x*y", "y^2"], base_relators=[])
    t = build_acyclic_closure(p, 5, 12)
    unit = (0,) * len(p.names)
    for v in t.variables:
        if ref(v.dval).is_zero():
            continue
        for (mono, ext) in v.dval.terms:
            letters = sum(e for _, e in ext)
            assert not (mono == unit and letters == 1), (v.name, mono, ext)


def test_closure_gamma_flavor_in_char_two():
    p = P(["x^2"], variables=(("x", 1),), field=PrimeField(2),
          base_relators=[])
    t = build_acyclic_closure(p, 6, 12)
    # divided powers terminate the closure after homological degree 2
    assert [(v.hdeg, v.flavor) for v in t.variables] == \
        [(1, "exterior"), (2, "divided-power")]


# -- invariance ---------------------------------------------------------------

def test_counts_invariant_under_permutation():
    doc = {
        "field": {"type": "Q"},
        "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
        "relators": ["x^2", "x*y", "y^2"],
        "base_relators": [],
    }
    doc_perm = {
        "field": {"type": "Q"},
        "variables": [{"name": "y", "degree": 1}, {"name": "x", "degree": 1}],
        "relators": ["y^2", "x*y", "x^2"],
        "base_relators": [],
    }
    t1 = build_acyclic_closure(parse_presentation(doc), 5, 12)
    t2 = build_acyclic_closure(parse_presentation(doc_perm), 5, 12)
    c1 = sorted(v.hdeg for v in t1.variables)
    c2 = sorted(v.hdeg for v in t2.variables)
    assert c1 == c2


def test_construction_deterministic():
    p1 = P(["x^2", "x*y", "y^2"], base_relators=[])
    p2 = P(["x^2", "x*y", "y^2"], base_relators=[])
    t1 = build_acyclic_closure(p1, 4, 10)
    t2 = build_acyclic_closure(p2, 4, 10)
    assert [(v.name, v.hdeg, v.ideg, str(v.dval)) for v in t1.variables] == \
           [(v.name, v.hdeg, v.ideg, str(v.dval)) for v in t2.variables]


# -- each tower step against its longhand form ---------------------------------

TOWER_KINDS = [build_acyclic_closure, build_minimal_model]
LONGHAND = ["m2zero_f2", "xsq_xy_q", "hyp_weighted_q"]


def leibniz_by_products(t, word):
    """d(word) as the sum of (-1)^{|left|} k * left * d(v) * rest over the
    positions of the word, from ``RefElement`` products; k is the exponent e
    for a polynomial variable and 1 otherwise."""
    mono, ext = word
    unit = (0,) * len(mono)
    out = RefElement.zero(t)
    parity = 0
    for i, (idx, e) in enumerate(ext):
        v = t.variables[idx]
        rest = (((idx, e - 1),) if e > 1 else ()) + ext[i + 1:]
        term = (RefElement.from_word(t, (mono, ext[:i])) * v.dval
                * RefElement.from_word(t, (unit, rest)))
        if v.flavor == POLYNOMIAL:
            term = term.scale(t.field.from_int(e))
        out = out + (-term if parity % 2 else term)
        parity += e * v.hdeg
    return out


# m2zero_f5 and cidiag_f2 reach divided powers v^(e), e >= 2, in
# characteristic p; nonunit_q has non-unit coefficients; xz_over_jz_q is a
# model over a declared quotient base, where m * d(X) reduces for real
DIFFERENTIAL_RINGS = LONGHAND + ["m2zero_f5", "cidiag_f2", "nonunit_q",
                                 "xz_over_jz_q"]


def _pres(name):
    if name == "nonunit_q":
        return parse_presentation(NONUNIT_Q)
    if name == "xy_ysq_q":
        return parse_presentation(XY_YSQ_Q)
    if name == "xz_over_jz_q":
        layers = load_doc("tower_jz_q")["tower"]
        base = build_layer_chain(layers)[1]
        doc = dict(layers[2], relators=layers[1]["relators"] + ["x*z"])
        return Presentation.from_json(doc, base=base)
    return load_pres(name)


def _all_words(t, N, D):
    return [w for n in range(N + 2) for d in range(D + 1) for w in t.piece(n, d)]


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", DIFFERENTIAL_RINGS)
def test_word_differential_matches_element_products(name, build):
    t = build(_pres(name), 5, 10)
    words = _all_words(t, 5, 10)
    for w in words:
        assert word_differential(t, w) == leibniz_by_products(t, w), t.word_str(w)
    assert len(words) > 50


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
def test_pure_differentials_drop_the_products_that_vanish_mod_p(build):
    # over F_2 a Leibniz product can vanish: in the plain tower d(y^2) =
    # 2 * d(y) * y = 0, in the gamma tower a divided-power binomial such as
    # x^(1) * x^(1) = 2 * x^(2) does.  Every cached pure differential, read
    # by the matrices of the window, is the longhand word product
    N, D = 5, 10
    t = build(load_pres("m2zero_f2"), N, D)
    t._dwords.clear()
    for n in range(N + 2):
        for d in range(D + 1):
            t.matrix(n, d)
    vanishing = 0
    for (mono, ext), terms in t._dwords.items():
        assert terms == leibniz_by_products(t, (mono, ext)).terms, t.word_str((mono, ext))
        if ext:
            (idx, e), left = ext[-1], ext[:-1]
            v = t.variables[idx]
            k = e if v.flavor == POLYNOMIAL else 1
            vanishing += any(p is not None and k * p[1] % 2 == 0
                             for p in (t._merge(left, x) for _, x in v.dval.terms))
    assert vanishing


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", ["m2zero_f5", "xsq_xy_q", "xz_over_jz_q"])
def test_word_differential_from_a_cold_cache(name, build):
    # from an empty cache in shuffled order, a word may come before its
    # prefixes and its pure form
    t = build(_pres(name), 5, 10)
    words = _all_words(t, 5, 10)
    random.Random(20261018).shuffle(words)
    t._dwords.clear()
    for w in words:
        assert word_differential(t, w) == leibniz_by_products(t, w), t.word_str(w)


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", DIFFERENTIAL_RINGS)
def test_cycle_check_matches_the_reference_differential(name, build):
    # adjoin's cycle check reads the shift tables; the reference multiplies
    # words.  Every kernel vector of every piece is a cycle to both, and a
    # kernel vector or zero plus a word whose differential is nonzero is a
    # non-cycle to both; hyp_weighted_q and xz_over_jz_q reduce shifted
    # monomials into merges
    N, D = 4, 9
    t = build(_pres(name), N, D)
    rng = random.Random(20261020)
    non_cycles = 0
    for n in range(1, N + 2):
        for d in range(D + 1):
            kernel = linalg.Kernel(*t.matrix(n, d), t.field)
            cycles = [t.element(kernel.vector(f), n, d) for f in kernel.free]
            for z in cycles:
                assert t._is_cycle(z) and ref(z).differential().is_zero(), (n, d, str(z))
            moving = [w for w in t.piece(n, d) if word_differential(t, w).terms]
            for z in [Element.zero(t)] + cycles:
                for w in rng.sample(moving, min(3, len(moving))):
                    x = ref(z) + RefElement.from_word(t, w)
                    assert not t._is_cycle(x) and not x.differential().is_zero(), \
                        (n, d, str(x))
                    non_cycles += 1
    assert non_cycles >= 10


# cidiag_f2 and m2zero_f5 have ground degrees with no standard monomials
# and shifts that vanish; hyp_weighted_q reduces a shifted monomial to
# another, and over x*y = y^2 a reduced shift merges with a standard one
ASSEMBLY_RINGS = ["m2zero_q", "m2zero_f5", "cidiag_f2", "xz_over_jz_q",
                  "hyp_weighted_q", "xy_ysq_q"]
XY_YSQ_Q = dict(NONUNIT_Q, relators=["x*y - y^2"])


def _assembly_cases(t, n, d):
    """(vanishing shifts, merged shifts, terms with no target block) of the
    words of piece (n, d), counted from word differentials."""
    ground, unit = t.ground, (0,) * len(t.ground.names)
    target = t._layout(n - 1, d)[1]
    vanish = merged = missing = 0
    for mono, ext in t.piece(n, d):
        terms = word_differential(t, (unit, ext)).terms
        products = [ground.reduce_monomial(tuple(a + b for a, b in zip(mono, m)))
                    for m, _ in terms]
        vanish += sum(not p for p in products)
        merged += len(word_differential(t, (mono, ext)).terms) < sum(map(len, products))
        missing += sum(x not in target for _, x in terms)
    return vanish, merged, missing


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", ASSEMBLY_RINGS)
def test_block_assembly_matches_word_differentials(name, build):
    # each column is the coordinate vector of its word's differential, and
    # coordinates and elements invert each other on every word
    N, D = 5, 10
    t = build(_pres(name), N, D)
    one = t.field.one
    for n in range(N + 2):
        for d in range(D + 1):
            words = t.piece(n, d)
            cols, nrows = t.matrix(n, d)
            assert nrows == len(t.piece(n - 1, d))
            assert cols == [coords(t, word_differential(t, w), n - 1, d) for w in words]
            for i, w in enumerate(words):
                x = RefElement.from_word(t, w)
                assert coords(t, x, n, d) == {i: one}
                assert t.element(coords(t, x, n, d), n, d) == x


def test_block_assembly_rings_reach_every_case():
    # the rings above include vanishing shifts, shifts that merge and
    # differential terms whose target block is empty
    totals = [0, 0, 0]
    for name in ASSEMBLY_RINGS:
        for build in TOWER_KINDS:
            t = build(_pres(name), 5, 10)
            for n in range(1, 7):
                for d in range(11):
                    totals = [a + b for a, b in zip(totals, _assembly_cases(t, n, d))]
    assert all(totals), totals


@pytest.mark.parametrize("build, name", [(build_minimal_model, "m2zero_q"),
                                         (build_acyclic_closure, "m2zero_f5"),
                                         (build_minimal_model, "xz_over_jz_q")],
                         ids=["model-m2zero_q", "closure-m2zero_f5", "model-xz_over_jz_q"])
def test_matrix_caches_only_pure_word_differentials(build, name):
    # a block's columns are shifted from d(1 * X), the one differential it
    # caches; d(m * X) for m != 1 is never stored
    N, D = 5, 10
    t = build(_pres(name), N, D)
    t._dwords.clear()
    for n in range(N + 2):
        for d in range(D + 1):
            t.matrix(n, d)
    assert len(t._dwords) > 50
    assert not any(any(mono) for mono, _ in t._dwords)


SHIFT_RINGS = ["m2zero_q", "m2zero_f5", "xz_over_jz_q"]


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", SHIFT_RINGS)
def test_shifted_word_differential_is_the_element_product(name, build):
    # every multiple s*g of a generator is d(s*y) for the variable y
    # adjoined for g: the word product (s*1)*d(1*y) against the column of
    # s*y that the block assembly reads off the ring's shift tables
    pres, D = _pres(name), 10
    count = reduced = 0
    for q in range(1, 4):
        t = build(pres, q, D)
        ground = t.ground
        gens = minimal_generators(t, q, D)
        adjoined = t.variables_of_hdeg(q + 1)
        for d in range(D + 1):
            cols = t.matrix(q + 1, d)[0]
            blocks = {blk[0]: blk for blk in t._layout(q + 1, d)[0]}
            for (e, g), y in zip(gens, adjoined):
                ext = ((y.index, 1),)
                if e >= d or ext not in blocks:
                    continue
                _, b, off = blocks[ext]
                assert word_differential(t, (t._unit, ext)).terms == g.terms
                for i, s in enumerate(ground.quotient_basis(b)):
                    prod = word_differential(t, (s, ext))
                    assert coords(t, prod, q, d) == cols[off + i], (q, d, str(g))
                    count += 1
                    reduced += len(prod.terms) != len(g.terms)
    assert count >= 10
    if ground.relators:
        assert reduced


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", SHIFT_RINGS)
def test_towers_over_one_ring_share_its_shift_tables(name, build):
    # the shift tables belong to the ground ring: a second tower over the
    # same ring reads the tables the first one built and builds none
    pres = _pres(name)
    first = build(pres, 4, 10)
    ground = first.ground
    tables = {k: v for k, v in ground._cache.items() if k[0] == "shift"}
    second = build(pres, 4, 10)
    assert second.ground is ground and tables
    assert {k: v for k, v in ground._cache.items() if k[0] == "shift"} == tables
    assert second.dump() == first.dump()
    assert all(ground._cache[k] is v for k, v in tables.items())


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", SHIFT_RINGS)
def test_element_differential_is_the_termwise_sum(name, build):
    t = build(_pres(name), 4, 10)
    f = t.field
    rng = random.Random(20261018)
    words = [w for w in _all_words(t, 4, 10) if w[1]]
    for _ in range(40):
        terms = {w: f.from_int(rng.choice([-3, -1, 1, 2, 5]))
                 for w in rng.sample(words, 6)}
        terms = {w: c for w, c in terms.items() if not f.is_zero(c)}
        expect = RefElement.zero(t)
        for w, c in terms.items():
            expect = expect + word_differential(t, w).scale(c)
        assert RefElement(t, terms).differential() == expect
        # a cancelling sum: x - x has no terms left
        x = RefElement(t, terms)
        assert (x - x).differential().is_zero()


def test_oracle_rings_reach_what_the_shortcuts_skip():
    # the oracle rings exercise divided powers e >= 2 in characteristic p,
    # polynomial squares over Q and shifts that reduce over a quotient base
    def powers(t, flavor):
        return any(e >= 2 and t.variables[i].flavor == flavor
                   for _, ext in _all_words(t, 5, 10) for i, e in ext)

    assert powers(build_acyclic_closure(_pres("m2zero_f5"), 5, 10), DIVIDED)
    assert powers(build_acyclic_closure(_pres("cidiag_f2"), 5, 10), DIVIDED)
    t = build_minimal_model(_pres("xz_over_jz_q"), 5, 10)
    assert t.ground.relators and powers(t, POLYNOMIAL)
    unit = (0,) * len(t.ground.names)
    assert any(len(word_differential(t, w).terms)
               < len(word_differential(t, (unit, w[1])).terms)
               for w in _all_words(t, 5, 10) if w[1] and any(w[0]))


@pytest.mark.parametrize("build, name, N", [(build_minimal_model, "m2zero_q", 7),
                                            (build_acyclic_closure, "m2zero_f2", 10)],
                         ids=["model-m2zero_q", "closure-m2zero_f2"])
def test_one_word_product_per_term_of_the_last_differential(monkeypatch, build, name, N):
    # a word m * X shifts d(1 * X) and a pure word a * v^e extends d(a), so
    # the only products are a * w for the terms w of d(v), and since a has
    # monomial 1 they multiply extension parts alone: no word product.  The
    # shifts read the tables the build left in the ring, so reassembling the
    # pieces the build read reduces no monomial; over an artinian ground the
    # build stops short of D and leaves no tables for the pieces above
    D = 12
    visited = set()
    columns = ExtensionTower.columns

    def recorded(tower, n, d):
        visited.add((n, d))
        return columns(tower, n, d)

    monkeypatch.setattr(ExtensionTower, "columns", recorded)
    t = build(load_pres(name), N, D)
    monkeypatch.undo()
    t._dwords.clear()
    calls = []
    merge = t._merge

    def counting(e1, e2):
        calls.append(e1)
        return merge(e1, e2)

    monkeypatch.setattr(t, "_merge", counting)
    monkeypatch.setattr(t.ground, "reduce_monomial", None)
    for n, d in sorted(visited):
        t.matrix(n, d)
    pure = [ext for mono, ext in t._dwords if ext and not any(mono)]
    assert len(calls) == sum(len(t.variables[ext[-1][0]].dval.terms) for ext in pure)
    assert len(pure) > 100


def _rank(rows, field):
    return len(linalg.rref(rows, field)[0])


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", LONGHAND)
def test_generator_multiples_span_the_decomposables(name, build):
    """Boundaries plus ground-monomial multiples of the generators found
    below d span the same space as boundaries plus x_i * Z_{d - w_i}; once
    minimal_generators has adjoined stage q + 1, the columns of d_{q+1}
    span that space plus the generators of degree d."""
    pres, D = load_pres(name), 10
    for q in range(1, 5):
        t = build(pres, q, D)
        ground, one = t.ground, t.field.one
        # the boundaries of the tower through stage q, read before
        # minimal_generators adjoins the variables that make the multiples
        # boundaries too
        before = [t.matrix(q + 1, d)[0] for d in range(D + 1)]
        gens = minimal_generators(t, q, D)
        for d in range(D + 1):
            bounds = before[d]
            by_gens = [coords(t, ref(t.ground_element({s: one})) * g, q, d)
                       for e, g in gens if e < d
                       for s in ground.quotient_basis(d - e)]
            by_cycles = []
            for i, (_, w) in enumerate(ground.variables):
                x = t.ground_element({tuple(int(k == i) for k in
                                            range(len(ground.names))): one})
                by_cycles += [coords(t, ref(x) * t.element(z, q, d - w), q, d)
                              for z in t.solved(q, d - w)]
            a = _rank(bounds + by_gens, t.field)
            b = _rank(bounds + by_cycles, t.field)
            assert a == b == _rank(bounds + by_gens + by_cycles, t.field), \
                (q, d)
            # the columns of d_{q+1} now also hold the generators of degree d
            after = t.matrix(q + 1, d)[0]
            span = bounds + by_gens + [coords(t, g, q, d) for e, g in gens if e == d]
            assert _rank(after, t.field) == _rank(span, t.field) \
                == _rank(after + span, t.field), (q, d)


# -- one elimination per stage and internal degree ------------------------------

GUARDED = [(build_minimal_model, "m2zero_q"), (build_acyclic_closure, "m2zero_f2"),
           (build_minimal_model, "xsq_xy_q")]


def kernel_reach(build, name, N, D):
    """The internal degree through which every stage of a build over a
    catalog ring takes its kernels: D, or the bound of stage N, whose
    variables count eps_{N + lag}, lag 0 for the closure and 1 for the
    model over the polynomial ring.  That is (N + lag)*s where the ring
    has a top degree s, and 1 + (m - 1)*(N - 1 + lag) where its weights
    are 1 and its relators monomials of degree <= m, whichever is less."""
    lag = 1 if build is build_minimal_model else 0
    s, m = TOP_DEGREES[name], RATE_DEGREES[name]
    reach = D
    if s is not None:
        reach = min(reach, (N + lag) * s)
    if m is not None:
        reach = min(reach, 1 + (m - 1) * (N - 1 + lag))
    return reach


@pytest.fixture
def kernel_calls(monkeypatch):
    """Forward eliminations (Kernel constructions), kernels decided with no
    elimination (``Kernel.of_units``), the free columns of both and the
    kernel vectors solved from them."""
    calls = {"eliminations": 0, "decided": 0, "free": 0, "vectors": 0}
    init, of_units, vector = (linalg.Kernel.__init__, linalg.Kernel.of_units,
                              linalg.Kernel.vector)

    def counting_init(self, *args):
        init(self, *args)
        calls["eliminations"] += 1
        calls["free"] += len(self.free)

    def counting_of_units(free, field):
        calls["decided"] += 1
        calls["free"] += len(free)
        return of_units(free, field)

    def counting_vector(self, f):
        calls["vectors"] += 1
        return vector(self, f)

    monkeypatch.setattr(linalg.Kernel, "__init__", counting_init)
    monkeypatch.setattr(linalg.Kernel, "of_units", staticmethod(counting_of_units))
    monkeypatch.setattr(linalg.Kernel, "vector", counting_vector)
    return calls


@pytest.mark.parametrize("build, name", GUARDED,
                         ids=lambda x: getattr(x, "__name__", x))
def test_one_solve_per_stage_and_degree(kernel_calls, build, name):
    # stages 2..N each take the kernel out of (q, d) once per d and
    # eliminate it only where the counts leave it open: with H_{q-1} killed,
    # no cycles below make d_q zero and as many cycles below as words make
    # it injective; stage 2 reads no free list below d_1.  The boundaries
    # are read off the next matrix's columns unsolved
    N, D = 5, 10
    t = build(load_pres(name), N, D)
    counted = dict(kernel_calls)  # the solved() calls below eliminate too
    reach = kernel_reach(build, name, N, D)
    left_open = sum(q == 1 or len(t.solved(q - 1, d)) not in (0, len(t.piece(q, d)))
                    for q in range(1, N) for d in range(reach + 1))
    assert counted["eliminations"] == left_open
    assert counted["eliminations"] + counted["decided"] == (N - 1) * (reach + 1)
    if build is build_acyclic_closure:
        assert counted["decided"] > 0


@pytest.mark.parametrize("build, name", GUARDED,
                         ids=lambda x: getattr(x, "__name__", x))
def test_kernel_vectors_solved_only_for_new_generators(monkeypatch, kernel_calls,
                                                       build, name):
    # each stage solves one kernel vector per generator it picks, out of
    # many more free columns
    per_stage = []

    def counted(tower, q, *bounds):
        before = kernel_calls["vectors"]
        gens = minimal_generators(tower, q, *bounds)
        per_stage.append((kernel_calls["vectors"] - before, len(gens)))
        return gens

    monkeypatch.setattr(resolution, "minimal_generators", counted)
    build(load_pres(name), 5, 10)
    assert len(per_stage) == 4
    assert all(solved == picked for solved, picked in per_stage), per_stage
    assert 0 < kernel_calls["vectors"] < kernel_calls["free"]


@pytest.mark.parametrize("build, name", GUARDED,
                         ids=lambda x: getattr(x, "__name__", x))
def test_cached_pieces_match_a_fresh_enumeration(build, name):
    # adjoin drops only the pattern lists, layouts, kernel free lists and
    # acyclicity records a new variable reaches; whatever it keeps must
    # still be what an empty cache computes: the patterns of degree n in
    # the variables below n under (n - 1, cap), a free list from all rows
    # of the differential, and H_n = 0 in degree d from full eliminations,
    # the rank of d_{n+1} being the free count of d_n
    t = build(load_pres(name), 5, 10)
    cached = dict(t._cache)
    assert {key[0] for key in cached} == {"patterns", "layout", "free", "acyclic"}

    def kernel(n, d):
        return linalg.Kernel(*t.matrix(n, d), t.field)

    fresh = {"patterns": lambda n, cap: t._patterns(n + 1, cap), "layout": t._layout,
             "free": lambda n, d: kernel(n, d).free,
             "acyclic": lambda n, d: len(kernel(n + 1, d).pivots) == len(kernel(n, d).free)}
    for (kind, n, d), value in cached.items():
        t._cache.clear()
        assert fresh[kind](n, d) == value, (kind, n, d)


@pytest.mark.parametrize("build, name", GUARDED,
                         ids=lambda x: getattr(x, "__name__", x))
def test_adjoin_only_deletes(monkeypatch, build, name):
    # a builder reads pieces, kernels and acyclicity records between its
    # adjoins; each adjoin of bidegree (h, i) deletes the records keyed
    # (kind, n, d) with n >= h and d >= i, and leaves every other record
    # the same object with the same value: no edit in place, no copy
    adjoin = ExtensionTower.adjoin
    seen = collections.Counter()

    def checked(tower, name, hdeg, ideg, dval):
        before = dict(tower._cache)
        values = copy.deepcopy(before)
        var = adjoin(tower, name, hdeg, ideg, dval)
        kept = {k for k in before if k[1] < hdeg or k[2] < ideg}
        assert set(tower._cache) == kept, (hdeg, ideg)
        for key in kept:
            assert tower._cache[key] is before[key] and before[key] == values[key], key
            seen[key[0]] += 1
        return var

    monkeypatch.setattr(ExtensionTower, "adjoin", checked)
    build(load_pres(name), 5, 10)
    assert set(seen) == {"patterns", "layout", "free", "acyclic"}, seen


def test_adjoin_deletes_the_acyclicity_records_it_reaches():
    # H_1 = 0 recorded through degree 8 on the model of k[x]/(x^2); a
    # second variable of bidegree (1, 2) reaches degrees 2..8 of it only
    t = build_minimal_model(load_pres("hyp_q"), 1, 8)
    minimal_generators(t, 1, 8)
    t.adjoin("y", 1, 2, t.ground_element({(2,): t.field.one}))
    assert sorted(k for k in t._cache if k[0] == "acyclic") == [("acyclic", 1, 0),
                                                                 ("acyclic", 1, 1)]


def test_patterns_enumerated_once_per_degree_and_stage(monkeypatch, capsys):
    # the closure job deviations --N 10 on m2zero_f2 lays out 3854 blocks of
    # positive homological degree; a tower enumerates each degree's patterns
    # at most once, up to D, in the variables below that degree, and every
    # layout of that degree reads the lone patterns of its own variables
    # first, then filters the list
    enumerations = collections.Counter()
    leaves = 0
    patterns = ExtensionTower._patterns

    def counted(tower, n, cap):
        nonlocal leaves
        out = patterns(tower, n, cap)
        enumerations[(tower, n)] += 1
        leaves += len(out)
        return out

    monkeypatch.setattr(ExtensionTower, "_patterns", counted)
    code = cli.main(["deviations", "--input", os.path.join(CATALOG, "m2zero_f2.json"),
                     "--N", "10"])
    capsys.readouterr()
    assert code == 0
    assert enumerations and max(enumerations.values()) == 1, enumerations
    assert leaves < 3854


# -- kernels from the free columns of the differential below --------------------

@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", SINGLE_INSTANCES)
def test_kernels_from_free_rows_match_all_rows(monkeypatch, name, build):
    # every kernel a builder takes, each from the rows at the free columns
    # of the differential below, has the free columns and canonical vectors
    # of the kernel of all rows; so do the kernels out of the top stages,
    # where the homology below is not killed
    N, D = 5, 10
    taken = []
    kernel = ExtensionTower.kernel

    def checked(tower, n, d):
        got = kernel(tower, n, d)
        check_kernel(tower, n, d, got)
        taken.append((n, d))
        return got

    monkeypatch.setattr(ExtensionTower, "kernel", checked)
    t = build(load_pres(name), N, D)
    monkeypatch.undo()
    check_kernels(t, N + 1, D)
    assert len(taken) == (N - 1) * (kernel_reach(build, name, N, D) + 1)


def test_koszul_kernels_from_free_rows_match_all_rows():
    # H_1 of the Koszul complex on x^2, xy, y^2 is not zero, so some rows
    # at the free columns of d_1 are dependent; they still give the kernel
    t = koszul_complex(load_pres("m2zero_q"), 8)
    taken = check_kernels(t, 3, 8)
    assert any(rows is not None and len(rows) > rank for _, _, rows, rank in taken)


def test_count_rule_fires_only_where_acyclicity_is_recorded():
    # as many rows at the free columns below as words make d_n injective
    # only where H_{n-1} = 0 in degree d; every kernel must match the kernel
    # of all rows on towers where that is not recorded.  Koszul complex on
    # x^2, xy, y^2: H_1 != 0 in degree 3
    pres = load_pres("m2zero_q")
    check_kernels(koszul_complex(pres, 8), 3, 8)
    # H_1 killed through degree 3 only
    t = build_minimal_model(pres, 1, 12)
    minimal_generators(t, 1, 3)
    check_kernels(t, 2, 12)
    # H_1 killed through degree 2, then one cycle of degree 3 killed twice:
    # d_2 in degree 3 has as many words as cycles below, and a kernel
    d, z = minimal_generators(build_minimal_model(pres, 1, 12), 1, 3)[0]
    t = build_minimal_model(pres, 1, 12)
    minimal_generators(t, 1, 2)
    for name in ("w1", "w2"):
        t.adjoin(name, 2, d, Element(t, z.terms))
    taken = check_kernels(t, 2, 12)
    assert (2, 3, 2, 1) in [(n, e, len(rows), rank) for n, e, rows, rank in taken if rows]
    # H_1 = 0 recorded on the model of k[x]/(x^2), then a second variable
    # killing x^2 and a cycle w of bidegree (2, 2): the record must go
    t = build_minimal_model(load_pres("hyp_q"), 1, 8)
    minimal_generators(t, 1, 8)
    t.adjoin("y", 1, 2, t.ground_element({(2,): t.field.one}))
    t.adjoin("w", 2, 2, None)
    taken = check_kernels(t, 2, 8)
    assert (2, 2, 1, 0) in [(n, e, len(rows), rank) for n, e, rows, rank in taken if rows]


def test_adjoin_drops_the_free_lists_it_reaches():
    # builders take a kernel only once the variables below it are in; a
    # variable adjoined after a kernel was taken must drop the free lists
    # of the pieces it reaches, or the kernels above would read stale rows
    t = koszul_complex(load_pres("m2zero_q"), 8)
    check_kernels(t, 3, 8)
    # the cycle comes from a second build: minimal_generators adjoins its
    # own stage-2 variables, whose drops would hide a stale list
    d, z = minimal_generators(koszul_complex(load_pres("m2zero_q"), 8), 1, 8)[0]
    t.adjoin("w", 2, d, Element(t, z.terms))
    for (kind, n, e), value in list(t._cache.items()):
        if kind == "free":
            assert value == linalg.Kernel(*t.matrix(n, e), t.field).free, (n, e)
    for e in range(9):
        check_kernel(t, 3, e, t.kernel(3, e))


@pytest.mark.parametrize("which", ["koszul", "cleared"])
def test_kernel_takes_the_kernel_below_when_its_free_list_is_not_kept(monkeypatch,
                                                                      which):
    # a kernel taken with no free list of the differential below kept takes
    # the kernel below first and eliminates only its rows at the free
    # columns there; stage 1 eliminates all rows.  On the Koszul complex on
    # x^2, xy, y^2 and on a built model whose free lists are dropped
    pres = load_pres("m2zero_q")
    if which == "koszul":
        t = koszul_complex(pres, 8)
    else:
        t = build_minimal_model(pres, 4, 8)
        for key in [k for k in t._cache if k[0] == "free"]:
            del t._cache[key]
    kernel, init = ExtensionTower.kernel, linalg.Kernel.__init__
    taking, named, got = [], {}, {}

    def tracked(tower, n, d):
        taking.append((n, d))
        got[n, d] = kernel(tower, n, d)
        taking.pop()
        return got[n, d]

    def recording(self, cols, nrows, field, rows=None):
        named[taking[-1]] = rows
        init(self, cols, nrows, field, rows)

    monkeypatch.setattr(ExtensionTower, "kernel", tracked)
    monkeypatch.setattr(linalg.Kernel, "__init__", recording)
    for d in range(9):
        t.kernel(3, d)
    monkeypatch.undo()
    assert set(got) == {(n, d) for n in (1, 2, 3) for d in range(9)}
    assert any(n > 1 for n, _ in named), named
    for (n, d), rows in named.items():
        below = None if n == 1 else linalg.Kernel(*t.matrix(n - 1, d), t.field).free
        assert rows == below, (n, d)
    for (n, d), k in got.items():
        check_kernel(t, n, d, k)


def kernel_row_adds(monkeypatch):
    """[(n, d, rows eliminated, rank)] of every kernel eliminated out of
    (n, d), filled as the builders run."""
    stats = []
    taking = []
    adds = [0]
    kernel, init, add = ExtensionTower.kernel, linalg.Kernel.__init__, linalg.Echelon.add

    def tracked(tower, n, d):
        taking.append((n, d))
        try:
            return kernel(tower, n, d)
        finally:
            taking.pop()

    def counting_init(self, *args):
        before = adds[0]
        init(self, *args)
        stats.append(taking[-1] + (adds[0] - before, len(self.pivots)))

    def counting_add(self, v):
        adds[0] += 1
        return add(self, v)

    monkeypatch.setattr(ExtensionTower, "kernel", tracked)
    monkeypatch.setattr(linalg.Kernel, "__init__", counting_init)
    monkeypatch.setattr(linalg.Echelon, "add", counting_add)
    return stats


@pytest.mark.parametrize("build, name", GUARDED,
                         ids=lambda x: getattr(x, "__name__", x))
def test_builder_kernels_eliminate_a_row_basis(monkeypatch, build, name):
    # a builder takes the kernel out of (n, d), n >= 2, once stage n is in:
    # stage n killed H_{n-1} through D (above its scan by the theorems
    # behind the deviation bound), so the rows of d_n at the free columns
    # of d_{n-1} are a row basis and each row eliminated adds a pivot.  A
    # kernel out of (1, d) reads every row of the ground's degree d; a
    # later stage takes it above stage 2's bound, where d_1 need not map
    # onto every row: on xsq_xy_q the model's d_1 in degree 4 eliminates
    # 5 rows for rank 4, since y^4 is not zero in S
    stats = kernel_row_adds(monkeypatch)
    t = build(load_pres(name), 6, 10)
    assert stats and all(adds == rank for n, _, adds, rank in stats if n >= 2), stats
    assert all(adds == len(t.piece(0, d)) for n, d, adds, _ in stats if n == 1), stats


def test_model_job_kernels_eliminate_few_rows(monkeypatch, capsys):
    # the perfbench model_q minimal-model job: its kernels eliminate 1682
    # rows for rank 1679 (the 3 extra in d_1, whose rows are all read);
    # every row of every d_q would be 2693
    stats = kernel_row_adds(monkeypatch)
    code = cli.main(["deviations", "--route", "minimal-model", "--N", "8",
                     "--input", os.path.join(CATALOG, "m2zero_q.json")])
    capsys.readouterr()
    assert code == 0
    assert sum(adds for _, _, adds, _ in stats) <= 1682


def test_model_job_reduces_few_boundaries(monkeypatch, capsys):
    # the same job adds 3190 vectors to echelon spans outside its kernels;
    # with the generator multiples built apart from the boundaries it added
    # 3535
    stats = kernel_row_adds(monkeypatch)
    total = [0]
    add = linalg.Echelon.add

    def counting(self, v):
        total[0] += 1
        return add(self, v)

    monkeypatch.setattr(linalg.Echelon, "add", counting)
    code = cli.main(["deviations", "--route", "minimal-model", "--N", "8",
                     "--input", os.path.join(CATALOG, "m2zero_q.json")])
    capsys.readouterr()
    assert code == 0
    assert total[0] - sum(adds for _, _, adds, _ in stats) <= 3190


# the closure_fp and model_q jobs of perfbench/jobs.py, with the columns
# assembled, the eliminations and the pattern enumerations of each; every
# kernel used to be assembled and eliminated and every stage enumerated each
# degree's patterns anew: (4876, 117, 19) on each closure job, (10099, 78,
# 14) on the model job and (1637, 65, 12) on aq-ranks.  With every stage
# scanned through D, and not only to the bound the ground's top degree
# sets, they were (1816, 13, 11) on each closure job and (7316, 48, 8) on
# the model job; aq-ranks, on a ring with no top degree, was (1158, 43, 7)
# before Backelin's rate bound capped its stages too
BUILD_COUNTS = [
    ("m2zero_f2", ("deviations", "--N", "10"), (1816, 11, 11)),
    ("m2zero_f5", ("betti", "--N", "10"), (1816, 11, 11)),
    ("m2zero_q", ("deviations", "--route", "minimal-model", "--N", "8"), (650, 24, 8)),
    ("xsq_xy_q", ("aq-ranks",), (118, 18, 7)),
]


@pytest.mark.parametrize("instance, argv, want", BUILD_COUNTS,
                         ids=[b[0] + "-" + b[1][0] for b in BUILD_COUNTS])
def test_benchmark_jobs_build_only_what_a_stage_reads(monkeypatch, capsys, instance,
                                                      argv, want):
    counts = collections.Counter()
    columns, init, patterns = (ExtensionTower.columns, linalg.Kernel.__init__,
                               ExtensionTower._patterns)

    def counting_columns(tower, n, d):
        for col in columns(tower, n, d):
            counts["columns"] += 1
            yield col

    def counting_init(self, *args):
        counts["eliminations"] += 1
        init(self, *args)

    def counting_patterns(tower, n, cap):
        counts["patterns"] += 1
        return patterns(tower, n, cap)

    monkeypatch.setattr(ExtensionTower, "columns", counting_columns)
    monkeypatch.setattr(linalg.Kernel, "__init__", counting_init)
    monkeypatch.setattr(ExtensionTower, "_patterns", counting_patterns)
    code = cli.main(list(argv) + ["--input", os.path.join(CATALOG, instance + ".json")])
    capsys.readouterr()
    assert code == 0
    assert (counts["columns"], counts["eliminations"], counts["patterns"]) == want


# every single instance at the default N = 6, D = 12, then windows where a
# bound ends far below D: n*s on ci_q (s = 3) at D = 20 and on a deep
# m^2 = 0, Backelin's 1 + (m - 1)*(n - 1) = n on xsq_xy_q, which has no top
# degree, and on cidiag_f2, where it is less than n*s = 2n
CAPPED_WINDOWS = [(name, 6, 12) for name in SINGLE_INSTANCES] + [
    ("ci_q", 6, 20), ("m2zero_q", 12, 14), ("xsq_xy_q", 12, 20), ("cidiag_f2", 6, 20)]


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name, N, D", CAPPED_WINDOWS,
                         ids=["%s-%d-%d" % w for w in CAPPED_WINDOWS])
def test_top_degree_bound_builds_the_unbounded_tower(monkeypatch, name, N, D, build):
    # a stage stops picking at the ground's deviation bound, from its top
    # degree or from Backelin's rate bound, and the tower is the one a scan
    # of every degree through D builds
    capped = build(load_pres(name), N, D).dump()
    monkeypatch.setattr(Presentation, "deviation_bound", lambda self, n, cap: None)
    assert build(load_pres(name), N, D).dump() == capped


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
def test_builders_read_no_degree_of_a_variable_above_D(monkeypatch, build):
    # k[x, y]/(x^2) with deg y = 10^9: the variable y sits above the scan
    # cap D // (2 + lag), so the ring has no top degree there.  The model,
    # whose stage 1 kills x^2 over the polynomial ring, and the closure,
    # whose stage 1 kills y itself, a standard monomial of the ring, read
    # only the degrees through D, as they do without the bound
    degree_data = Presentation._degree_data

    def bounded(self, d):
        assert d <= 8, d
        return degree_data(self, d)

    monkeypatch.setattr(Presentation, "_degree_data", bounded)
    pres = P(["x^2"], variables=(("x", 1), ("y", 10 ** 9)))
    capped = build(pres, 4, 8).dump()
    monkeypatch.setattr(Presentation, "deviation_bound", lambda self, n, cap: None)
    assert build(pres, 4, 8).dump() == capped


def test_model_over_a_quotient_base_scans_through_D():
    # k[x]/(x^4) ->> k[x]/(x^2): x^2*y1 is a cycle, since x^4 = 0 in the base,
    # so eps_3(S|R) sits in degree 4, above the bound 3*s = 3 that the top
    # degree s = 1 of S puts on eps_3(S)
    pres = P(["x^4", "x^2"], variables=(("x", 1),), base_relators=["x^4"])
    t = build_minimal_model(pres, 3, 8)
    assert [(v.hdeg, v.ideg, str(v.dval)) for v in t.variables] == \
        [(1, 2, "x^2"), (2, 4, "x^2*y1_1")]


def test_deep_model_route_matches_the_betti_oracle(capsys):
    # m^2 = 0 in k[x, y] has b_n = 2^n; the model route through N = 10
    # must give the deviations eps_2..eps_10 the product formula reads off them
    code = cli.main(["deviations", "--route", "minimal-model", "--N", "10",
                     "--D", "12", "--input", os.path.join(CATALOG, "m2zero_q.json"),
                     "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    got = [doc["deviations"][str(n)]["count"] for n in range(2, 11)]
    assert got == deviations_from_betti([2 ** n for n in range(11)], 10)[1:]


# -- generator selection in free cycle coordinates ------------------------------

@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", ["m2zero_q", "m2zero_f2", "xsq_xy_q", "xz_over_jz_q"])
def test_minimal_generators_adjoin_their_variables(name, build):
    # on a tower built to stage q, minimal_generators adjoins one stage-(q+1)
    # variable per generator it returns, in order, named by the builder's
    # scheme, with the generator's degree and cycle; the tower is then the
    # one built to stage q + 1
    pres, D = _pres(name), 10
    letter = "x" if build is build_acyclic_closure else "y"
    count = 0
    for q in range(1, 5):
        t = build(pres, q, D)
        before = len(t.variables)
        gens = minimal_generators(t, q, D)
        added = t.variables[before:]
        assert [(v.name, v.hdeg, v.ideg) for v in added] == \
            [("%s%d_%d" % (letter, q + 1, i + 1), q + 1, d)
             for i, (d, _) in enumerate(gens)], q
        assert all(v.dval == z for v, (_, z) in zip(added, gens)), q
        assert t.dump() == build(pres, q + 1, D).dump(), q
        count += len(gens)
    assert count >= 4


def full_coordinate_generators(tower, q, D):
    """minimal_generators on full piece coordinates: an Echelon fed the
    boundary columns, the s*g multiples, then the ascending kernel vectors,
    keeping each kernel vector that adds a lead."""
    ground, one = tower.ground, tower.field.one
    gens = []
    for d in range(D + 1):
        sub = linalg.Echelon(tower.field)
        for b in tower.matrix(q + 1, d)[0]:
            sub.add(b)
        for e, g in gens:
            for s in ground.quotient_basis(d - e):
                sub.add(coords(tower, ref(tower.ground_element({s: one})) * g, q, d))
        for z in tower.solved(q, d):
            if sub.add(z) is not None:
                gens.append((d, tower.element(z, q, d)))
    return gens


SELECTION_RINGS = ["m2zero_f2", "m2zero_q", "xsq_xy_q", "hyp_weighted_q", "nonunit_q"]


@pytest.mark.parametrize("build", TOWER_KINDS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", SELECTION_RINGS)
def test_free_coordinate_selection_matches_full_coordinates(monkeypatch, name, build):
    # each stage q = 1..4 of the build is checked on the tower as it stands
    N, D = 5, 10
    stages = []

    def checked(tower, q, bound):
        # the reference reads d_{q+1} before minimal_generators adjoins stage
        # q + 1, and scans every degree through the build's D: the stage
        # bound drops no generator
        expect = full_coordinate_generators(tower, q, D)
        gens = minimal_generators(tower, q, bound)
        assert gens == expect, q
        stages.append(q)
        return gens

    monkeypatch.setattr(resolution, "minimal_generators", checked)
    build(_pres(name), N, D)
    assert stages == list(range(1, N))


# -- the ground ring's per-degree record ------------------------------------------

@pytest.mark.parametrize("name", ["m2zero_q", "ci_q"])
def test_towers_leave_one_record_per_degree_of_the_ground(name):
    # a closure and a model read the ground ring and its polynomial ring
    # through one (replacement, basis, index) record per degree and the shift
    # tables; the polynomial ring's monomials are its basis, one tuple
    doc = load_doc(name)
    pres = parse_presentation(doc)
    N, D = 4, 12
    eps = deviations_from_betti(betti_oracle(doc, N, D), N)
    closure = build_acyclic_closure(pres, N, D)
    assert [len(closure.variables_of_hdeg(n)) for n in range(1, N + 1)] == eps
    model = build_minimal_model(pres, N - 1, D)
    assert [len(model.variables_of_hdeg(n - 1)) for n in range(2, N + 1)] == eps[1:]
    ring = pres.polynomial_ring()
    for p in (pres, ring):
        kinds = {key[0] for key in p._cache}
        assert {"deg", "shift"} <= kinds <= {"deg", "shift", "free"}, p
    assert all(ring.quotient_basis(d) is ring.monomials(d) for d in range(D + 1))


# -- canonical scalars over Q ---------------------------------------------------

Q_RINGS = ["hyp_q", "ci_q", "m2zero_q", "xsq_xy_q", "hyp_weighted_q", "nonunit_q"]
Q_BUILDS = [lambda p: build_minimal_model(p, 4, 8),
            lambda p: build_acyclic_closure(p, 4, 8),
            lambda p: koszul_complex(p, 8),
            lambda p: koszul_on_minimal_generators(p, 8)]


def _canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("build", Q_BUILDS, ids=["model", "closure", "koszul",
                                                 "koszul-minimal"])
@pytest.mark.parametrize("name", Q_RINGS)
def test_rational_scalars_are_canonical(name, build):
    # an integral rational is an int; a Fraction always has denominator > 1
    t = build(_pres(name))
    for v in t.variables:
        assert all(map(_canonical, v.dval.terms.values())), v.name
    hmax = max(v.hdeg for v in t.variables) + 1
    for n in range(hmax + 1):
        for d in range(9):
            for z in t.solved(n, d):
                assert all(map(_canonical, z.values())), (n, d)
