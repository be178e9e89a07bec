"""Tower algebra laws: signs, squares, divided powers, differentials."""

import ast
import gc
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import tatelab
from tatelab.extensions import DIVIDED, Element, ExtensionTower, TowerError
from tatelab.fields import PrimeField, QQ
from tatelab.invariants import betti_numbers
from tatelab.presentations import Presentation, parse_polynomial
from tatelab.resolution import build_acyclic_closure, build_minimal_model, koszul_complex

from conftest import load_pres
from reference import RefElement, mul_words, ref, variable_element


def ground_xy(field=QQ):
    return Presentation(field, [("x", 1), ("y", 1)], [])


def ground_poly(f, field=QQ):
    return Presentation(field, [("x", 1), ("y", 1)], f)


def koszul_xy(field=QQ, flavor="plain"):
    """Exterior variables killing x^2 and y^2 over the free ring."""
    g = ground_xy(field)
    t = ExtensionTower(g, flavor, nmax=6, dmax=12)
    for name, rel in (("y1", "x^2"), ("y2", "y^2")):
        f = g.from_int_poly(parse_polynomial(rel, g.names))
        t.adjoin(name, 1, 2, t.ground_element(f))
    return g, t


# -- multiplication ----------------------------------------------------------

def test_odd_variables_square_to_zero():
    for field in (QQ, PrimeField(2), PrimeField(5)):
        _, t = koszul_xy(field)
        a = variable_element(t, t.variables[0])
        assert (a * a).is_zero()


def test_odd_anticommute():
    _, t = koszul_xy()
    a = variable_element(t, t.variables[0])
    b = variable_element(t, t.variables[1])
    assert a * b == -(b * a)
    assert not (a * b).is_zero()


def test_koszul_differential_sign():
    # d(y1 y2) = (d y1) y2 - y1 (d y2) = x^2 y2 - y^2 y1
    g, t = koszul_xy()
    a = variable_element(t, t.variables[0])
    b = variable_element(t, t.variables[1])
    x2 = t.ground_element(g.from_int_poly(parse_polynomial("x^2", g.names)))
    y2 = t.ground_element(g.from_int_poly(parse_polynomial("y^2", g.names)))
    assert (a * b).differential() == ref(x2) * b - ref(y2) * a


def test_ground_multiplication_reduces():
    g = ground_poly(["x^2", "x*y", "y^2"])
    t = ExtensionTower(g, "gamma", nmax=4, dmax=8)
    x = t.ground_element(g.from_int_poly(parse_polynomial("x", g.names)))
    assert (ref(x) * ref(x)).is_zero()


def _gamma_tower(field, idim=2):
    """One even divided-power variable over a tiny hypersurface ground."""
    g = Presentation(field, [("x", 1)], ["x^2"])
    t = ExtensionTower(g, "gamma", nmax=20, dmax=60)
    f = g.from_int_poly(parse_polynomial("x^2", g.names))
    # x1 kills the variable, v sits in even degree with dval x*x1
    x1 = t.adjoin("x1", 1, 1, t.ground_element(
        g.from_int_poly(parse_polynomial("x", g.names))))
    xel = t.ground_element(g.from_int_poly(parse_polynomial("x", g.names)))
    v = t.adjoin("v", 2, idim, ref(xel) * variable_element(t, x1))
    return t, v


def gamma_power(t, v, e):
    word = ((0,) * len(t.ground.names), ((v.index, e),))
    return RefElement.from_word(t, word)


def test_divided_power_law_exact_binomials():
    t, v = _gamma_tower(QQ)
    # v^(2) * v^(3) = C(5,2) v^(5) = 10 v^(5)
    got = gamma_power(t, v, 2) * gamma_power(t, v, 3)
    want = gamma_power(t, v, 5).scale(QQ.from_int(10))
    assert got == want


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
def test_divided_power_law_randomized(field):
    rng = random.Random(1789)
    t, v = _gamma_tower(field)
    for _ in range(12):
        i = rng.randrange(1, 6)
        j = rng.randrange(1, 6)
        got = gamma_power(t, v, i) * gamma_power(t, v, j)
        c = field.from_int(math.comb(i + j, i))
        want = gamma_power(t, v, i + j).scale(c)
        assert got == want, (field, i, j)


def test_even_gamma_square_vanishes_mod_2():
    t, v = _gamma_tower(PrimeField(2))
    a = variable_element(t, v)
    assert (a * a).is_zero()          # C(2,1) = 2 = 0 in F_2
    assert not (gamma_power(t, v, 2)).is_zero()  # but v^(2) is a basis word


def test_plain_even_variable_is_polynomial():
    g = Presentation(QQ, [("x", 1)], ["x^2"])
    t = ExtensionTower(g, "plain", nmax=10, dmax=30)
    x1 = t.adjoin("x1", 1, 1, t.ground_element(
        g.from_int_poly(parse_polynomial("x", g.names))))
    xel = t.ground_element(g.from_int_poly(parse_polynomial("x", g.names)))
    v = t.adjoin("v", 2, 2, ref(xel) * variable_element(t, x1))
    a = variable_element(t, v)
    sq = a * a
    word = ((0,), ((v.index, 2),))
    assert sq == RefElement.from_word(t, word)   # v^2, coefficient 1


def test_multiplication_commutes_with_koszul_sign():
    rng = random.Random(99)
    _, t = koszul_xy()
    words = [w for d in range(0, 7) for w in t.piece(1, d)] + \
            [w for d in range(0, 7) for w in t.piece(2, d)]
    for _ in range(20):
        w1 = rng.choice(words)
        w2 = rng.choice(words)
        a = RefElement.from_word(t, w1)
        b = RefElement.from_word(t, w2)
        h1 = t.word_bidegree(w1)[0]
        h2 = t.word_bidegree(w2)[0]
        sign = -1 if (h1 % 2) and (h2 % 2) else 1
        lhs = a * b
        rhs = (b * a).scale(QQ.from_int(sign))
        assert lhs == rhs, (w1, w2)


def test_multiplication_associative_sampled():
    rng = random.Random(7)
    t, v = _gamma_tower(QQ)
    pool = [variable_element(t, t.variables[0]),
            gamma_power(t, v, 1), gamma_power(t, v, 2),
            ref(t.ground_element(t.ground.from_int_poly(
                parse_polynomial("x", t.ground.names))))]
    for _ in range(15):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def merge_by_sorting(t, e1, e2):
    """Reference for ``_merge``: sort the factors of e1 then e2 by variable
    with adjacent swaps, one sign per swap of two odd factors, then join
    equal neighbours; None for an odd square."""
    factors = list(e1) + list(e2)
    sign = 1
    for top in range(len(factors) - 1, 0, -1):
        for j in range(top):
            a, b = factors[j], factors[j + 1]
            if a[0] > b[0]:
                factors[j], factors[j + 1] = b, a
                if t.variables[a[0]].odd and t.variables[b[0]].odd:
                    sign = -sign
    out, coeff = [], sign
    for idx, e in factors:
        if out and out[-1][0] == idx:
            v = t.variables[idx]
            if v.odd:
                return None
            a = out[-1][1]
            if v.flavor == DIVIDED:
                coeff *= math.comb(a + e, a)
            out[-1] = (idx, a + e)
        else:
            out.append((idx, e))
    return tuple(out), coeff


@pytest.mark.parametrize("build, name", [(build_acyclic_closure, "m2zero_f5"),
                                         (build_minimal_model, "xsq_xy_q")],
                         ids=["closure-m2zero_f5", "model-xsq_xy_q"])
def test_merge_multiplies_extension_parts(build, name):
    # on every pair of extension patterns of the pieces through (4, 8), the
    # merge is the sorted product, and on words of monomial 1 the word
    # product is the merge with its coefficient read in the field
    t = build(load_pres(name), 4, 8)
    f, unit = t.field, (0,) * len(t.ground.names)
    exts = sorted({ext for n in range(5) for d in range(9) for _, ext in t.piece(n, d)})
    seen = {"empty": 0, "odd square": 0, "binomial": 0, "sign": 0}
    for e1 in exts:
        for e2 in exts:
            got = t._merge(e1, e2)
            assert got == merge_by_sorting(t, e1, e2), (e1, e2)
            product = mul_words(t, (unit, e1), (unit, e2))
            if got is None:
                seen["odd square"] += 1
                assert product == []
                continue
            ext, coeff = got
            c = f.from_int(coeff)
            assert product == ([] if f.is_zero(c) else [((unit, ext), c)]), (e1, e2)
            seen["empty"] += not e1 or not e2
            seen["binomial"] += abs(coeff) > 1
            seen["sign"] += coeff < 0
    if build is build_acyclic_closure:
        assert all(seen.values()), seen
    else:
        assert seen["empty"] and seen["odd square"] and seen["sign"], seen


def test_merge_of_empty_parts_and_divided_powers():
    t = build_acyclic_closure(load_pres("m2zero_f5"), 4, 8)
    x1, x2, v = (t.variables[i].index for i in (0, 1, 2))
    assert t.variables[v].flavor == DIVIDED
    pure = ((x1, 1), (v, 2))
    assert t._merge((), pure) == (pure, 1) and t._merge(pure, ()) == (pure, 1)
    assert t._merge(((x1, 1),), ((x1, 1),)) is None
    assert t._merge(((x2, 1),), ((x1, 1),)) == (((x1, 1), (x2, 1)), -1)
    assert t._merge(((x1, 1),), ((x2, 1),)) == (((x1, 1), (x2, 1)), 1)
    # x2 * v^(2) times x1 * v^(3): x1 passes x2, and v^(2) v^(3) = 10 v^(5),
    # which vanishes in F_5, so the word product is zero
    assert t._merge(((x2, 1), (v, 2)), ((x1, 1), (v, 3))) == (((x1, 1), (x2, 1), (v, 5)), -10)
    assert t._merge(((x1, 1), (v, 2)), ((x2, 1), (v, 3))) == (((x1, 1), (x2, 1), (v, 5)), 10)
    unit = (0,) * len(t.ground.names)
    assert mul_words(t, (unit, ((v, 2),)), (unit, ((v, 3),))) == []


# -- differentials -----------------------------------------------------------

def test_leibniz_rule_sampled():
    rng = random.Random(13)
    _, t = koszul_xy()
    words = [w for d in range(0, 7) for n in (0, 1, 2)
             for w in t.piece(n, d)]
    for _ in range(25):
        w1, w2 = rng.choice(words), rng.choice(words)
        a = RefElement.from_word(t, w1)
        b = RefElement.from_word(t, w2)
        h1 = t.word_bidegree(w1)[0]
        sign = QQ.from_int(-1 if h1 % 2 else 1)
        lhs = (a * b).differential()
        rhs = a.differential() * b + (a * b.differential()).scale(sign)
        assert lhs == rhs, (w1, w2)


def test_d_squared_zero_on_all_pieces():
    for field in (QQ, PrimeField(2)):
        t, v = _gamma_tower(field)
        for n in range(1, 8):
            for d in range(0, 16):
                for w in t.piece(n, d):
                    dd = RefElement.from_word(t, w).differential().differential()
                    assert dd.is_zero(), (field, n, d, w)


def test_divided_power_differential():
    # d(v^(e)) = (dv) v^(e-1)
    t, v = _gamma_tower(QQ)
    dv = ref(v.dval)
    for e in (2, 3, 4):
        got = gamma_power(t, v, e).differential()
        want = dv * gamma_power(t, v, e - 1)
        assert got == want


def test_plain_power_differential():
    # d(v^e) = e (dv) v^{e-1}
    g = Presentation(QQ, [("x", 1)], ["x^2"])
    t = ExtensionTower(g, "plain", nmax=10, dmax=30)
    x1 = t.adjoin("x1", 1, 1, t.ground_element(
        g.from_int_poly(parse_polynomial("x", g.names))))
    xel = t.ground_element(g.from_int_poly(parse_polynomial("x", g.names)))
    v = t.adjoin("v", 2, 2, ref(xel) * variable_element(t, x1))
    e = 3
    word = ((0,), ((v.index, e),))
    got = RefElement.from_word(t, word).differential()
    prev = RefElement.from_word(t, ((0,), ((v.index, e - 1),)))
    want = (ref(v.dval) * prev).scale(QQ.from_int(e))
    assert got == want


# -- pieces and bounds -------------------------------------------------------

def test_piece_enumeration_koszul():
    g, t = koszul_xy()
    monos = [t.word_str(w) for w in t.piece(1, 3)]
    assert sorted(monos) == ["x*y1", "x*y2", "y*y1", "y*y2"]
    # the order itself is part of the contract: repeated calls agree
    assert monos == [t.word_str(w) for w in t.piece(1, 3)]
    assert monos == ["x*y2", "y*y2", "x*y1", "y*y1"]
    assert t.piece(0, 0) == (((0, 0), ()),)
    assert t.piece(3, 6) == ()   # only two exterior variables exist


def brute_force_piece(t, n, d):
    """Every exponent pattern of homological degree n (exterior caps 1),
    paired with the ground basis in the leftover internal degree: exponents
    ascend per variable, the first variable varying slowest."""
    def patterns(i, h):
        if i == len(t.variables):
            if h == 0:
                yield ()
            return
        v = t.variables[i]
        top = h // v.hdeg
        if v.flavor == "exterior":
            top = min(top, 1)
        for e in range(top + 1):
            for rest in patterns(i + 1, h - e * v.hdeg):
                yield (((i, e),) if e else ()) + rest

    words = []
    for ext in patterns(0, n):
        left = d - sum(e * t.variables[i].ideg for i, e in ext)
        if left >= 0:
            words.extend((m, ext) for m in t.ground.quotient_basis(left))
    return tuple(words)


@pytest.mark.parametrize("name", ["m2zero_f2", "xsq_xy_q", "hyp_weighted_q"])
def test_piece_matches_brute_force(name):
    N, D = 5, 10
    pres = load_pres(name)
    for t in (build_acyclic_closure(pres, N, D), build_minimal_model(pres, N, D)):
        for n in range(N + 1):
            for d in range(D + 1):
                assert t.piece(n, d) == brute_force_piece(t, n, d), (t.flavor, n, d)


@pytest.mark.parametrize("dmax", [8, 20])
@pytest.mark.parametrize("flavor", ["plain", "gamma"])
def test_pieces_follow_interleaved_adjoins(flavor, dmax):
    # every piece is read between adjoins, so the cache holds pattern lists
    # and layouts when the next variable arrives: its hdeg lies below cached
    # homological degrees, and its ideg above some cached degrees read (0..8)
    # and, for the cap 8, above the cap of the cached pattern lists
    g = ground_poly(["x^2", "y^3"])
    t = ExtensionTower(g, flavor, nmax=5, dmax=dmax)
    for name, hdeg, ideg in [("a", 1, 1), ("b", 1, 2), ("c", 2, 3), ("d", 2, 1),
                             ("e", 3, 7), ("f", 3, 9), ("g", 4, 2)]:
        t.adjoin(name, hdeg, ideg, None)
        for n in range(7):
            for d in range(9):
                assert t.piece(n, d) == brute_force_piece(t, n, d), (name, n, d)


def test_pattern_enumeration_leaves_no_reference_cycle():
    # a process runs with the cyclic collector off, so an enumeration must
    # free what it allocates by reference counts alone: with the collector
    # off throughout, a collection afterwards finds nothing unreachable
    t = build_acyclic_closure(load_pres("m2zero_f2"), 6, 8)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        patterns = [t._patterns(n, 8) for n in range(1, 8)]
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0
    assert sum(map(len, patterns)) > 0


def test_deep_closure_betti_numbers_match_closed_form():
    # the stage-14 pieces sit behind about 1400 closure variables, and
    # enumeration recurses once per factor of a word, not per variable:
    # k[x,y]/(x,y)^2 has P(t) = 1/(1 - 2t)
    betti = betti_numbers(load_pres("m2zero_f2"), 14, 14)
    assert [betti[n] for n in range(15)] == [2 ** n for n in range(15)]


def test_piece_respects_ground_quotient():
    g = ground_poly(["x^2", "x*y", "y^2"])
    t = ExtensionTower(g, "gamma", nmax=4, dmax=8)
    # ground has nothing in degree 2, so the piece is empty
    assert t.piece(0, 2) == ()
    assert len(t.piece(0, 1)) == 2


def test_bounds_enforced():
    _, t = koszul_xy()
    with pytest.raises(TowerError):
        t.piece(8, 2)      # nmax + 2 > slack
    with pytest.raises(TowerError):
        t.piece(1, 13)


def test_mixed_tower_elements_rejected():
    _, t1 = koszul_xy()
    _, t2 = koszul_xy()
    a = variable_element(t1, t1.variables[0])
    b = variable_element(t2, t2.variables[0])
    with pytest.raises(TowerError):
        a + b
    with pytest.raises(TowerError):
        a * b


def test_adjoin_validation():
    g, t = koszul_xy()
    x2 = t.ground_element(g.from_int_poly(parse_polynomial("x^2", g.names)))
    with pytest.raises(TowerError):
        t.adjoin("bad", 0, 1, None)          # nonpositive degree
    with pytest.raises(TowerError):
        t.adjoin("bad", 1, 3, x2)            # bidegree mismatch (ideg 2 != 3)
    y1 = variable_element(t, t.variables[0])
    with pytest.raises(TowerError):
        t.adjoin("bad", 2, 2, y1)            # y1 is not a cycle


def test_adjoin_checks_cycles_on_words_with_a_monomial():
    # over Q[x, y]/(x^4 + y^2), deg y = 2: d(x^3 * x1 + y * x2) = x^4 + y^2
    # is zero only once x^4 and y^2 reduce in the ground ring, while
    # x^3 * x1 - y * x2 has d = 2 x^4 and is not a cycle
    t = build_acyclic_closure(load_pres("hyp_weighted_q"), 1, 8)
    g = t.ground
    x1, x2 = (variable_element(t, v) for v in t.variables)
    x3, y = (ref(t.ground_element(g.from_int_poly(parse_polynomial(m, g.names))))
             for m in ("x^3", "y"))
    with pytest.raises(TowerError, match="not a cycle"):
        t.adjoin("bad", 2, 4, x3 * x1 - y * x2)
    cycle = x3 * x1 + y * x2
    assert all(any(mono) for mono, _ in cycle.terms)
    v = t.adjoin("z", 2, 4, cycle)
    assert v.dval is cycle and t.variables[-1] is v


def test_adjoin_refuses_foreign_and_later_variables_before_the_cycle_check(monkeypatch):
    # both values index a variable the tower does not have yet, so a cycle
    # check that ran on them would fail with an IndexError, not refuse; a
    # value that is no Element, here its terms alone, is refused first
    g, t2 = koszul_xy()
    t1 = ExtensionTower(g, "plain", nmax=6, dmax=12)
    monkeypatch.setattr(t1, "_is_cycle", None)
    x = ref(t2.ground_element({(1, 0): QQ.one}))
    foreign = x * variable_element(t2, t2.variables[1])
    with pytest.raises(TowerError, match="belongs to a different tower"):
        t1.adjoin("bad", 2, 3, foreign)
    later = Element(t1, {((1, 0), ((len(t1.variables), 1),)): QQ.one})
    with pytest.raises(TowerError, match="uses later variables"):
        t1.adjoin("bad", 2, 3, later)
    with pytest.raises(TowerError, match="is a dict, not an Element"):
        t1.adjoin("bad", 2, 3, later.terms)
    assert t1.variables == []


def test_adjoin_refuses_a_value_that_is_not_reduced(monkeypatch):
    # in k[x, y]/(x, y)^2, x^2 = 0 and y^2 = 0 are not standard: x^2 * x1_1
    # is no word of the tower, though its differential x^3 reduces to zero,
    # and a ground value must be reduced too
    t = build_acyclic_closure(load_pres("m2zero_q"), 1, 6)
    monkeypatch.setattr(t, "_is_cycle", None)
    before = t.dump()
    one = t.field.one
    for word, hdeg, ideg in [(((2, 0), ((0, 1),)), 2, 3), (((0, 2), ()), 1, 2)]:
        with pytest.raises(TowerError, match=re.escape(
                "not reduced: %s is not a standard" % t.ground.mono_str(word[0]))):
            t.adjoin("bad", hdeg, ideg, Element(t, {word: one}))
    assert t.dump() == before


def test_adjoin_reads_no_degree_data_of_a_ground_value(monkeypatch):
    # over the polynomial ring every monomial is standard, and a ground
    # value has d = 0, so the Koszul variable of a relator of huge degree is
    # adjoined without listing the monomials of that degree
    degree_data = Presentation._degree_data

    def bounded(self, d):
        assert d <= 12, d
        return degree_data(self, d)

    monkeypatch.setattr(Presentation, "_degree_data", bounded)
    huge = 99999999999999999999
    pres = Presentation(QQ, [("x", 1), ("y", 1)], ["x^%d" % huge, "x*y"],
                        base=ground_xy())
    t = koszul_complex(pres, 12)
    assert [v.ideg for v in t.variables] == [huge, 2]


@pytest.mark.parametrize("name, scalar", [("m2zero_q", Fraction(0)), ("m2zero_q", "abc"),
                                          ("m2zero_f2", 0), ("m2zero_f2", 3)],
                         ids=["zero-Q", "foreign-Q", "zero-F2", "unreduced-F2"])
def test_adjoin_refuses_a_scalar_that_is_not_a_nonzero_field_element(name, scalar):
    # x * x1_1 is a cycle on the closure of m^2 = 0, and with a zero or a
    # non-field scalar it was adjoined and printed as 0*x*x1_1 or abc*x*x1_1
    t = build_acyclic_closure(load_pres(name), 1, 6)
    before = t.dump()
    with pytest.raises(TowerError, match="not a nonzero element"):
        t.adjoin("z", 2, 2, Element(t, {((1, 0), ((0, 1),)): scalar}))
    assert t.dump() == before
    t.adjoin("z", 2, 2, Element(t, {((1, 0), ((0, 1),)): t.field.one}))
    assert t.dump()[-1]["differential"] == "x*x1_1"


def test_adjoin_refuses_a_value_above_the_internal_bound_before_the_cycle_check():
    # x^(k-1)*y*x1 + x^k*x1 with k = 20000 over Q[x, y]: the cycle check
    # would build the shift tables of degree k, one row per monomial of that
    # degree; a ground value of the same degree is still taken
    t = ExtensionTower(ground_xy(), "gamma", dmax=8)
    t.adjoin("x1", 1, 1, t.ground_element({(1, 0): QQ.one}))
    k = 20000
    value = Element(t, {((k - 1, 1), ((0, 1),)): QQ.one, ((k, 0), ((0, 1),)): QQ.one})
    with pytest.raises(TowerError, match="exceeds the tower's internal bound 8"):
        t.adjoin("z", 2, k + 1, value)
    assert not [key for key in t.ground._cache if key[0] == "shift" and key[2] > 8]
    t.adjoin("y1", 1, k, t.ground_element({(k, 0): QQ.one}))
    assert [v.name for v in t.variables] == ["x1", "y1"]


def test_adjoin_weakly_increasing_hdeg():
    g, t = koszul_xy()
    x2 = t.ground_element(g.from_int_poly(parse_polynomial("x^2", g.names)))
    t.adjoin("w", 2, 4, None)    # zero differential value is a legal cycle
    with pytest.raises(TowerError):
        t.adjoin("late", 1, 2, x2)


def test_element_str_and_zero():
    _, t = koszul_xy()
    z = Element.zero(t)
    assert ref(z).is_zero()
    assert str(z) == "0"
    a = variable_element(t, t.variables[0])
    assert str(a) == "y1"


# names of the word product and the Element arithmetic, which live in the
# tests' reference module (reference.py)
REFERENCE_ONLY = {"_mul_words", "word_differential", "__mul__", "differential", "__add__",
                  "__neg__", "__sub__", "scale", "_check", "from_word", "is_zero",
                  "variable_element", "coords", "multiply"}


def test_one_differential_route_in_the_library():
    # the ground reduction of a monomial is read only inside the ground ring
    # (its shift tables and normal forms), and no library class defines the
    # word product or element arithmetic
    classes = {}
    for path in sorted(Path(tatelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "reduce_monomial":
                assert path.name == "presentations.py", (path.name, node.lineno)
            if isinstance(node, ast.ClassDef):
                classes[node.name] = {f.name for f in node.body
                                      if isinstance(f, ast.FunctionDef)}
    for name in ("Element", "ExtensionTower", "Presentation"):
        assert not classes[name] & REFERENCE_ONLY, (name, classes[name] & REFERENCE_ONLY)
