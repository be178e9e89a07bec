"""Deviation tables, Betti counts, Poincare series, c.i. verdicts, AQ ranks."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tatelab.fields import PrimeField, QQ
from tatelab.invariants import (DeviationTable, InsufficientCertification,
                                aq_ranks, betti_numbers, characteristic_window,
                                ci_check, deviations,
                                poincare_from_deviations)
from tatelab.presentations import parse_presentation

from conftest import SINGLE_INSTANCES, load_doc, load_pres
from oracles import betti_oracle, deviations_from_betti


# -- deviation tables ---------------------------------------------------------

def test_closure_route_hypersurface():
    t = deviations(load_pres("hyp_q"), 6, 12, "acyclic-closure")
    assert [t[n] for n in range(1, 7)] == [1, 1, 0, 0, 0, 0]


def test_model_route_starts_at_two():
    t = deviations(load_pres("hyp_q"), 6, 12, "minimal-model")
    assert sorted(t.counts) == [2, 3, 4, 5, 6]
    assert t[2] == 1
    with pytest.raises(KeyError):
        t[1]


def test_m2zero_both_routes():
    p = load_pres("m2zero_q")
    tc = deviations(p, 6, 12, "acyclic-closure")
    tm = deviations(p, 6, 12, "minimal-model")
    assert [tc[n] for n in range(1, 7)] == [2, 3, 2, 3, 6, 11]
    assert all(tm[n] == tc[n] for n in range(2, 7))


def test_two_route_agreement_whole_catalog(catalog_presentations):
    # D = 2 and 3 lie below relators of degree 3 and 4 (ci_q, hyp_weighted_q):
    # a stage-1 model variable above D must not count toward eps_2; the
    # routes agree degree by degree too (eps_{n,d})
    for name, pres in sorted(catalog_presentations.items()):
        for D in (2, 3, 12):
            tc = deviations(pres, 5, D, "acyclic-closure")
            tm = deviations(pres, 5, D, "minimal-model")
            for n in range(2, 6):
                assert tm[n] == tc[n], (name, D, n)
                assert sorted(tm.degrees[n]) == sorted(tc.degrees[n]), (name, D, n)


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        deviations(load_pres("hyp_q"), 4, 10, "shortest-path")


def test_table_json_shape():
    t = deviations(load_pres("hyp_q"), 3, 8, "acyclic-closure")
    doc = t.to_json()
    assert doc["route"] == "acyclic-closure"
    assert doc["N"] == 3 and doc["D"] == 8
    assert doc["deviations"]["2"] == {"count": 1, "certified_D": 8}


# -- Betti numbers ------------------------------------------------------------

def test_betti_hypersurface():
    assert betti_numbers(load_pres("hyp_q"), 8, 12).counts == [1] * 9


def test_betti_m2zero_doubling():
    assert betti_numbers(load_pres("m2zero_q"), 6, 12).counts == \
        [1, 2, 4, 8, 16, 32, 64]


def test_betti_ci_linear():
    assert betti_numbers(load_pres("ci_q"), 6, 12).counts == \
        [1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("name", SINGLE_INSTANCES)
def test_betti_matches_syzygy_oracle(name):
    doc = load_doc(name)
    assert betti_numbers(parse_presentation(doc), 6, 12).counts == \
        betti_oracle(doc, 6, 12)


@pytest.mark.parametrize("N, D", [(5, 8), (4, 4), (6, 3)])
@pytest.mark.parametrize("name", SINGLE_INSTANCES)
def test_betti_counts_words_through_D(name, N, D):
    # at small D the closure's words of homological degree <= N reach past
    # D; only those of internal degree <= D are counted, as the oracle's
    # resolution truncated at D counts them
    doc = load_doc(name)
    pres = parse_presentation(doc)
    want = betti_oracle(doc, N, D)
    assert betti_numbers(pres, N, D).counts == want
    assert poincare_from_deviations(deviations(pres, N, D), N) == want


# -- Poincare series ----------------------------------------------------------

def test_poincare_hypersurface_all_ones():
    t = deviations(load_pres("hyp_q"), 8, 12, "acyclic-closure")
    assert poincare_from_deviations(t, 8) == [1] * 9


def test_poincare_m2zero_powers_of_two():
    t = deviations(load_pres("m2zero_q"), 6, 12, "acyclic-closure")
    assert poincare_from_deviations(t, 6) == [1, 2, 4, 8, 16, 32, 64]


def test_poincare_refuses_uncertified_tail():
    t = deviations(load_pres("hyp_q"), 6, 12, "acyclic-closure")
    with pytest.raises(InsufficientCertification):
        poincare_from_deviations(t, 8)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 3), max_size=9))
def test_poincare_series_inverts_to_deviations(eps):
    # the oracle strips the product factor by factor, with Fractions; each
    # variable sits in internal degree n, so every word through t^9 lies
    # below D = 12 and the truncation at u^D drops nothing
    T = len(eps)
    table = DeviationTable("acyclic-closure", T, 12,
                           {n: [n] * e for n, e in enumerate(eps, 1)})
    assert deviations_from_betti(poincare_from_deviations(table, T), T) == eps


def test_poincare_matches_betti_on_catalog(catalog_presentations):
    for name, pres in sorted(catalog_presentations.items()):
        t = deviations(pres, 5, 12, "acyclic-closure")
        assert poincare_from_deviations(t, 5) == \
            betti_numbers(pres, 5, 12).counts, name


# -- c.i. verdicts ------------------------------------------------------------

@pytest.mark.parametrize("name,verdict", [
    ("hyp_q", "yes"), ("hyp_f2", "yes"), ("ci_q", "yes"),
    ("cidiag_f2", "yes"), ("hyp_weighted_q", "yes"),
    ("m2zero_q", "no"), ("m2zero_f2", "no"), ("m2zero_f5", "no"),
    ("xsq_xy_q", "no"),
])
def test_ci_verdicts(name, verdict):
    assert ci_check(load_pres(name), 12).is_ci == verdict


def test_ci_evidence_fields():
    v = ci_check(load_pres("ci_q"), 12)
    assert v.evidence["koszul_h1_mu"] == 0
    assert v.evidence["epsilon3"] == 0
    assert v.evidence["hilbert_match"] is True
    assert v.evidence["kernel_generators"] == 2
    assert v.flags == []
    assert v.to_json()["certified_D"] == 12


def test_ci_regular_homomorphism_flag():
    from tatelab.presentations import Presentation
    p = Presentation(QQ, [("x", 1), ("y", 1)], [])
    v = ci_check(p, 10)
    assert v.is_ci == "yes"
    assert "regular homomorphism" in v.flags


def test_d2_rank_frozen_values():
    # mu(H_1) of the Koszul complex on minimal generators is eps_3
    assert deviations(load_pres("ci_q"), 3, 12, "minimal-model")[3] == 0
    assert deviations(load_pres("m2zero_q"), 3, 12, "minimal-model")[3] == 2
    assert deviations(load_pres("xsq_xy_q"), 3, 12, "minimal-model")[3] == 1


# -- AQ rank dictionary -------------------------------------------------------

def test_characteristic_windows():
    assert characteristic_window(QQ) is None
    assert characteristic_window(PrimeField(2)) == 3
    assert characteristic_window(PrimeField(5)) == 9


def test_aq_ranks_rational_all_certified():
    tbl = aq_ranks(load_pres("m2zero_q"), 5, 12)
    assert tbl.window == "all n >= 2"
    assert tbl[2] == {"rank": 2, "status": "certified"}
    assert tbl[3] == {"rank": 3, "status": "certified"}
    assert tbl[4] == {"rank": 6, "status": "certified"}
    assert tbl[5] == {"rank": 11, "status": "certified"}


def test_aq_ranks_shifted_deviations():
    p = load_pres("xsq_xy_q")
    tbl = aq_ranks(p, 4, 12)
    dev = deviations(p, 5, 12, "acyclic-closure")
    for n in range(2, 5):
        assert tbl[n]["rank"] == dev[n + 1]


def test_aq_ranks_refused_outside_window_f2():
    tbl = aq_ranks(load_pres("m2zero_f2"), 6, 12)
    assert tbl.window == "2 <= n <= 3"
    assert tbl[2]["status"] == "certified"
    assert tbl[3]["status"] == "certified"
    for n in (4, 5, 6):
        assert tbl[n] == {"status": "outside-window"}
        assert "rank" not in tbl[n]


def test_aq_ranks_f5_window_boundary():
    tbl = aq_ranks(load_pres("m2zero_f5"), 6, 12)
    assert tbl.window == "2 <= n <= 9"
    assert all(tbl[n]["status"] == "certified" for n in range(2, 7))


def test_aq_ranks_vanish_for_ci():
    tbl = aq_ranks(load_pres("ci_q"), 5, 12)
    assert all(tbl[n]["rank"] == 0 for n in range(2, 6))
