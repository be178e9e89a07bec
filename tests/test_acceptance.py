"""Acceptance gate: the eight primary criteria, one test (and one
pass/fail line under -v) per criterion.  Expected numbers come either
from closed-form facts about the instances or from the independent
oracles in oracles.py; nothing here is tuned to the implementation."""

import json
import math
import random

import pytest

from tatelab import (build_acyclic_closure, build_minimal_model,
                     deviations, betti_numbers, ci_check,
                     aq_ranks, poincare_from_deviations, parse_presentation,
                     koszul_on_minimal_generators)
from tatelab.cli import main
from tatelab.extensions import ExtensionTower
from tatelab.fields import PrimeField, QQ
from tatelab.presentations import Presentation, parse_polynomial

from conftest import SINGLE_INSTANCES, homology_dim, load_doc, load_pres
from oracles import betti_oracle, deviations_from_betti, koszul_h1_mu_oracle
from reference import RefElement, ref, variable_element

import test_cli


def done(n, text):
    print("[PASS] criterion %d: %s" % (n, text))


def test_criterion_1_hypersurface_profile():
    pres = load_pres("hyp_q")
    dev = deviations(pres, 8, 12, "acyclic-closure")
    assert [dev[n] for n in range(1, 7)] == [1, 1, 0, 0, 0, 0]
    betti = betti_numbers(pres, 8, 12)
    assert betti.counts[:7] == [1] * 7
    series = poincare_from_deviations(dev, 8)
    assert series == [1] * 9
    # the product formula and the resolution count must agree term by term
    assert series == betti.counts
    done(1, "hypersurface eps/betti/poincare profile")


def test_criterion_2_complete_intersection():
    pres = load_pres("ci_q")
    dev = deviations(pres, 6, 12, "acyclic-closure")
    assert dev[2] == 2
    assert all(dev[n] == 0 for n in range(3, 7))
    kos = koszul_on_minimal_generators(pres, 12)
    assert all(homology_dim(kos, 1, d) == 0 for d in range(13))
    assert ci_check(pres, 12).is_ci == "yes"
    table = aq_ranks(pres, 6, 12)
    assert table.window == "all n >= 2"
    for n, entry in table.entries.items():
        assert entry == {"rank": 0, "status": "certified"}, n
    done(2, "complete intersection (x^2, y^3)")


def test_criterion_3_m2zero_against_oracles():
    doc = load_doc("m2zero_q")
    pres = parse_presentation(doc)
    dev = deviations(pres, 6, 12, "acyclic-closure")
    assert dev[2] == 3
    assert dev[3] == 2
    assert dev[3] == koszul_h1_mu_oracle(doc, 12)
    assert all(dev[n] > 0 for n in range(4, 7))
    betti = betti_numbers(pres, 6, 12)
    assert betti.counts == [2 ** n for n in range(7)]
    assert betti.counts == betti_oracle(doc, 6, 12)
    assert poincare_from_deviations(dev, 6) == [1, 2, 4, 8, 16, 32, 64]
    done(3, "m^2 = 0 vs brute-force syzygy and Koszul oracles")


DICTIONARY_CATALOG = ["hyp_q", "ci_q", "m2zero_q", "m2zero_f5", "xsq_xy_q"]


def test_criterion_4_cotangent_dictionary():
    for name in DICTIONARY_CATALOG:
        doc = load_doc(name)
        pres = parse_presentation(doc)
        mu = ci_check(pres, 12).evidence["koszul_h1_mu"]
        eps3 = deviations(pres, 3, 12, "minimal-model")[3]
        # both read stage 2 of one model; the oracle is the independent check
        assert mu == eps3 == koszul_h1_mu_oracle(doc, 12), name
        table = aq_ranks(pres, 6, 12)
        assert table.entries[2] == {"rank": eps3, "status": "certified"}, name
    for name in ("hyp_f2", "m2zero_f2", "cidiag_f2"):
        table = aq_ranks(load_pres(name), 6, 12)
        assert table.window == "2 <= n <= 3", name
        for n in range(4, 7):
            assert table.entries[n] == {"status": "outside-window"}, (name, n)
            assert "rank" not in table.entries[n]
    done(4, "rank D_2 = eps_3 dictionary; F_2 requests n >= 4 refused")


def test_criterion_5_two_route_agreement_and_permutation():
    for name in SINGLE_INSTANCES:
        pres = load_pres(name)
        closure = deviations(pres, 6, 12, "acyclic-closure")
        model = deviations(pres, 6, 12, "minimal-model")
        for n in range(2, 7):
            assert closure[n] == model[n], (name, n)
    doc = load_doc("m2zero_q")
    perm = dict(doc,
                variables=list(reversed(doc["variables"])),
                relators=list(reversed(doc["relators"])))
    for route in ("acyclic-closure", "minimal-model"):
        before = deviations(parse_presentation(doc), 5, 12, route)
        after = deviations(parse_presentation(perm), 5, 12, route)
        assert before.counts == after.counts, route
    done(5, "model eps_n == closure eps_n on the catalog; permutation-stable")


def _square_zero_everywhere(tower):
    for n in range(1, tower.nmax + 1):
        for d in range(tower.dmax + 1):
            for word in tower.piece(n, d):
                el = RefElement.from_word(tower, word)
                assert el.differential().differential().is_zero(), (n, d, word)


def test_criterion_6_structural_invariants():
    for name in SINGLE_INSTANCES:
        pres = load_pres(name)
        unit = (0,) * len(pres.names)
        closure = build_acyclic_closure(pres, 4, 10)
        model = build_minimal_model(pres, 4, 10)
        _square_zero_everywhere(closure)
        _square_zero_everywhere(model)
        for v in model.variables:      # decomposable differentials
            for (mono, ext) in v.dval.terms:
                letters = sum(e for _, e in ext)
                assert mono != unit or letters >= 2, (name, v.name)
        for v in closure.variables:    # minimality: no bare-variable terms
            for (mono, ext) in v.dval.terms:
                letters = sum(e for _, e in ext)
                assert not (mono == unit and letters == 1), (name, v.name)
    rng = random.Random(4111)
    for field in (QQ, PrimeField(2), PrimeField(5)):
        g = Presentation(field, [("x", 1)], ["x^2"])
        t = ExtensionTower(g, "gamma", nmax=20, dmax=60)
        xel = t.ground_element(g.from_int_poly(parse_polynomial("x", g.names)))
        x1 = t.adjoin("x1", 1, 1, xel)
        v = t.adjoin("v", 2, 2, ref(xel) * variable_element(t, x1))
        def power(e):
            return RefElement.from_word(t, ((0,), ((v.index, e),)))
        for _ in range(10):
            i, j = rng.randrange(1, 7), rng.randrange(1, 7)
            c = field.from_int(math.comb(i + j, i))
            assert power(i) * power(j) == power(i + j).scale(c), (field, i, j)
        if getattr(field, "p", 0) == 2:
            a = variable_element(t, v)
            assert (a * a).is_zero()   # C(2,1) v^(2) = 0 in F_2
    done(6, "d^2 = 0, decomposability, minimality, divided-power laws")


def test_criterion_7_audits_pass_with_exit_zero(capsys):
    for kind, instance in (("rigidity", "m2zero_q"),
                           ("jacobi-zariski", "tower_jz_q"),
                           ("ci-vanishing", "tower_ci_q")):
        code = main(["audit", kind, "--input", test_cli.cat(instance)])
        out = capsys.readouterr().out
        assert code == 0, (kind, out)
        assert out.splitlines()[-1] == "PASS", kind
    done(7, "rigidity, jacobi-zariski, ci-vanishing audits exit 0")


def test_criterion_8_byte_reproducibility(capsys):
    commands = [
        ["deviations", "--input", test_cli.cat("m2zero_q"), "--format", "json"],
        ["ci-check", "--input", test_cli.cat("ci_q"), "--format", "json"],
        ["aq-ranks", "--input", test_cli.cat("m2zero_f2"), "--format", "json"],
        ["betti", "--input", test_cli.cat("xsq_xy_q"), "--format", "json"],
        ["poincare", "--input", test_cli.cat("hyp_q"), "--format", "json"],
        ["koszul-h1", "--input", test_cli.cat("ci_q"), "--format", "json"],
        ["model-print", "--input", test_cli.cat("m2zero_q")],
        ["audit", "rigidity", "--input", test_cli.cat("m2zero_q"),
         "--format", "json"],
        ["audit", "growth", "--input", test_cli.cat("xsq_xy_q"),
         "--format", "json"],
        ["audit", "jacobi-zariski", "--input", test_cli.cat("tower_jz_q"),
         "--format", "json"],
        ["audit", "ci-vanishing", "--input", test_cli.cat("tower_ci_q"),
         "--format", "json"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
        first = capsys.readouterr().out
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == first, argv
    done(8, "every command byte-reproducible across runs")
