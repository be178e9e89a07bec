"""Theorem audits on concrete instances."""

import collections
import json
import random

import pytest

from tatelab import audits, invariants, linalg, resolution
from tatelab.audits import (AuditError, build_layer_chain, ci_vanishing_audit,
                            growth_probe, jacobi_zariski_audit,
                            rigidity_audit, verify_regular_witness)
from tatelab.cli import main
from tatelab.fields import field_from_spec
from tatelab.invariants import ci_check
from tatelab.presentations import Presentation, PresentationError, parse_polynomial

from conftest import load_doc, load_pres


def jz_layers(field_spec=None):
    doc = load_doc("tower_jz_q")
    if field_spec is not None:
        for layer in doc["tower"]:
            layer["field"] = field_spec
    return build_layer_chain(doc["tower"])


# -- rigidity -----------------------------------------------------------------

def test_rigidity_non_ci_never_revanishes():
    rep = rigidity_audit(load_pres("m2zero_q"), 6, 12)
    assert rep.passed
    assert rep.theorem == "rigidity-of-deviations"
    assert len(rep.checks) == 4          # decisive verdict + eps_4..eps_6
    assert rep.bounds == {"N": 6, "D": 12}


def test_rigidity_ci_vanishes_from_three():
    rep = rigidity_audit(load_pres("ci_q"), 6, 12)
    assert rep.passed
    assert any("eps_3" in c["assertion"] for c in rep.checks)


def test_rigidity_golod_instance():
    rep = rigidity_audit(load_pres("xsq_xy_q"), 6, 12)
    assert rep.passed


TOWER_BUILDERS = ("build_minimal_model", "build_acyclic_closure",
                  "koszul_complex", "koszul_on_minimal_generators")


@pytest.fixture
def towers_built(monkeypatch):
    """Names of the tower builders called, in order, under every import."""
    built = []
    for name in TOWER_BUILDERS:
        orig = getattr(resolution, name)

        def counting(*args, _orig=orig, _name=name):
            built.append(_name)
            return _orig(*args)

        for mod in (resolution, invariants, audits):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counting)
    return built


@pytest.mark.parametrize("name", ["ci_q", "m2zero_q", "hyp_f2"])
def test_ci_check_and_rigidity_build_one_model(towers_built, name):
    ci_check(load_pres(name), 12)
    assert towers_built == ["build_minimal_model"]
    rigidity_audit(load_pres(name), 6, 12)
    assert towers_built == ["build_minimal_model"] * 2


@pytest.mark.parametrize("N, message", [
    (1, "the minimal-model route starts at eps_2"), (0, "N must be >= 1")])
def test_rigidity_refuses_small_N(towers_built, N, message):
    with pytest.raises(ValueError, match=message):
        rigidity_audit(load_pres("m2zero_q"), N, 12)
    assert towers_built == []


def test_rigidity_report_json_is_stable():
    rep = rigidity_audit(load_pres("hyp_q"), 4, 10)
    doc1 = json.dumps(rep.to_json(), sort_keys=True)
    doc2 = json.dumps(rigidity_audit(load_pres("hyp_q"), 4, 10).to_json(),
                      sort_keys=True)
    assert doc1 == doc2


# -- growth probe -------------------------------------------------------------

def test_growth_probe_m2zero_flags_growth():
    rep = growth_probe(load_pres("m2zero_q"), 6, 12)
    assert rep.passed
    assert any("exponential" in note for note in rep.notes)


def test_growth_probe_ci_not_applicable():
    rep = growth_probe(load_pres("ci_q"), 6, 12)
    assert rep.passed
    assert any("not applicable" in note for note in rep.notes)


def test_growth_probe_asks_ci_over_the_polynomial_ring():
    # the deviations are the ring's own, so a declared base whose quotient
    # is a c.i. over it (here by z^2) must not make the probe inapplicable
    doc = {"field": {"type": "Q"}, "variables": [{"name": v, "degree": 1} for v in "xyz"],
           "relators": ["x^2", "x*y", "y^2", "z^2"]}
    over_r = Presentation.from_json(dict(doc, base_relators=["x^2", "x*y", "y^2"]))
    assert ci_check(over_r, 12).is_ci == "yes"
    plain = growth_probe(Presentation.from_json(doc), 6, 12)
    based = growth_probe(over_r, 6, 12)
    assert based.notes == plain.notes
    assert plain.notes[0] == "eps(1..6) = [3, 4, 2, 3, 6, 11]"
    assert "over quotient base" in based.instance


def test_growth_probe_small_window():
    rep = growth_probe(load_pres("m2zero_q"), 3, 8)
    assert rep.passed
    assert any("window too small" in note for note in rep.notes)


def test_growth_probe_never_certifies():
    rep = growth_probe(load_pres("xsq_xy_q"), 6, 12)
    assert rep.passed
    assert any("certifies nothing" in note for note in rep.notes)


# -- layer chains -------------------------------------------------------------

def test_layer_chain_validation():
    doc = load_doc("tower_jz_q")
    layers = build_layer_chain(doc["tower"])
    assert layers[0].relators == ()
    assert len(layers) == 3
    with pytest.raises(AuditError):
        build_layer_chain(doc["tower"][:2])
    broken = [dict(l) for l in doc["tower"]]
    broken[2] = dict(broken[2], relators=["z^2"])   # not an extension
    with pytest.raises(AuditError):
        build_layer_chain(broken)
    for variables in (5, [{"degree": 1}]):
        broken = [dict(l) for l in doc["tower"]]
        broken[1] = dict(broken[1], variables=variables)
        with pytest.raises(AuditError):
            build_layer_chain(broken)


@pytest.mark.parametrize("edit, message", [
    (lambda layer: 5, "presentation must be a JSON object"),
    (lambda layer: {k: v for k, v in layer.items() if k != "relators"},
     "presentation is missing 'relators'"),
    (lambda layer: {k: v for k, v in layer.items() if k != "field"},
     "presentation is missing 'field'"),
    (lambda layer: {k: v for k, v in layer.items() if k != "variables"},
     "presentation is missing 'variables'"),
    (lambda layer: dict(layer, relators=["y^2"]),
     "base relators are not a prefix of relators"),
], ids=["not-object", "no-relators", "no-field", "no-variables", "not-prefix"])
def test_tower_layer_parsed_like_an_instance(edit, message):
    tower = load_doc("tower_jz_q")["tower"]
    tower[1] = edit(tower[1])
    with pytest.raises(AuditError, match="^bad tower layer: %s$" % message):
        build_layer_chain(tower)


def test_tower_layer_base_relators_checked(tmp_path, capsys):
    doc = load_doc("tower_ci_q")
    path = tmp_path / "tower.json"
    for declared, code in ((["y^2"], 1), (["x^2"], 0)):
        doc["tower"][2]["base_relators"] = declared
        path.write_text(json.dumps(doc))
        assert main(["audit", "ci-vanishing", "--input", str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", "error: bad tower layer: base_relators "
                                      "contradict the layer below\n")
        else:
            assert err == "" and out.splitlines()[-1] == "PASS"


# -- witness verification -----------------------------------------------------

def test_witness_accepts_regular_element():
    _, r, s = jz_layers()
    verify_regular_witness(r, s, ["z^2"], 12)   # must not raise


def test_witness_rejects_wrong_span():
    _, r, s = jz_layers()
    with pytest.raises(AuditError):
        verify_regular_witness(r, s, ["z^3"], 12)


def test_witness_rejects_empty():
    _, r, s = jz_layers()
    with pytest.raises(AuditError):
        verify_regular_witness(r, s, [], 12)


def test_witness_rejects_zerodivisor():
    # x*z spans its ideal but x kills it in R, so the Hilbert product fails
    docs = [
        {"field": {"type": "Q"},
         "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1},
                       {"name": "z", "degree": 1}],
         "relators": []},
        {"field": {"type": "Q"},
         "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1},
                       {"name": "z", "degree": 1}],
         "relators": ["x^2", "x*y", "y^2"]},
        {"field": {"type": "Q"},
         "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1},
                       {"name": "z", "degree": 1}],
         "relators": ["x^2", "x*y", "y^2", "x*z"]},
    ]
    _, r, s = build_layer_chain(docs)
    with pytest.raises(AuditError) as err:
        verify_regular_witness(r, s, ["x*z"], 12)
    assert "witness" in str(err.value)


def witness_by_three_ranks(r, s, witness, D):
    """The witness check with the ideal equality decided by three ranks per
    degree, of span(witness), span(kernel) and their sum, the kernel being
    spanned by the relators of S beyond R; then the Hilbert product.
    Returns the refusal text, or None for an accepted witness."""
    wits = [r.from_int_poly(parse_polynomial(text, r.names)) for text in witness]
    kernel = [g for g in map(r.from_int_poly, s.relators[len(r.relators):]) if g]
    for d in range(D + 1):
        a, b = r.ideal_span(wits, d), r.ideal_span(kernel, d)
        if len({len(linalg.rref(rows, r.field)[0]) for rows in (a, b, a + b)}) > 1:
            return ("witness verification failed: witness ideal and kernel ideal "
                    "differ in internal degree %d" % d)
    degrees = [r.degree_of(next(iter(g))) for g in wits]
    if invariants.hilbert_product(r, degrees, D) != s.hilbert(D):
        return ("witness verification failed: Hilbert series of the quotient does "
                "not match the regular-sequence product through degree %d" % D)
    return None


def draw_witness_case(rng):
    """A seeded (R, S, witness, D): R and S = R/(extra) over x, y, z, and a
    witness of nonzero homogeneous forms of R, often the extra relators
    themselves, sometimes changed."""
    field = field_from_spec(rng.choice([{"type": "Q"}, {"type": "Fp", "p": 2},
                                        {"type": "Fp", "p": 3}]))
    ring = Presentation(field, [("x", 1), ("y", 1), ("z", rng.choice([1, 2]))], [])

    def form(d):
        monos = [m for m in ring.monomials(d) if sum(m) >= 2]
        return ring.poly_str({m: rng.choice([-1, 1, 2, 3])
                              for m in rng.sample(monos, min(len(monos), rng.randint(1, 3)))})

    def times_variable(text):
        shift = rng.choice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        return ring.poly_str({tuple(map(sum, zip(m, shift))): c for m, c
                              in parse_polynomial(text, ring.names).items()})

    while True:
        base = [form(rng.choice([2, 3])) for _ in range(rng.randint(0, 2))]
        extra = [form(rng.choice([2, 3, 4])) for _ in range(rng.randint(1, 2))]
        witness = list(extra)
        change = rng.randrange(5)
        if change == 1:
            witness[0] = form(rng.choice([2, 3]))
        elif change == 2:
            witness[-1] = times_variable(witness[-1])
        elif change == 3:
            witness.append(form(rng.choice([2, 3, 4])))
        elif change == 4 and len(witness) > 1:
            witness.pop()
        try:
            r = Presentation(field, ring.variables, base)
            s = Presentation(field, ring.variables, base + extra, base=r)
            wits = [r.from_int_poly(parse_polynomial(text, r.names)) for text in witness]
        except PresentationError:
            continue
        if all(wits):
            return r, s, witness, rng.randint(3, 6)


def test_witness_check_matches_three_ranks():
    # the witness lies in the kernel and has its rank in every degree
    # exactly when span(witness), span(kernel) and their sum have one rank,
    # and both checks refuse at the same first degree with the same text
    rng = random.Random(20261019)
    outcomes = collections.Counter()
    for _ in range(300):
        r, s, witness, D = draw_witness_case(rng)
        want = witness_by_three_ranks(r, s, witness, D)
        try:
            verify_regular_witness(r, s, witness, D)
            got = None
        except AuditError as exc:
            got = str(exc)
        assert got == want, (r.relators, s.relators, witness, D)
        outcomes[want and want.split(":")[1].split()[0]] += 1
    # accepted, refused on the ideal and refused on the Hilbert product
    assert set(outcomes) == {None, "witness", "Hilbert"} and min(outcomes.values()) >= 10, \
        outcomes


# -- Jacobi-Zariski descent ---------------------------------------------------

def test_jz_audit_passes_over_q():
    layers = jz_layers()
    rep = jacobi_zariski_audit(layers, ["z^2"], 2, 12)
    assert rep.passed
    assert rep.theorem == "jacobi-zariski-descent"
    observed = [c["observed"] for c in rep.checks]
    assert "0 <= 2" in observed
    assert "0 <= 6" in observed


def test_jz_audit_window_clipped_in_char_two():
    doc = load_doc("tower_jz_f2")
    layers = build_layer_chain(doc["tower"])
    rep = jacobi_zariski_audit(layers, ["z^2"], 2, 12)
    assert rep.passed
    # i = 2 needs rank D_4, outside the F_2 window: reported, not asserted
    outside = [c for c in rep.checks if "outside-window" in str(c["observed"])]
    assert len(outside) == 1


def test_jz_audit_rejects_bad_witness():
    layers = jz_layers()
    with pytest.raises(AuditError):
        jacobi_zariski_audit(layers, ["x*y"], 2, 12)


# -- c.i. vanishing -----------------------------------------------------------

def test_ci_vanishing_passes():
    doc = load_doc("tower_ci_q")
    layers = build_layer_chain(doc["tower"])
    rep = ci_vanishing_audit(layers, 5, 12)
    assert rep.passed
    assert rep.theorem == "ci-vanishing-of-cotangent-homology"
    assert len(rep.checks) == 3          # stages 3, 4, 5


def test_ci_vanishing_checks_N_before_building(towers_built):
    layers = build_layer_chain(load_doc("tower_ci_q")["tower"])
    with pytest.raises(AuditError, match="^N must be >= 3 to audit vanishing$"):
        ci_vanishing_audit(layers, 2, 12)
    assert towers_built == []


def test_ci_vanishing_identity_layer_vacuous():
    q = {"field": {"type": "Q"},
         "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
         "relators": []}
    r = dict(q, relators=["x^2"])
    s = dict(q, relators=["x^2"])        # S = R
    layers = build_layer_chain([q, r, s])
    rep = ci_vanishing_audit(layers, 5, 12)
    assert rep.passed


def test_ci_vanishing_precondition():
    q = {"field": {"type": "Q"},
         "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
         "relators": []}
    r = dict(q, relators=["x^2", "x*y", "y^2"])
    s = dict(q, relators=["x^2", "x*y", "y^2", "y^3"])
    layers = build_layer_chain([q, r, s])
    with pytest.raises(AuditError) as err:
        ci_vanishing_audit(layers, 5, 12)
    assert "precondition" in str(err.value)
