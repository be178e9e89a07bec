"""Command-line behaviour: exit codes, output formats, determinism."""

import collections
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from tatelab import linalg
from tatelab.audits import AuditReport
from tatelab.cli import COMMANDS, main
from tatelab.presentations import Presentation

from conftest import CATALOG, load_doc
from test_golden import TABLE_COMMANDS


def cat(name):
    return os.path.join(CATALOG, name + ".json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths ---------------------------------------------------------------

def test_deviations_table(capsys):
    code, out, err = run(capsys, "deviations", "--input", cat("m2zero_q"))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "deviations (route=acyclic-closure, N=6, D=12)"
    assert lines[1] == "  ε_1 = 2 (certified to internal degree 12)"
    assert lines[2] == "  ε_2 = 3 (certified to internal degree 12)"
    assert lines[6] == "  ε_6 = 11 (certified to internal degree 12)"
    assert len(lines) == 7


def test_deviations_json_model_route(capsys):
    code, out, err = run(capsys, "deviations", "--input", cat("hyp_q"),
                         "--route", "minimal-model", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "minimal-model"
    assert doc["deviations"]["2"] == {"count": 1, "certified_D": 12}
    assert all(doc["deviations"][str(n)]["count"] == 0 for n in range(3, 7))
    assert "1" not in doc["deviations"]     # the model route starts at eps_2


def test_ci_check_verdicts(capsys):
    code, out, _ = run(capsys, "ci-check", "--input", cat("ci_q"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_ci"] == "yes"
    assert doc["evidence"]["koszul_h1_mu"] == 0
    assert doc["evidence"]["hilbert_match"] is True
    assert doc["flags"] == []

    code, out, _ = run(capsys, "ci-check", "--input", cat("m2zero_q"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["is_ci"] == "no"


def test_ci_check_table(capsys):
    code, out, _ = run(capsys, "ci-check", "--input", cat("ci_q"))
    assert code == 0
    assert out.splitlines()[0] == "is_ci: yes (certified to internal degree 12)"
    assert "  koszul_h1_mu: 0" in out.splitlines()


def test_betti_table_hypersurface(capsys):
    code, out, _ = run(capsys, "betti", "--input", cat("hyp_q"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    for n, line in enumerate(lines):
        assert line == "  b_%d = 1 (certified to internal degree 12)" % n


def test_poincare_clamps_to_certified_window(capsys):
    code, out, _ = run(capsys, "poincare", "--input", cat("m2zero_q"),
                       "--T", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"D": 12, "T": 10, "certified_T": 6,
                   "poincare": [1, 2, 4, 8, 16, 32, 64]}


def test_poincare_table(capsys):
    code, out, _ = run(capsys, "poincare", "--input", cat("hyp_q"), "--T", "4")
    assert code == 0
    assert out.splitlines() == [
        "poincare coefficients through t^4 (certified to internal degree 12):",
        "  1, 1, 1, 1, 1",
    ]


def test_koszul_h1(capsys):
    code, out, _ = run(capsys, "koszul-h1", "--input", cat("xsq_xy_q"))
    assert code == 0
    assert out == "mu(H_1 of Koszul complex) = 1 (certified to internal degree 12)\n"


def test_aq_ranks_outside_window_marking(capsys):
    code, out, _ = run(capsys, "aq-ranks", "--input", cat("m2zero_f2"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cotangent ranks (window: 2 <= n <= 3)"
    assert lines[1] == "  rank D_2 = 2 (certified to internal degree 12)"
    assert lines[2] == "  rank D_3 = 3 (certified to internal degree 12)"
    assert lines[3:] == ["  rank D_%d: outside-window" % n for n in (4, 5, 6)]


def test_model_print_closure_route(capsys):
    code, out, _ = run(capsys, "model-print", "--input", cat("hyp_q"),
                       "--route", "acyclic-closure")
    assert code == 0
    doc = json.loads(out)
    assert doc == [
        {"name": "x1_1", "hdeg": 1, "idim": 1, "flavor": "exterior",
         "differential": "x"},
        {"name": "x2_1", "hdeg": 2, "idim": 2, "flavor": "divided-power",
         "differential": "x*x1_1"},
    ]


def test_model_print_defaults_to_model_over_declared_base(capsys):
    # catalog singles declare a free base, so the model route is the default
    code, out, _ = run(capsys, "model-print", "--input", cat("m2zero_q"))
    assert code == 0
    doc = json.loads(out)
    by_hdeg = {}
    for v in doc:
        by_hdeg[v["hdeg"]] = by_hdeg.get(v["hdeg"], 0) + 1
    assert by_hdeg == {1: 3, 2: 2, 3: 3, 4: 6, 5: 11, 6: 18}
    assert doc[0] == {"name": "y1_1", "hdeg": 1, "idim": 2,
                      "flavor": "exterior", "differential": "x^2"}
    assert all(v["flavor"] in ("exterior", "polynomial") for v in doc)


ABOVE_D = [
    ("minimal-model", {"field": {"type": "Q"}, "variables": [{"name": "x", "degree": 1}],
                       "relators": ["x^99999999999999999999"]}, []),
    ("acyclic-closure", {"field": {"type": "Q"},
                         "variables": [{"name": "x", "degree": 1}, {"name": "z", "degree": 20}],
                         "relators": ["x^2"]}, ["x1_1", "x2_1"]),
]


@pytest.mark.parametrize("route, doc, names", ABOVE_D, ids=[r for r, _, _ in ABOVE_D])
def test_model_print_stops_at_D(tmp_path, capsys, route, doc, names):
    # a stage-1 variable above D (the huge relator's, the degree-20 ring
    # variable's) is not printed, so the dump lists exactly the variables
    # that deviations counts through D
    path = _write_doc(tmp_path, doc)
    code, out, _ = run(capsys, "model-print", "--route", route, "--N", "3", "--input", path)
    assert code == 0
    dump = json.loads(out)
    assert [v["name"] for v in dump] == names
    code, out, _ = run(capsys, "deviations", "--route", route, "--N", "3",
                       "--format", "json", "--input", path)
    counts = {int(n): c["count"] for n, c in json.loads(out)["deviations"].items()}
    assert counts == {n: sum(v["hdeg"] == n for v in dump) for n in counts}


# -- audits through the front end ----------------------------------------------

def test_audit_rigidity_pass(capsys):
    code, out, _ = run(capsys, "audit", "rigidity", "--input", cat("m2zero_q"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "audit: rigidity-of-deviations"
    assert lines[-1] == "PASS"
    assert all(line.startswith("  [ok]") for line in lines[2:-1])


def test_audit_jacobi_zariski_pass_json(capsys):
    code, out, _ = run(capsys, "audit", "jacobi-zariski",
                       "--input", cat("tower_jz_q"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "jacobi-zariski-descent"
    assert doc["passed"] is True
    assert doc["bounds"] == {"D": 12, "i_max": 2}
    assert [c["observed"] for c in doc["checks"]] == ["0 <= 2", "0 <= 6"]


def test_audit_ci_vanishing_pass(capsys):
    code, out, _ = run(capsys, "audit", "ci-vanishing",
                       "--input", cat("tower_ci_q"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "ci-vanishing-of-cotangent-homology"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 3


def test_audit_growth_probe_notes(capsys):
    code, out, _ = run(capsys, "audit", "growth", "--input", cat("m2zero_q"))
    assert code == 0
    assert "consistent with exponential growth" in out
    assert "certifies nothing" in out
    assert out.splitlines()[-1] == "PASS"

    code, out, _ = run(capsys, "audit", "growth", "--input", cat("ci_q"))
    assert code == 0
    assert "not applicable (complete intersection)" in out


def test_audit_failure_exits_two(monkeypatch, capsys):
    # honest failures of the audited theorems are not constructible inside
    # certified bounds, so the failing branch is driven by a doctored report
    doctored = AuditReport(
        "rigidity-of-deviations", "doctored instance", {"N": 6, "D": 12},
        [{"assertion": "eps_4 = 0", "observed": 3, "ok": False}])
    monkeypatch.setattr("tatelab.cli.rigidity_audit", lambda *a: doctored)
    code, out, _ = run(capsys, "audit", "rigidity", "--input", cat("m2zero_q"))
    assert code == 2
    assert "  [FAIL] eps_4 = 0 -- observed 3" in out.splitlines()
    assert out.splitlines()[-1] == "FAIL"

    monkeypatch.setattr("tatelab.cli.rigidity_audit",
                        lambda *a: doctored)
    code, out, _ = run(capsys, "audit", "rigidity", "--input", cat("m2zero_q"),
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["passed"] is False


# -- validation failures -------------------------------------------------------

def test_missing_file_is_a_one_line_error(capsys):
    code, out, err = run(capsys, "betti", "--input", "no/such/file.json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read no/such/file.json")
    assert err.count("\n") == 1


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "betti", "--input", str(bad))
    assert code == 1
    assert err.startswith("error: malformed JSON in")


def test_invalid_relator_rejected(tmp_path, capsys):
    doc = {"field": {"type": "Q"},
           "variables": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
           "relators": ["x^2 + y"]}
    path = tmp_path / "inhomogeneous.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "deviations", "--input", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "homogeneous" in err


@pytest.mark.parametrize("variables, message", [
    (5, "'variables' must be a list"),
    ([{"name": "x", "degree": True}], "integer degree"),
    ([{"name": 5, "degree": 1}], "bad variable name"),
], ids=["not-a-list", "boolean-degree", "non-string-name"])
def test_malformed_variables_rejected(tmp_path, capsys, variables, message):
    doc = {"field": {"type": "Q"}, "variables": variables, "relators": ["x^2"]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "deviations", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_one_line_error(code, out, err, message):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


XY = [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}]


@pytest.mark.parametrize("relators, base_relators, message", [
    ("x^2", None, "'relators' must be a list"),
    ("x^2", [], "'relators' must be a list"),
    (["x^2"], "x^2", "'base_relators' must be a list"),
    ([5], [], "empty polynomial"),
    (None, [], "'relators' must be a list"),
    ([{"x": 1}], [], "'relators' must list polynomial strings"),
    (["x^2"], [{"x": 1}], "'base_relators' must list polynomial strings"),
], ids=["plain", "over-base", "base-string", "non-string-over-base",
        "null-over-base", "json-object", "base-json-object"])
def test_malformed_relators_rejected(tmp_path, capsys, relators,
                                     base_relators, message):
    doc = {"field": {"type": "Q"}, "variables": XY, "relators": relators,
           "base_relators": base_relators}
    code, out, err = run(capsys, "ci-check", "--input", _write_doc(tmp_path, doc))
    _assert_one_line_error(code, out, err, message)


@pytest.mark.parametrize("relators, base_relators", [
    (["x^2", "2*x + y^2"], []),
    (["2*x + y^2", "x^2"], ["2*x + y^2"]),
], ids=["relators", "base_relators"])
def test_terms_that_vanish_in_the_field_are_dropped(tmp_path, capsys, relators,
                                                    base_relators):
    # over F_2, 2*x + y^2 is y^2: the instance answers every single-instance
    # command, in both formats, with the bytes of the one written with y^2
    doc = dict(load_doc("cidiag_f2"), relators=relators, base_relators=base_relators)
    same = {key: [f.replace("2*x + ", "") for f in doc[key]]
            for key in ("relators", "base_relators")}
    path, ref = _write_doc(tmp_path, doc), str(tmp_path / "ref.json")
    with open(ref, "w") as fh:
        json.dump(dict(doc, **same), fh)
    for argv in TABLE_COMMANDS:
        for fmt in ("table", "json"):
            want = run(capsys, *argv, "--input", ref, "--format", fmt)
            assert run(capsys, *argv, "--input", path, "--format", fmt) == want, argv
            assert want[0] == 0, argv


@pytest.mark.parametrize("witness, message", [
    (5, "'witness' must be a list of polynomial strings"),
    ([5], "'witness' must be a list of polynomial strings"),
    ([{"z": 1}], "'witness' must be a list of polynomial strings"),
    ([["z^2"]], "'witness' must be a list of polynomial strings"),
    ("z^2", "'witness' must be a list of polynomial strings"),
    (["z^"], "cannot parse 'z^'"),
], ids=["number", "number-entry", "object-entry", "list-entry", "string",
        "unparsable-entry"])
def test_malformed_witness_rejected(tmp_path, capsys, witness, message):
    with open(cat("tower_jz_q")) as fh:
        doc = json.load(fh)
    doc["witness"] = witness
    code, out, err = run(capsys, "audit", "jacobi-zariski",
                         "--input", _write_doc(tmp_path, doc))
    _assert_one_line_error(code, out, err, message)


@pytest.mark.parametrize("name", [["x"], {"a": 1}], ids=["list", "object"])
def test_unhashable_variable_name_rejected(tmp_path, capsys, name):
    # the name's type is checked before the names are collected in a set
    doc = {"field": {"type": "Q"},
           "variables": [{"name": name, "degree": 1}, {"name": "y", "degree": 1}],
           "relators": ["y^2"]}
    for argv in (("deviations",), ("ci-check",), ("model-print",), ("audit", "rigidity")):
        assert run(capsys, *argv, "--input", _write_doc(tmp_path, doc)) == \
            (1, "", "error: bad variable name %r\n" % (name,)), argv
    with open(cat("tower_jz_q")) as fh:
        tower = json.load(fh)
    tower["tower"][1]["variables"][0]["name"] = name
    assert run(capsys, "audit", "jacobi-zariski", "--input", _write_doc(tmp_path, tower)) == \
        (1, "", "error: bad tower layer: bad variable name %r\n" % (name,))


@pytest.mark.parametrize("argv", [
    ["deviations"], ["deviations", "--route", "minimal-model"], ["ci-check"],
    ["koszul-h1"], ["aq-ranks"], ["model-print", "--route", "minimal-model"],
    ["audit", "rigidity"], ["audit", "growth"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_relator_of_huge_degree_answers_at_once(tmp_path, argv):
    # through D = 12, Q[x]/(x^(10^20)) is the polynomial ring; the normal
    # form of a relator over the relator-free ring needs no data of its
    # degree, and a one-variable degree lists its one monomial at once
    doc = {"field": {"type": "Q"}, "variables": [{"name": "x", "degree": 1}],
           "relators": ["x^99999999999999999999"]}
    root = os.path.dirname(CATALOG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tatelab", *argv, "--format", "json",
         "--input", _write_doc(tmp_path, doc)],
        capture_output=True, text=True, env=env, cwd=root, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    if argv[0] == "deviations":
        # the relator lies above D, so both routes count eps_2 = 0
        counts = {int(n): c["count"] for n, c in json.loads(proc.stdout)["deviations"].items()}
        assert counts == {n: int(n == 1) for n in range(7 - len(counts), 7)}


def test_tower_layer_relators_string_rejected(tmp_path, capsys):
    with open(cat("tower_jz_q")) as fh:
        doc = json.load(fh)
    doc["tower"][1]["relators"] = "x^2"
    code, out, err = run(capsys, "audit", "jacobi-zariski",
                         "--input", _write_doc(tmp_path, doc))
    _assert_one_line_error(code, out, err,
                           "bad tower layer: 'relators' must be a list")


@pytest.mark.parametrize("argv", [
    ("deviations", "--route", "minimal-model"), ("aq-ranks",), ("ci-check",),
    ("koszul-h1",), ("audit", "rigidity"), ("audit", "growth"),
], ids=lambda a: "-".join(a))
def test_baseless_instance_read_over_polynomial_ring(tmp_path, capsys, argv):
    with open(cat("m2zero_q")) as fh:
        doc = json.load(fh)
    assert doc.pop("base_relators") == []
    code, out, err = run(capsys, *argv, "--input", cat("m2zero_q"))
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--input", _write_doc(tmp_path, doc)) == (0, out, "")


def test_relator_vanishing_mod_p_rejected(tmp_path, capsys):
    doc = {"field": {"type": "Fp", "p": 2}, "variables": XY,
           "relators": ["2*x^2"]}
    code, out, err = run(capsys, "ci-check", "--input", _write_doc(tmp_path, doc))
    _assert_one_line_error(code, out, err, "zero relator")
    doc["field"]["p"] = 3      # 2 is a unit mod 3: x^2 is a fine relator
    code, out, err = run(capsys, "ci-check", "--input", _write_doc(tmp_path, doc))
    assert code == 0 and err == ""
    assert out.startswith("is_ci: yes")


@pytest.mark.parametrize("kind, name, key, value", [
    ("rigidity", "m2zero_q", "D", 0),
    ("rigidity", "m2zero_q", "D", True),
    ("rigidity", "m2zero_q", "N", "6"),
    ("jacobi-zariski", "tower_jz_q", "i_max", "2"),
], ids=["D-zero", "D-boolean", "N-string", "i_max-string"])
def test_audit_document_bounds_rejected(tmp_path, capsys, kind, name, key, value):
    with open(cat(name)) as fh:
        doc = json.load(fh)
    doc[key] = value
    code, out, err = run(capsys, "audit", kind, "--input", _write_doc(tmp_path, doc))
    _assert_one_line_error(code, out, err,
                           "audit document bound %r must be an integer" % key)


@pytest.mark.parametrize("kind", ["rigidity", "jacobi-zariski"])
@pytest.mark.parametrize("doc", [[1, 2], "tower", 3])
def test_audit_document_must_be_an_object(tmp_path, capsys, kind, doc):
    code, out, err = run(capsys, "audit", kind, "--input", _write_doc(tmp_path, doc))
    _assert_one_line_error(code, out, err, "audit document must be a JSON object")


def test_bound_violations(capsys):
    code, _, err = run(capsys, "betti", "--input", cat("hyp_q"), "--N", "1")
    assert code == 1
    assert err == "error: bounds must satisfy N >= 2 and D >= 2\n"
    code, _, err = run(capsys, "betti", "--input", cat("hyp_q"), "--D", "0")
    assert code == 1
    code, _, err = run(capsys, "poincare", "--input", cat("hyp_q"), "--T", "-1")
    assert code == 1
    assert err == "error: series truncation T must be >= 0\n"


def test_usage_errors_exit_one_not_two(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["deviations"]) == 1          # --input is required
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "deviations" in out and "audit" in out


def test_audit_kind_must_match_instance_shape(tmp_path, capsys):
    cases = [
        ("rigidity", "tower_jz_q",
         "rigidity audit takes a single presentation instance"),
        ("growth", "tower_ci_q",
         "growth probe takes a single presentation instance"),
        ("jacobi-zariski", "m2zero_q",
         "jacobi-zariski audit needs a 'tower' of three layers"),
        ("ci-vanishing", "hyp_q",
         "ci-vanishing audit needs a 'tower' of three layers"),
        # the document's own parse error wins over the kind mismatch
        ("rigidity", {"tower": [1, 2]},
         "'tower' must list exactly three presentation layers"),
        ("jacobi-zariski", {"variables": []}, "presentation is missing 'field'"),
        ("ci-vanishing", {"variables": []}, "presentation is missing 'field'"),
    ]
    for kind, instance, message in cases:
        path = (cat(instance) if isinstance(instance, str)
                else _write_doc(tmp_path, instance))
        code, out, err = run(capsys, "audit", kind, "--input", path)
        assert (code, out, err) == (1, "", "error: %s\n" % message), (kind, instance)


@pytest.mark.parametrize("command", [name for name, _, _ in COMMANDS if name != "audit"])
@pytest.mark.parametrize("instance", ["tower_jz_q", "tower_ci_q"])
def test_tower_document_refused_by_single_commands(capsys, command, instance):
    # a tower file is read only by the two tower audits, and saying so beats
    # a complaint about a missing 'field'
    code, out, err = run(capsys, command, "--input", cat(instance))
    assert (code, out) == (1, "")
    assert err == ("error: a 'tower' document is read only by audit jacobi-zariski "
                   "and audit ci-vanishing\n")


# -- determinism ---------------------------------------------------------------

REPLAY = [
    ("deviations", "--input", cat("m2zero_q"), "--format", "json"),
    ("ci-check", "--input", cat("xsq_xy_q"), "--format", "json"),
    ("aq-ranks", "--input", cat("m2zero_f5"), "--format", "json"),
    ("betti", "--input", cat("ci_q"), "--format", "json"),
    ("poincare", "--input", cat("hyp_q"), "--format", "json"),
    ("koszul-h1", "--input", cat("m2zero_q"), "--format", "json"),
    ("model-print", "--input", cat("xsq_xy_q")),
    ("audit", "jacobi-zariski", "--input", cat("tower_jz_q"), "--format", "json"),
]


@pytest.mark.parametrize("argv", REPLAY, ids=lambda a: a[0])
def test_repeated_runs_are_byte_identical(argv, capsys):
    code, first, _ = run(capsys, *argv)
    assert code == 0
    for _ in range(2):
        code, again, _ = run(capsys, *argv)
        assert code == 0
        assert again == first


def test_emitted_json_reemits_byte_identically(capsys):
    _, out, _ = run(capsys, "audit", "ci-vanishing", "--input",
                    cat("tower_ci_q"), "--format", "json")
    doc = json.loads(out)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_output_independent_of_hash_seed():
    outs = []
    root = os.path.dirname(CATALOG)
    path = os.pathsep.join([os.path.join(root, "src"),
                            os.environ.get("PYTHONPATH", "")])
    for seed in ("0", "7", "99"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "tatelab", "deviations",
             "--input", cat("m2zero_q"), "--format", "json"],
            capture_output=True, text=True, env=env, cwd=root)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_traced_job_matches_untraced_cli(tmp_path):
    # perfbench/traced_job.py re-binds resolution functions by name; a
    # renamed or deleted one must fail here, not in a benchmark run
    root = os.path.dirname(CATALOG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    argv = ["ci-check", "--input", cat("ci_q"), "--format", "json"]
    trace = tmp_path / "trace.json"
    plain = subprocess.run([sys.executable, "-m", "tatelab"] + argv,
                           capture_output=True, env=env, cwd=root)
    traced = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "traced_job.py"),
         str(trace)] + argv, capture_output=True, env=env, cwd=root)
    assert plain.returncode == traced.returncode == 0
    assert plain.stderr == traced.stderr == b""
    assert traced.stdout == plain.stdout
    calls = json.loads(trace.read_text())["calls"]
    assert calls["resolution.build"] == 1
    assert calls["resolution.kernel_generators"] == 1


def _perfbench_jobs():
    path = os.path.join(os.path.dirname(CATALOG), "perfbench", "jobs.py")
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _perfbench_jobs()
MODEL_SPANS = ["resolution.minimal_generators", "extensions.matrix", "linalg.echelon_add"]


@pytest.mark.parametrize("workload, job, spans", [
    (None, ["ci-check", "--input", cat("hyp_q")], ["resolution.build"]),
    (None, ["deviations", "--route", "minimal-model", "--N", "4", "--input",
            cat("m2zero_q")], MODEL_SPANS),
] + [(workload, job, MODEL_SPANS) for workload in ("model_q", "closure_fp")
     for job in bench.WORKLOADS[workload]],
    ids=["ci-check-hyp_q", "model-m2zero_q"]
    + ["%s-%s" % (workload, job[0]) for workload in ("model_q", "closure_fp")
       for job in bench.WORKLOADS[workload]])
def test_traced_job_layer_self_times_add_up(tmp_path, workload, job, spans):
    # the benchmark's traced run needs every name it wraps, the same stdout
    # as the untraced run (another process, another hash seed) and self
    # times that sum to the traced wall time; a benchmark job runs on the
    # benchmark's own seeded inputs and must pass its output check
    root = os.path.dirname(CATALOG)
    argv = job
    if workload is not None:
        argv = bench.job_argv(job, bench.write_inputs(workload, 1, str(tmp_path)))
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    trace = tmp_path / "trace.json"
    plain = subprocess.run([sys.executable, "-m", "tatelab"] + argv, capture_output=True,
                           env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0"),
                           cwd=root)
    traced = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "traced_job.py"),
         str(trace)] + argv, capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="1"), cwd=root)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    doc = json.loads(trace.read_text())
    assert abs(sum(doc["self_s"].values()) - doc["wall_s"]) <= 0.05 * doc["wall_s"]
    assert all(doc["calls"].get(name, 0) > 0 for name in spans), doc["calls"]
    if workload is not None:
        expected = bench.load_json("expected.json")
        assert bench.check(job, expected, traced.returncode, traced.stdout,
                           traced.stderr) is None


def test_setup_probe_parses_the_catalog():
    # perfbench/setup_probe.py times parse_presentation and
    # build_layer_chain on every instance and must import this checkout
    root = os.path.dirname(CATALOG)
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    paths = sorted(os.path.join(CATALOG, f) for f in os.listdir(CATALOG)
                   if f.endswith(".json"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "setup_probe.py")]
        + paths, capture_output=True, text=True, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert os.path.realpath(os.path.dirname(proc.stdout.strip())) == \
        os.path.realpath(os.path.join(src, "tatelab"))


def test_one_elimination_per_presentation_and_degree(monkeypatch, capsys):
    # over the model_q and catalog_cli jobs every linalg.rref runs inside
    # Presentation._degree_data, once per (presentation, degree): the kernel
    # generators and the witness check read the quotient's normal forms
    inside, runs, outside = [], collections.Counter(), []
    rref, degree_data = linalg.rref, Presentation._degree_data

    def traced_data(self, d):
        inside.append((self, d))
        try:
            return degree_data(self, d)
        finally:
            inside.pop()

    def counted_rref(vectors, field):
        # the key holds the presentation, so no id is reused between jobs
        if inside:
            runs[inside[-1]] += 1
        else:
            outside.append(len(vectors))
        return rref(vectors, field)

    monkeypatch.setattr(Presentation, "_degree_data", traced_data)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    for workload in ("model_q", "catalog_cli"):
        for inst, args in bench.WORKLOADS[workload]:
            main(list(args) + ["--input", cat(inst), "--format", "json"])
            capsys.readouterr()
    assert not outside
    assert runs and set(runs.values()) == {1}
    # a declared relator-free base is the polynomial ring of its quotient and
    # of every tower layer above it: 28 + 2110 in all, where a second ring
    # per instance and the kernel generators' own eliminations made 28 + 2669
    assert sum(runs.values()) <= 2138
