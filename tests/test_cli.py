"""CLI surface: subcommands, exit codes, deterministic reports, round trips."""
import json
import re
import time
from pathlib import Path

import pytest

from builders import cyclic_document, entries_equal
from hopfdual import instancefile, suites
from hopfdual.cli import main
from hopfdual.catalog import get, list_entries
from hopfdual.instancefile import export_entry_json, parse_instance
from hopfdual.suites import run_suite
from test_rings import DIGIT_LIMITS, int_digit_limit
from test_suites import records


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "Z_C2" in out and "gauss" in out


def test_catalog_run_passes(capsys):
    assert main(["catalog", "run", "Z_C2", "--suite", "hopf"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_catalog_run_unknown_entry_is_input_error(capsys):
    assert main(["catalog", "run", "nope"]) == 2


def test_bad_suite_for_entry_is_input_error(capsys):
    assert main(["catalog", "run", "Z_C2", "--suite", "opposite"]) == 2


@pytest.mark.parametrize("name", [name for name, _, _ in list_entries()])
def test_export_round_trip(tmp_path, capsys, name):
    # the parsed file is the same entry and gets the same records
    path = tmp_path / f"{name}.json"
    assert main(["catalog", "export", name, str(path)]) == 0
    parsed = parse_instance(path).to_entry()
    assert entries_equal(get(name), parsed)
    assert records(run_suite(parsed, "all")) == records(run_suite(get(name), "all"))


def test_verify_exported_file(tmp_path, capsys):
    path = tmp_path / "gauss.json"
    assert main(["catalog", "export", "gauss", str(path)]) == 0
    assert main(["verify", str(path), "--suite", "crossed"]) == 0


def test_verify_mutated_antipode_fails_with_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = json.loads(export_entry_json(get("Z_C2")))
    doc["hopf"]["antipode"] = [["1", "1"], ["0", "0"]]  # S(g) = e
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "hopf"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness: g" in out


def test_verify_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2


def test_verify_out_of_range_index_names_quadruple(tmp_path, capsys):
    path = tmp_path / "range.json"
    doc = json.loads(export_entry_json(get("Z_C2")))
    doc["hopf"]["mult"].append([0, 0, 7, "1"])
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[0, 0, 7, '1']" in err


def test_verify_bool_index_names_quadruple(tmp_path, capsys):
    # JSON true is a Python bool, which is an int: it must not pass as index 1
    path = tmp_path / "bool.json"
    doc = json.loads(export_entry_json(get("Z_C2")))
    doc["hopf"]["mult"].append([0, True, 1, "1"])
    path.write_text(json.dumps(doc))
    assert '[0, true, 1, "1"]' in path.read_text()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[0, True, 1, '1']" in err
    assert "not an integer" in err


@pytest.mark.parametrize("only,message", [
    (5, "expected.only_suites must be"),
    ("smash", "expected.only_suites must be"),  # not a substring match
    ([], "expected.only_suites must be"),
    (["nope"], "expected.only_suites must be"),
    (["all"], "expected.only_suites must be"),
    # known, but none applies to a hopf-kind file: nothing would be verified
    (["crossed"], "no suite applies to entry 'Z_C2'"),
])
def test_verify_bad_only_suites_is_input_error(tmp_path, capsys, only, message):
    doc = json.loads(export_entry_json(get("Z_C2")))
    assert doc["kind"] == "hopf"
    doc["expected"]["only_suites"] = only
    path = tmp_path / "only.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("suite,message", [
    ("crossed", "suite 'crossed' needs crossed or cleft data"),
    ("cleft", "suite 'cleft' needs crossed or cleft data"),
    ("opposite", "suite 'opposite' needs crossed or cleft data"),
    ("nope", "unknown suite 'nope'"),
])
def test_verify_a_suite_the_file_cannot_run_fails_at_parse_time(tmp_path, capsys,
                                                                monkeypatch, suite, message):
    # a hopf-kind file naming a suite that needs crossed data, or no suite at
    # all, is refused before any object of the file is built
    doc = json.loads(export_entry_json(get("Z_C2")))
    doc["suite"] = suite
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(instancefile, "_build_payload", None)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_verify_crossed_without_action_is_input_error(tmp_path, capsys):
    path = tmp_path / "noaction.json"
    doc = json.loads(export_entry_json(get("gauss")))
    del doc["action"]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "crossed"]) == 2
    err = capsys.readouterr().err
    assert "action" in err


def _ring_as_list(doc):
    doc["ring"] = ["integers"]


def _list_labels(doc):
    doc["modules"]["H"] = [[label] for label in doc["modules"]["H"]]


def _scalar_U(doc):
    doc["U"] = 5


@pytest.mark.parametrize("mutate,block", [
    (_ring_as_list, "'ring'"),
    (_list_labels, "module 'H'"),
    (_scalar_U, "'U'"),
])
def test_verify_malformed_block_is_input_error(tmp_path, capsys, mutate, block):
    path = tmp_path / "malformed.json"
    doc = json.loads(export_entry_json(get("gauss_cleft")))
    mutate(doc)
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "hopf"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert block in err


@pytest.mark.parametrize("name,block,value", [
    ("gauss", "hopf", 5),
    ("gauss", "hopf", ["carrier"]),
    ("gauss", "algebra", 5),
    ("gauss_cleft", "comodule", 5),
    ("gauss_cleft", "integral", 5),
    ("gauss", "expected", 5),
    ("gauss", "expected", [1]),
])
def test_verify_block_that_is_not_an_object_is_input_error(tmp_path, capsys, name,
                                                            block, value):
    # each of these used to raise a TypeError: a traceback and exit 1
    path = tmp_path / "not_an_object.json"
    doc = json.loads(export_entry_json(get(name)))
    doc[block] = value
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: '{block}' must be an object" in err


@pytest.mark.parametrize("block", ["hopf", "algebra"])
def test_verify_carrier_that_is_not_a_name_is_input_error(tmp_path, capsys, block):
    path = tmp_path / "carrier.json"
    doc = json.loads(export_entry_json(get("gauss")))
    doc[block]["carrier"] = [doc[block]["carrier"]]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: {block} carrier" in err


@pytest.mark.parametrize("constant", ["1e6", "1e10000000", "2.5", "1_000", "0x1"])
@pytest.mark.parametrize("where", ["counit", "mult"])
def test_verify_constant_outside_the_grammar_is_input_error(tmp_path, capsys, constant,
                                                            where):
    # Fraction(str) also reads exponent and decimal forms: "1e6" used to verify
    # as 10**6 (exit 1), and "1e10000000" took seconds to parse
    path = tmp_path / "constant.json"
    doc = json.loads(export_entry_json(get("Q_C3")))
    if where == "counit":
        doc["hopf"]["counit"][0] = constant
    else:
        doc["hopf"]["mult"][0][3] = constant
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", str(path), "--suite", "hopf"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "input error" in err and repr(constant) in err


@pytest.mark.parametrize("limit", DIGIT_LIMITS)
@pytest.mark.parametrize("ring_entry", ["Q_C3", "Z_C3", "sweedler4_Z3"])
def test_verify_caps_constants_at_4300_digits(tmp_path, capsys, limit, ring_entry):
    # a counit of 1 written with 4,300 digits verifies; with 4,301 it is an
    # input error under every interpreter digit limit, not CPython's own
    # ValueError on 3.11+ only
    path = tmp_path / "digits.json"
    doc = json.loads(export_entry_json(get(ring_entry)))
    with int_digit_limit(limit):
        for zeros, code in ((4299, 0), (4300, 2)):
            doc["hopf"]["counit"][0] = "0" * zeros + "1"
            path.write_text(json.dumps(doc))
            assert main(["verify", str(path), "--suite", "hopf"]) == code
        err = capsys.readouterr().err
    assert "input error" in err and "4301 digits, more than 4300" in err


@pytest.mark.parametrize("modulus", [7.9, 7.0, True])
def test_verify_non_integer_modulus_is_input_error(tmp_path, capsys, modulus):
    # a float modulus used to be truncated: n = 7.9 ran over Z/7 and exited 0
    path = tmp_path / "modulus.json"
    doc = json.loads(export_entry_json(get("sweedler4_Z3")))
    doc["ring"] = {"kind": "integers_mod", "n": modulus}
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "hopf"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "'ring'" in err


def test_json_report_format(tmp_path):
    out = tmp_path / "report.json"
    assert main(["catalog", "run", "Z_C2", "--suite", "hopf", "--format",
                 "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ok"] is True


def test_canonical_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["catalog", "run", "gauss", "--suite", "crossed",
                     "--format", "json", "--out", str(target),
                     "--canonical"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # non-canonical runs carry timings and need not be identical
    data = json.loads(a.read_text())
    assert all(c["millis"] == 0.0
               for s in data["sections"] for c in s["checks"])


def test_untimed_records_show_no_timing(tmp_path, capsys):
    # algebra.assoc is merged in from validate() and never timed on its own
    assert main(["catalog", "run", "Z_C2", "--suite", "hopf"]) == 0
    lines = {line.split()[1]: line
             for line in capsys.readouterr().out.splitlines()
             if line.startswith(("PASS", "FAIL"))}
    assert not lines["algebra.assoc"].endswith("ms)")
    assert lines["hopf.dual"].endswith(" ms)")
    out = tmp_path / "report.json"
    assert main(["catalog", "run", "Z_C2", "--suite", "hopf", "--format",
                 "json", "--out", str(out)]) == 0
    checks = {c["id"]: c for s in json.loads(out.read_text())["sections"]
              for c in s["checks"]}
    assert checks["algebra.assoc"]["millis"] is None
    assert isinstance(checks["hopf.dual"]["millis"], float)


def test_restricted_U_instance_certifies_every_route(tmp_path, capsys):
    # U = span{ε}: χ is not square, and the duality isomorphism reads γ in
    # λ's coordinates, so both sides certify through every route
    doc = json.loads(export_entry_json(get("triv_C2")))
    doc["name"] = "triv_C2_smallU"
    doc["U"] = [["1", "1"]]
    path = tmp_path / "small_u.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "duality"]) == 0
    assert "PASS  right.duality" in capsys.readouterr().out
    assert main(["verify", str(path), "--suite", "all", "--format", "json"]) == 0
    checks = [c for s in json.loads(capsys.readouterr().out)["sections"]
              for c in s["checks"]]
    assert len(checks) == 70 and all(c["passed"] for c in checks)
    assert {"smash.right", "smash.op", "right.duality", "op.duality", "bm.rl",
            "cleft.route", "opposite.chain"} <= {c["id"] for c in checks}
    # ε ∉ span(U): not a subalgebra of H*, an input error in every suite
    doc["U"] = [["1", "0"]]
    path.write_text(json.dumps(doc))
    for suite in ("smash", "duality", "cleft", "opposite"):
        assert main(["verify", str(path), "--suite", suite]) == 2
        assert "ε_H is not in span(U)" in capsys.readouterr().err


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("u_block", [None, [["1", "0"]]])
@pytest.mark.parametrize("fixture", ["nonmultiplicative_hopf", "nonmultiplicative_crossed"])
def test_duality_rejects_a_coproduct_that_is_not_multiplicative(
        tmp_path, capsys, monkeypatch, fixture, u_block):
    # Z/3[x]/(x²) with x primitive: Δ(x)² = 2x⊗x ≠ Δ(x²) = 0.  Right δ is
    # summed through Δ(h·m) = Δ(h)Δ(m); the comodule-algebra certificate of
    # R#H or A#_σH rejects this Δ before any diagram is built.
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    if u_block is not None:
        doc["U"] = u_block  # span{ε}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))

    def no_diagram(*args):
        raise AssertionError("build_diagram reached")

    monkeypatch.setattr(suites, "build_diagram", no_diagram)
    assert main(["verify", str(path), "--suite", "duality"]) == 2
    assert ("comodule algebra: comodule.multiplicative failed"
            in capsys.readouterr().err)


def test_names_that_format_alike_verify_like_plain_names(tmp_path, capsys):
    # Z[C3] with H named a, a⊗a, e: a⊗(a⊗a) and (a⊗a)⊗a format alike in
    # H⊗H, and names play no part in a verdict
    odd = FIXTURES / "tensor_sign_labels.json"
    plain = tmp_path / "Z_C3.json"
    assert main(["catalog", "export", "Z_C3", str(plain)]) == 0
    odd_doc, plain_doc = (json.loads(p.read_text()) for p in (odd, plain))
    assert odd_doc["modules"] == {"H": ["a", "a⊗a", "e"]}
    assert {**odd_doc, "modules": plain_doc["modules"]} == plain_doc
    assert main(["verify", str(odd), "--suite", "all"]) == 0
    capsys.readouterr()

    def verdicts(path):
        report = run_suite(parse_instance(path).to_entry(), "all")
        return [(check_id, passed) for check_id, passed, _ in records(report)]

    assert verdicts(odd) == verdicts(plain)


def test_an_input_without_antipodes_verifies(capsys):
    # R[C4] over Z/5 with no antipode blocks: construction computes S and S̄
    # once, and the hopf suite checks S̄ against the inverse of S
    path = FIXTURES / "cyclic_c4_z5.json"
    doc = json.loads(path.read_text())
    assert doc == cyclic_document(4, 5)
    assert not {"antipode", "twisted_antipode"} & set(doc["hopf"])
    assert main(["verify", str(path), "--suite", "all"]) == 0
    assert "PASS  hopf.twisted_vs_inverse" in capsys.readouterr().out


def test_an_input_with_u_and_v_blocks_verifies_as_pinned(capsys):
    # R[C4] over Z/5 with U the functions constant on the cosets of C2 and V
    # its coaction preimage written out: the parser reads both blocks, and
    # the suites read them once, as sparse functionals.  χ is not square for
    # this proper U, and both duality isomorphisms still certify: every
    # check passes, the Blattner-Montgomery route included
    path = FIXTURES / "cyclic_c4_z5_u_v.json"
    doc = json.loads(path.read_text())
    assert doc["U"] == [["1", "0", "1", "0"], ["0", "1", "0", "1"]]
    assert doc["V"] == doc["U"]
    assert main(["verify", str(path), "--suite", "all", "--format", "json",
                 "--canonical"]) == 0
    verdicts = {r["id"]: (r["passed"], r["witness"])
                for section in json.loads(capsys.readouterr().out)["sections"]
                for r in section["checks"]}
    assert len(verdicts) == 41
    assert set(verdicts.values()) == {(True, None)}
    assert {"smash.compare", "duality.lambda", "duality.phi", "duality.epsilon",
            "right.duality", "op.duality", "bm.rl"} <= set(verdicts)


@pytest.mark.parametrize("limit", DIGIT_LIMITS)
def test_verify_caps_bare_integers_at_4300_digits(tmp_path, capsys, limit):
    # Z[C2] with the constant of e·e = e written as a bare 4,301-digit JSON
    # integer: the same capped reader as for string constants makes it an
    # input error under every interpreter digit limit (json.load alone raised
    # a ValueError traceback under the default limit and read any length
    # with the limit off); a bare 4,300-digit integer is read
    path = FIXTURES / "oversized_integer.json"
    text = path.read_text()
    big = "1" + "0" * 4300
    assert re.findall(r"\d{4300,}", text) == [big]
    with int_digit_limit(limit):
        assert main(["verify", str(path), "--suite", "hopf"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "4301 digits, more than 4300" in err
        at_cap = tmp_path / "at_cap.json"
        at_cap.write_text(text.replace(big, big[:-1]))
        assert parse_instance(at_cap).blocks["hopf"]["mult"][0] == (0, 0, 0, 10 ** 4299)


@pytest.mark.parametrize("name,key,message", [
    ("gauss_cleft", "theta_inv", "supplied theta_inv disagrees"),
    ("gauss", "cocycle_inverse", "supplied cocycle inverse disagrees"),
    ("sweedler4_smash_Z3", "cocycle_inverse", "supplied cocycle inverse disagrees"),
])
def test_inverses_are_computed_or_checked_at_parse_time(tmp_path, capsys, name, key,
                                                        message):
    # without the inverse the parser computes it and the file verifies; a
    # supplied inverse with one entry changed is an input error
    entry = get(name)
    doc = json.loads(export_entry_json(entry))
    block = doc["integral"] if key == "theta_inv" else doc
    supplied = block.pop(key)
    if name == "gauss_cleft":
        assert doc == json.loads((FIXTURES / "gauss_cleft_without_theta_inv.json").read_text())
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "all"]) == 0
    capsys.readouterr()
    first, ring = supplied[0], entry.ring  # θ⁻¹'s first row, σ⁻¹'s first quadruple
    k = 0 if key == "theta_inv" else 3
    first[k] = ring.show(ring.add(ring.of(first[k]), ring.one))
    block[key] = supplied
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "all"]) == 2
    assert message in capsys.readouterr().err
