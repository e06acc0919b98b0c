"""Catalog integrity: deterministic listing, validated entries, coverage."""
import hashlib

import pytest

from builders import diagram, lambda_coordinates
from hopfdual import cli
from hopfdual.actions import trivial_action
from hopfdual.catalog import get, ground_algebra, list_entries, quadruple_map
from hopfdual.crossed import CleftData, CrossedProductData, smash_product_data
from hopfdual.duality import DiagramSide, duality_iso, lambda_map, matrix_iso
from hopfdual.errors import UnknownEntry
from hopfdual.hopf import HopfData, validate_hopf
from hopfdual.instancefile import _quadruples, export_entry_json
from hopfdual.linalg import free_module, kron_vec, tensor_module
from hopfdual.rings import Zmod
from hopfdual.smash import ModuleSide, SubalgebraU
from hopfdual.suites import run_suite


def test_listing_is_deterministic_and_contains_required_entries():
    names = [name for name, _, _ in list_entries()]
    assert names == [name for name, _, _ in list_entries()]
    for required in ("Z_C2", "gauss", "sweedler4_Q", "sweedler4_Z3",
                     "Zmod6_C2", "swap_smash"):
        assert required in names


def test_get_unknown_raises():
    with pytest.raises(UnknownEntry):
        get("no_such_entry")


def test_quadruples_at_one_position_add_up():
    # on both readings, and a sum of zero leaves no entry; the writer reads
    # the sparse columns back in column-then-row order
    ring = Zmod(6)
    m = free_module(ring, ["a", "b"])
    mm = tensor_module(m, m)
    quads = [(0, 1, 1, 2), (1, 1, 0, 5), (0, 1, 1, 3), (1, 0, 0, 4), (1, 0, 0, 2)]
    mult = quadruple_map(mm, m, quads, 2)
    assert mult.sparse_columns() == ((), ((1, 5),), (), ((0, 5),))
    assert _quadruples(ring, mult, 2) == [[0, 1, 1, "5"], [1, 1, 0, "5"]]
    comult = quadruple_map(m, mm, quads, 2, co=True)
    assert comult.sparse_columns() == (((3, 5),), ((2, 5),))
    assert _quadruples(ring, comult, 2, co=True) == [[0, 1, 1, "5"], [1, 1, 0, "5"]]


def test_z_c2_payload():
    e = get("Z_C2")
    h = e.payload
    assert isinstance(h, HopfData)
    assert h.rank == 2
    assert h.antipode.matrix == ((1, 0), (0, 1))


def test_swap_smash_payload():
    e = get("swap_smash")
    cp = e.payload
    assert isinstance(cp, CrossedProductData)
    assert cp.carrier.rank == 4
    assert not cp.product_algebra.is_commutative()


def test_zmod6_exercises_composite_modulus():
    cp = get("Zmod6_C2").payload
    assert cp.ring == Zmod(6)
    one_g = kron_vec(Zmod(6), (1,), (0, 1))
    assert cp.product_algebra.product(one_g, one_g) == (5, 0)


def test_gauss_cleft_payload():
    cl = get("gauss_cleft").payload
    assert isinstance(cl, CleftData)
    assert cl.validate().ok


def test_every_entry_validates_at_load():
    for name, kind, _ in list_entries():
        e = get(name)
        h = e.hopf_data()
        assert validate_hopf(h).ok, name


def test_catalog_coverage():
    entries = [get(name) for name, _, _ in list_entries()]
    rings = {repr(e.ring) for e in entries}
    assert {"integers", "rationals", "Z/3", "Z/6"} <= rings
    kinds = {e.kind for e in entries}
    assert kinds == {"hopf", "crossed", "cleft"}
    crossed = [e.payload for e in entries if e.kind == "crossed"]
    # trivial and nontrivial cocycles
    from hopfdual.crossed import trivial_cocycle

    trivials = [cp for cp in crossed
                if cp.cocycle.sigma == trivial_cocycle(cp.action).sigma]
    assert trivials and len(trivials) < len(crossed)
    # commutative and noncommutative coefficient algebras
    assert any(cp.action.algebra.is_commutative() for cp in crossed)
    assert any(not cp.action.algebra.is_commutative() for cp in crossed)
    # cocommutative and non-cocommutative Hopf algebras
    hopfs = [e.hopf_data() for e in entries]
    assert any(h.coalgebra.is_cocommutative() for h in hopfs)
    assert any(not h.coalgebra.is_cocommutative() for h in hopfs)


def _records(name, suite):
    report = run_suite(get(name), suite)
    return [(r.check_id, r.passed, r.witness)
            for section in report.sections for r in section.records]


@pytest.mark.parametrize("z_name,q_name,suite", [
    ("Z_C3", "Q_C3", "hopf"),
    ("Z_C3", "Q_C3", "smash"),
    ("Z_C3", "Q_C3", "duality"),
    ("sweedler4_Z", "sweedler4_Q", "hopf"),
])
def test_base_change_from_z_to_q_keeps_every_record(z_name, q_name, suite):
    # the same structure constants over Z and over Q: Z → Q is injective, so
    # every check must give the same verdict with the same witness
    z_records = _records(z_name, suite)
    assert z_records
    assert _records(q_name, suite) == z_records


def test_base_change_from_z_to_z3_keeps_records_and_isomorphisms():
    # sweedler4_Z reduced mod 3 is sweedler4_Z3: every hopf-suite record, and
    # with A the ground ring the certified right duality isomorphism and the
    # matrix form, reduced mod 3, must equal the ones computed over Z/3
    z_records = _records("sweedler4_Z", "hopf")
    assert z_records
    assert _records("sweedler4_Z3", "hopf") == z_records
    z3 = Zmod(3)
    for over_z, over_z3 in zip(*map(_right_isos, ("sweedler4_Z", "sweedler4_Z3"))):
        assert [[z3.of(x) for x in row] for row in over_z.matrix] == \
            [list(row) for row in over_z3.matrix]


def _right_isos(name):
    """With A the ground ring: the certified right duality isomorphism of the
    entry, its inverse, and the matrix form and its inverse."""
    h = get(name).hopf_data()
    cp = smash_product_data(trivial_action(h, ground_algebra(h.ring)))
    U = SubalgebraU.full_dual(h, ModuleSide.RIGHT)
    iso = duality_iso(diagram(cp, U, DiagramSide.RIGHT), lambda_coordinates(h, U))
    matrix_form = matrix_iso(cp, lambda_map(h, U), iso).iso
    return iso.map, iso.inverse, matrix_form.map, matrix_form.inverse


@pytest.mark.parametrize("over_z, over_q", [("Z_C3", "Q_C3"), ("sweedler4_Z", "sweedler4_Q")])
def test_base_change_from_z_to_q_keeps_isomorphisms_entry_for_entry(over_z, over_q):
    # Z embeds in Q as the identity on elements, so the certified isomorphisms
    # over Q are the ones over Z: same sparse columns, same entry types
    for z_map, q_map in zip(_right_isos(over_z), _right_isos(over_q)):
        assert q_map.sparse_columns() == z_map.sparse_columns()
        assert [type(c) for col in q_map.sparse_columns() for _, c in col] == \
            [type(c) for col in z_map.sparse_columns() for _, c in col]


# SHA-256 of export_entry_json(get(name)), recorded before basis names were
# built on read; every export stays byte-identical
EXPORT_SHA256 = {
    "Z_C2": "a9923b81829aa35b91ed3d0aac9a08de226e0e95a0fdda8c588427c8eb2b974e",
    "Z_C3": "92ab3b1d615a35c535e8667d139ffd6d2041be4a9c30027de3ae42ac3ee357b2",
    "Z_C4": "1a70c0f57cfca08d0d9f3920778f2261473b294b221301bd2d257a164e8ae0be",
    "Q_C3": "9ec234fcec47c268530950ca218c82f7e14b370c94b6cadb73caf6980e379d09",
    "sweedler4_Q": "085f72af88f7fd1050ba1429bc8ea71b2076de3bf003bf18d4d05d26dba19e5c",
    "sweedler4_Z3": "6d728ae5cc9ec5a2299f0d4d146483fb02f7e0ba266284bf650e409e27303ced",
    "sweedler4_Z": "9d0a5cc9e0c22e9a2d6c9b0c5d27182a0a6b908d9c78bb54dd3557e4e9986291",
    "triv_C2": "bb1fc15962773e3b29a093cf2c7822de9e45a61b03d1829388a87a0669180c51",
    "triv_C3": "7ac5babe956ff52d4cd343b22ea72d198dedad18b2d286a770d1b238c6dfd0d5",
    "gauss": "16fb6ff93d618cef54c89a44cc65fc3989bc00861e39a5287282ad74e15d9600",
    "Zmod6_C2": "4fc2a38f1186afac965153b8d7a6ce539ae3beaf8299e989797ef866317bbff4",
    "swap_smash": "3a2338eb662c63527c2bcb4e2b67d9c160702abc91598aaa261f0a49496818f9",
    "m2_conj_smash": "c86f1db2cf9e08796de055021ba1734df519c2acc9b253dd5a481034d696789b",
    "sweedler4_smash_Q": "e19820097fd50e6dadc31872c853055e90ad490c2c15132b9b940c14d96b2f9e",
    "sweedler4_smash_Z3": "e078b40a71e335014daa59da487b8c0600e896c7c76948b82c3087914bb1b3d5",
    "gauss_cleft": "afa567d698aa1988f82dae6d9e4651e0e321497455b36b49f10a490bd5920f15",
}


def test_exports_are_pinned():
    assert [name for name, _, _ in list_entries()] == list(EXPORT_SHA256)
    for name, digest in EXPORT_SHA256.items():
        text = export_entry_json(get(name))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


# SHA-256 of ``hopfdual report --format json --canonical``: every verdict,
# witness and statement of the catalog, byte for byte
CANONICAL_REPORT_SHA256 = "6f5f9bbb09e383b4c67817f42f8ffe9e61077b1ff925dc7e5601ea0d31d8bd9b"


def test_canonical_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["report", "--format", "json", "--canonical", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CANONICAL_REPORT_SHA256
