"""Suite runs: each derived object is built once per ``run_suite`` call, a
failed build is kept as its error and never reused as a success, and every
check that needs a failed object carries its witness.  Every sparse column
a run stores is canonical, the checks build no dense rows, and only the two
builders that read a null space compute a solver's kernel."""
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dense_oracle
from builders import cyclic_document
from hopfdual import actions, crossed, duality, linalg, smash, suites
from hopfdual.catalog import get, list_entries
from hopfdual.errors import ValidationError
from hopfdual.instancefile import export_entry_json, parse_instance_dict
from hopfdual.linalg import LinearMap, unit_vectors
from hopfdual.rings import RationalRing
from hopfdual.suites import applicable_suites, run_suite

COUNTED = ((duality, "build_diagram"), (duality, "delta_map"), (duality, "nu_map"),
           (crossed, "crossed_from_integral"), (crossed, "opposite_crossed"))


def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace ``module.name`` in every hopfdual namespace that imported it."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("hopfdual")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, replacement)


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the builders in COUNTED, by name."""
    counts = dict.fromkeys((name for _, name in COUNTED), 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for module, name in COUNTED:
        patch_everywhere(monkeypatch, module, name,
                         counting(name, getattr(module, name)))
    return counts


def records(report):
    return [(r.check_id, r.passed, r.witness)
            for section in report.sections for r in section.records]


@pytest.mark.parametrize("name,suite,expected", [
    # one right and one op diagram for the theorem suite, ν built for the
    # right one only; the matrix form reuses the certified right isomorphism
    ("sweedler4_Z3", "all", (2, 2, 1, 0, 0)),
    ("gauss", "duality", (2, 2, 1, 0, 0)),
    # the route reuses the extraction that gave the crossed product; the
    # round trip extracts from θ(h) = 1#h on it
    ("gauss_cleft", "cleft", (1, 1, 1, 2, 0)),
    # on a crossed-product payload that extraction is the round trip itself
    ("gauss", "cleft", (1, 1, 1, 1, 0)),
    # the direct right diagram and the op diagram of the opposite product;
    # τ, the comodule-algebra iso and the chain share one opposite product
    ("gauss_cleft", "opposite", (2, 2, 1, 1, 1)),
])
def test_each_object_is_built_once_per_run(calls, name, suite, expected):
    entry = get(name)
    assert all(r[1] for r in records(run_suite(entry, suite)))
    once = tuple(calls.values())
    assert once == expected
    # a second call builds everything anew: nothing outlives run_suite
    run_suite(entry, suite)
    assert tuple(calls.values()) == tuple(2 * n for n in once)


def triv_c2_small_u():
    """triv_C2 with U = span{ε}: λ is a morphism, χ is not square."""
    doc = json.loads(export_entry_json(get("triv_C2")))
    doc["U"] = [["1", "1"]]
    return parse_instance_dict(doc).to_entry()


def with_u(name, U):
    """The catalog entry ``name`` with the U span ``U`` (dense, as input is)."""
    return dataclasses.replace(get(name), u_span=U)


# B#U and H#U per (comodule algebra, U, kind) and λ per U, keyed by object
# identity.  The regular comodule is made afresh for each build, so its
# algebra, H's own, stands for it.  #(H,H) is no coordinate smash.  B#U is
# H#U's table on B's carrier when B's product, unit and coaction are H's:
# R#H of a bare entry, and triv_C2, whose A is R.  smash_compare's right
# smash is the run's H#U over H*, so on an entry without a span it is the
# right H#U.  ε reads each side's U and λ, and the cleft route the right B#U
# of a crossed-product payload.  sweedler4_Z3 builds H#U on each side;
# gauss (A = C) its B#U and H#U on each side, and the opposite chain one
# more; triv_c2_small_u runs every suite: H#U on each side, smash_compare's
# over H* beside the span, and the opposite chain's three smashes with its
# own λ̄.
@pytest.mark.parametrize("entry,suite,smashes,lambdas", [
    (lambda: get("sweedler4_Z3"), "all", 2, 2),
    (lambda: get("gauss"), "duality", 4, 2),
    (lambda: get("gauss"), "opposite", 5, 2),
    (triv_c2_small_u, "all", 6, 3),
])
def test_run_suite_builds_each_side_object_once(monkeypatch, entry, suite,
                                                smashes, lambdas):
    smash_keys, lambda_keys = [], []
    coordinate_smash, lambda_map = smash._coordinate_smash, duality.lambda_map

    def counted_smash(B, U, op):
        smash_keys.append((B.algebra, U, op))
        return coordinate_smash(B, U, op)

    def counted_lambda(hopf, U):
        lambda_keys.append((U,))
        return lambda_map(hopf, U)

    monkeypatch.setattr(smash, "_coordinate_smash", counted_smash)
    patch_everywhere(monkeypatch, duality, "lambda_map", counted_lambda)
    run_suite(entry(), suite)
    for keys in (smash_keys, lambda_keys):  # held here, so no id is reused
        ids = [tuple(map(id, key)) for key in keys]
        assert len(set(ids)) == len(ids)
    assert (len(smash_keys), len(lambda_keys)) == (smashes, lambdas)


@pytest.mark.parametrize("name", ["sweedler4_Q", "sweedler4_smash_Q"])
def test_each_side_reads_its_own_lambda_and_maps(monkeypatch, name):
    # H is noncommutative, so λ ≠ λ̄; for U = H* both are invertible and the
    # RL verdicts cannot tell them apart, so the arguments are checked: each
    # factorization is the one of λ for that U's side, each compatibility
    # check reads U on its own side, and the corollary route the right pair
    seen = {fn: [] for fn in ("rl_check", "compat_check", "bm_route_hypotheses")}
    for fn, calls in seen.items():
        def spy(*args, original=getattr(duality, fn), calls=calls):
            calls.append(args)
            return original(*args)
        patch_everywhere(monkeypatch, duality, fn, spy)
    assert all(r[1] for r in records(run_suite(get(name), "duality")))
    for hopf, U, lam_coords, _ in seen["rl_check"]:
        lam = duality.lambda_map(hopf, U)
        assert [lam_coords(col) for col in lam.sparse_columns()] == \
            unit_vectors(hopf.ring, lam.domain.rank)
    assert {U.side.value for _, U, *_ in seen["rl_check"]} == {"right", "left"}
    for _, U, _, _, side, *_ in seen["compat_check"]:
        assert (U.side.value == "right") == (side is duality.DiagramSide.RIGHT)
    (cp, U, _, maps), = seen["bm_route_hypotheses"]
    assert U.side.value == "right"
    assert maps == duality.compat_maps(cp, duality.DiagramSide.RIGHT)


def counter(monkeypatch, module, name):
    """Count calls of ``module.name`` from here on, in every namespace."""
    count = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, module, name, counted)
    return count


# the theorem suite builds φ, ψ once per side: the trivial-cocycle route
# checks the right side's pair against its own V
@pytest.mark.parametrize("name,expected", [("sweedler4_Z3", 2), ("gauss", 2),
                                           ("swap_smash", 2)])
def test_compat_maps_are_built_once_per_side(monkeypatch, name, expected):
    entry = get(name)
    built = counter(monkeypatch, duality, "compat_maps")
    report = run_suite(entry, "duality")
    assert all(r[1] for r in records(report))
    assert built[0] == expected
    ids = {r[0] for r in records(report)}
    assert ("bm.phi" in ids) == (name != "gauss")  # σ is nontrivial on gauss


@pytest.mark.parametrize("name", [name for name, _, _ in list_entries()])
def test_theta_is_built_at_most_once_per_run(monkeypatch, name):
    # θ(h) = 1#h on the crossed product serves the cleft suite's round trip
    # and the opposite product alike
    entry = get(name)
    built = counter(monkeypatch, crossed, "integral_from_crossed")
    assert all(r[1] for r in records(run_suite(entry, "all")))
    assert built[0] <= 1


def test_a_failed_duality_iso_is_built_once_per_run(calls):
    # U = span{ε, α}, Sweedler's two characters, on sweedler4_smash_Q: the
    # right compatibility fails, so the theorem suite asks for no
    # isomorphism; the cleft route and the opposite chain both read the one
    # failed right isomorphism, whose γ leaves χ's image
    failed = {r[0]: r[2] for r in records(run_suite(
        with_u("sweedler4_smash_Q", [(1, 1, 0, 0), (1, -1, 0, 0)]), "all")) if not r[1]}
    assert calls["build_diagram"] == 1
    assert failed == {"right.compat": "(1,y)", "duality.theorems": None,
                      **dict.fromkeys(("cleft.route", "opposite.chain"),
                                      "γ(y⊗1⊗u0) is not in the image of χ")}


def test_a_failed_diagram_fails_every_check_that_needs_it(monkeypatch):
    # the g(k₅)-on-the-right π breaks π∘α = γ, so the right isomorphism never
    # certifies: the theorem suite and the matrix form must both fail on it
    monkeypatch.setattr(duality, "pi_map",
                        lambda cp, side, nu: dense_oracle.pi_map(
                            cp, duality.DiagramSide.RIGHT, g_left=False))
    failed = {r[0]: r[2] for r in records(run_suite(get("sweedler4_smash_Q"),
                                                    "duality")) if not r[1]}
    assert set(failed) == {"duality.theorems", "duality.matrix"}
    assert failed["duality.theorems"] == failed["duality.matrix"]
    assert "π∘α ≠ γ" in failed["duality.matrix"]


def test_a_failed_opposite_product_fails_each_check_with_its_witness(monkeypatch):
    def no_tau(cp, cleft):
        raise ValidationError("τ fails the cocycle flags")

    patch_everywhere(monkeypatch, crossed, "opposite_crossed", no_tau)
    result = {r[0]: r for r in records(run_suite(get("gauss_cleft"), "opposite"))}
    tau, iso = result["opposite.tau"], result["opposite.iso"]
    assert not tau[1] and not iso[1]
    assert tau[2] and tau[2] == iso[2] == "τ fails the cocycle flags"
    assert result["opposite.chain"][2] == tau[2]


def test_every_stored_sparse_column_is_canonical(monkeypatch):
    # LinearMap equality and hashing compare sparse columns, so every column
    # handed to from_sparse_columns in a catalog pass must be canonical: rows
    # strictly increasing and in range, no zero, canonical ring elements
    bad, seen = [], [0]
    original = LinearMap.from_sparse_columns

    def checked(domain, codomain, cols):
        cols = [tuple(col) for col in cols]
        ring, rows = domain.ring, [[i for i, _ in col] for col in cols]
        seen[0] += len(cols)
        if len(cols) != domain.rank or any(
                r != sorted(set(r)) or not all(0 <= i < codomain.rank for i in r)
                for r in rows) or any(
                not c or type(ring.of(c)) is not type(c) or ring.of(c) != c
                for col in cols for _, c in col):
            bad.append((domain.rank, codomain.rank, cols))
        return original(domain, codomain, cols)

    monkeypatch.setattr(LinearMap, "from_sparse_columns", staticmethod(checked))
    for name, _, _ in list_entries():
        entry = get(name)
        for suite in applicable_suites(entry):
            run_suite(entry, suite)
    assert seen[0] and bad == []


@pytest.mark.parametrize("name", ["Q_C3", "sweedler4_Q", "sweedler4_smash_Q"])
def test_no_integral_fraction_is_made_in_a_q_run(monkeypatch, name):
    # over Q an integral element is an int: no ring operation returns, no map
    # stores and no canonical span returns a Fraction with denominator 1
    seen, bad = [0, 0], []
    store, span = LinearMap._store, linalg.canonical_span

    def integral_fractions(values):
        return [x for x in values if type(x) is Fraction and x.denominator == 1]

    def checked_store(self, domain, codomain, cols, rows):
        seen[0] += 1
        bad.extend(integral_fractions(c for col in cols for _, c in col))
        bad.extend(integral_fractions(x for row in rows or () for x in row))
        store(self, domain, codomain, cols, rows)

    def checked_span(ring, vectors, length):
        out = span(ring, vectors, length)
        seen[1] += 1
        bad.extend(integral_fractions(x for v in out for x in v))
        return out

    def checked_op(op):
        def checked(self, *args):
            out = op(self, *args)
            bad.extend(integral_fractions([out]))
            return out
        return checked

    for op in ("of", "add", "sub", "mul", "neg", "inv"):
        monkeypatch.setattr(RationalRing, op, checked_op(getattr(RationalRing, op)))
    monkeypatch.setattr(LinearMap, "_store", checked_store)
    patch_everywhere(monkeypatch, linalg, "canonical_span", checked_span)
    run_suite(get(name), "all")
    assert seen[0] and seen[1] and bad == []


def test_only_the_null_space_readers_compute_a_kernel(monkeypatch):
    # a kernel is a canonical span (a Hermite or echelon form); a solve
    # computes none, so over a run of every catalog entry only the two
    # builders that read a null space compute one
    kernel, callers = linalg.PreparedSolver.kernel, set()

    def counted(self):
        if self._kernel is None:
            callers.add(sys._getframe(1).f_code.co_name)
        return kernel(self)

    monkeypatch.setattr(linalg.PreparedSolver, "kernel", counted)
    for name, _, _ in list_entries():
        run_suite(get(name), "all")
    assert callers == {"_coinvariants", "coaction_preimage_of_U"}


@pytest.mark.parametrize("suite", ["smash", "duality"])
def test_structure_builders_build_no_dense_rows(monkeypatch, suite):
    # the dense rows of a map are built only when something reads `matrix`,
    # and in the library only the instance writer does: no check of a suite
    # builds them, not even through the solvers, which read sparse columns
    package = Path(smash.__file__).parent
    original = LinearMap.matrix
    builders = set()

    def matrix(self):
        if self._rows is None:
            frame = sys._getframe(1)
            while frame is not None:
                code = frame.f_code
                if Path(code.co_filename).parent == package:
                    builders.add((Path(code.co_filename).stem, code.co_name))
                frame = frame.f_back
        return original.fget(self)

    monkeypatch.setattr(LinearMap, "matrix", property(matrix))
    entry = parse_instance_dict(cyclic_document(5, 11)).to_entry()
    assert all(r[1] for r in records(run_suite(entry, suite)))
    assert not builders
    export_entry_json(entry)  # the writer does, and the patched property sees it
    assert ("instancefile", "_show_matrix") in builders


def _label_free_entries():
    from test_certificates import rebased_sweedler  # it imports this module
    yield from (get(name) for name, _, _ in list_entries())
    for n in (5, 6):
        yield parse_instance_dict(cyclic_document(n, 11)).to_entry()
    yield rebased_sweedler("rebased_a", [[1, 0, 0, 0], [0, 1, 0, 0],
                                         [1, 0, 1, 0], [0, 0, 0, 1]])


def test_a_passing_run_reads_no_basis_name(monkeypatch):
    # a name is built only for a witness, so building an entry and a run
    # where every check passes call no label function of any module, input
    # or derived, and read no label tuple
    read = []
    original = linalg.FreeModule.__getattribute__

    def watched(self, name):
        value = original(self, name)
        if name == "labels":
            read.append(name)
        if name != "label":
            return value

        def label(i):
            read.append(i)
            return value(i)
        return label

    monkeypatch.setattr(linalg.FreeModule, "__getattribute__", watched)
    for entry in _label_free_entries():
        assert run_suite(entry, "all").ok, entry.name
        assert not read, entry.name


# --- the convolution-inverse records, each made to fail -----------------------


def with_one_entry_changed(m: LinearMap) -> LinearMap:
    """``m`` with one added to the first entry of its first nonzero column."""
    ring = m.ring
    cols = [list(col) for col in m.sparse_columns()]
    col = next(col for col in cols if col)
    i, x = col[0]
    y = ring.add(x, ring.one)
    col[0:1] = [(i, y)] if y else []
    return LinearMap.from_sparse_columns(m.domain, m.codomain, cols)


def failed_ids(report):
    return [check_id for check_id, passed, _ in records(report) if not passed]


def test_a_changed_sigma_inverse_fails_only_crossed_sigma_inverse():
    # the stored σ⁻¹ of a freshly parsed gauss, one entry off
    entry = parse_instance_dict(json.loads(export_entry_json(get("gauss")))).to_entry()
    cocycle = entry.payload.cocycle
    cocycle.sigma_inv = with_one_entry_changed(cocycle.sigma_inv)
    assert failed_ids(run_suite(entry, "crossed")) == ["crossed.sigma_inverse"]


def test_a_mutant_inversion_fails_cleft_theta_inverse(monkeypatch):
    # θ⁻¹ cannot be changed in place: the extraction then raises
    # action.unit_acts before any cleft record is made
    entry = get("gauss_cleft")
    invert = suites.convolution_invert
    monkeypatch.setattr(suites, "convolution_invert",
                        lambda *args: with_one_entry_changed(invert(*args)))
    assert "cleft.theta_inverse" in failed_ids(run_suite(entry, "cleft"))


def test_a_mutant_convolution_fails_cleft_invertible(monkeypatch):
    entry = get("gauss_cleft")
    convolve = crossed.convolve
    monkeypatch.setattr(crossed, "convolve",
                        lambda *args: with_one_entry_changed(convolve(*args)))
    assert "cleft.invertible" in failed_ids(run_suite(entry, "cleft"))


def test_a_changed_sigma_inverse_fails_its_records_in_a_whole_run():
    # θ⁻¹ of θ(h) = 1#h is built from the stored σ⁻¹, so it fails
    # CleftData.validate too: a failed cleft.invertible record, not an error
    # out of the whole run
    entry = parse_instance_dict(json.loads(export_entry_json(get("gauss")))).to_entry()
    cocycle = entry.payload.cocycle
    cocycle.sigma_inv = with_one_entry_changed(cocycle.sigma_inv)
    failed = failed_ids(run_suite(entry, "all"))
    assert {"crossed.sigma_inverse", "cleft.invertible"} <= set(failed)


# --- the records that read the sparse membership and Sweedler sums, each made
# --- to fail by a kernel mutant


def test_a_mutant_sweedler_sum_fails_duality_epsilon(monkeypatch):
    columns = duality._sweedler_columns

    def changed(b, rank, *args):
        cols = columns(b, rank, *args)
        return with_one_entry_changed(LinearMap.from_sparse_columns(
            linalg.FreeModule(b.ring, len(cols), str),
            linalg.FreeModule(b.ring, rank * b.rank, str), cols)).sparse_columns()

    monkeypatch.setattr(duality, "_sweedler_columns", changed)
    result = {r[0]: r for r in records(run_suite(get("gauss"), "duality"))}
    assert result["duality.epsilon"][1:] == (False, "ε and ε⁻¹ are not mutually inverse")


def test_a_membership_that_loses_a_generator_fails_duality_rl(monkeypatch):
    # λ of U = H* is invertible, so ρ(g) is in its span until a column goes:
    # here λ(e#δ_e) = ρ(δ_e)
    solver = suites.PreparedSolver
    monkeypatch.setattr(suites, "PreparedSolver",
                        lambda ring, cols, m: solver(ring, list(cols)[1:], m))
    result = {r[0]: r for r in records(run_suite(get("Z_C2"), "duality"))}
    assert result["duality.rl"][1:] == (False, None)


def test_an_empty_coefficient_space_fails_bm_phi_and_bm_psi(monkeypatch):
    # with V = ∅, J(A⊗V) = 0, so the first nonzero column of φ (of ψ) is the
    # first one outside it
    monkeypatch.setattr(duality, "coefficient_space_of_action", lambda action: [])
    entry = get("swap_smash")
    result = {r[0]: r for r in records(run_suite(entry, "duality"))}
    cp = entry.payload
    label = linalg.product_label(cp.action.hopf.carrier, cp.action.algebra.carrier)
    for check_id, m in zip(("bm.phi", "bm.psi"),
                           duality.compat_maps(cp, duality.DiagramSide.RIGHT)):
        first = next(j for j, col in enumerate(m.sparse_columns()) if col)
        assert result[check_id][1:] == (False, label(first))
    assert result["bm.rl"][1]


def test_a_j_that_loses_a_functional_fails_cleft_maps(monkeypatch):
    # J(A⊗V) for V = H* is all of Hom(H, A) until V loses δ_g
    generators = suites.j_generators
    monkeypatch.setattr(suites, "j_generators",
                        lambda rA, V, rH: generators(rA, V[:-1], rH))
    result = {r[0]: r for r in records(run_suite(get("gauss"), "cleft"))}
    assert result["cleft.maps"][1:] == (False, None)


# --- the theorem suite's compatibility records, the coinvariant closure and
# --- the input boundary of U and V


def with_v(entry, V):
    """``entry`` with the explicit V span ``V`` (dense, as input is)."""
    return dataclasses.replace(entry, v_span=V)


def test_a_v_without_its_last_functional_fails_right_compat():
    # V = H* minus δ_g on swap_smash: φ(e⊗u0) leaves J(A⊗V); the failed
    # record and the υ coaction records reach the report, and the suite
    # stops before any isomorphism or the op side
    entry = get("swap_smash")
    h = entry.hopf_data()
    rep = run_suite(with_v(entry, [h.carrier.basis_vector(i) for i in range(h.rank - 1)]),
                    "duality")
    result = {r[0]: r for r in records(rep)}
    assert result["right.compat"][1:] == (False, "(e,u0)")
    assert result["duality.theorems"][1:] == (False, None)
    assert {"upsilon.1a", "upsilon.1b", "upsilon.1c", "upsilon.3", "upsilon.4"} <= set(result)
    assert not any(k.startswith(("right.duality", "op.", "omega.", "bm.")) for k in result)
    assert len(rep.sections[0].records) == 12


def test_an_op_side_preimage_that_loses_a_functional_fails_op_compat(monkeypatch):
    # V = ω⁻¹(H⊗U) without its last functional on the op side only: the right
    # side is certified, op.compat fails with its φ̄ witness, and no op
    # isomorphism is certified
    preimage = duality.coaction_preimage_of_U
    monkeypatch.setattr(duality, "coaction_preimage_of_U", lambda table, h, U: (
        preimage(table, h, U)[:-1] if table.side is duality.CoactionSide.OMEGA
        else preimage(table, h, U)))
    result = {r[0]: r for r in records(run_suite(get("swap_smash"), "duality"))}
    assert result["right.compat"][1:] == (True, None)
    assert result["right.duality"][1:] == (True, None)
    assert result["op.compat"][1:] == (False, "(e,u0)")
    assert "op.duality" not in result
    assert result["duality.theorems"][1:] == (False, None)


def test_products_that_leave_the_coinvariants_fail_crossed_coinvariants(monkeypatch):
    # the coinvariants of a comodule algebra form a subalgebra, so only a
    # mutant can break the product half: every product of coinvariants here
    # gains the last basis vector of B, which is not coinvariant, while the
    # unit is still expressed
    bilinear = actions.bilinear

    def leaving(ring, m, rank):
        prod = bilinear(ring, m, rank)
        last = ((m.codomain.rank - 1, ring.one),)
        return lambda u, v: linalg.combine_columns(ring, [(prod(u, v), ring.one),
                                                          (last, ring.one)])

    monkeypatch.setattr(actions, "bilinear", leaving)
    for name in ("swap_smash", "gauss"):
        failed = [r for r in records(run_suite(get(name), "crossed")) if not r[1]]
        assert failed == [("crossed.coinvariants", False, None)]


@pytest.mark.parametrize("key", ["U", "V"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_a_span_vector_of_the_wrong_length_is_an_input_error(key, extra):
    # an in-process entry's U or V is read through FreeModule.vector before
    # the first record: one entry short or long raises the input error the
    # CLI answers with exit 2, not a check verdict
    entry = get("swap_smash")
    h = entry.hopf_data()
    vectors = [tuple(range(1, h.rank + 1 + extra))] + \
        [h.carrier.basis_vector(i) for i in range(h.rank)]
    entry = dataclasses.replace(entry, **{"u_span" if key == "U" else "v_span": vectors})
    with pytest.raises(ValidationError, match=f"{key} element has wrong length"):
        run_suite(entry, "duality")
