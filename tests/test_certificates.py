"""The run-scoped certificate store: ``run_suite`` shares the results of
algebra validation, morphism witnesses, inverses and coinvariants among
equal inputs of one call, and nowhere else.  Every shared result must be
the one a fresh computation on the caller's own input would give."""
import collections
import contextlib
from contextvars import ContextVar
from fractions import Fraction

import pytest

from hopfdual import actions, hopf, linalg, suites
from hopfdual.actions import ComoduleAlgebraData, coinvariants, regular_comodule
from hopfdual.catalog import CatalogEntry, get, group_algebra, sweedler_hopf
from hopfdual.errors import NotInvertible
from hopfdual.hopf import AlgebraData, algebra_morphism_witness
from hopfdual.linalg import (
    CERTIFICATES,
    LinearMap,
    free_module,
    invert_map,
    sparse_vector,
    tensor_module,
)
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.suites import run_suite
from test_duality import rebase_hopf
from test_suites import triv_c2_small_u

Z3 = Zmod(3)


@pytest.fixture
def computed(monkeypatch):
    """Per kind, the certificates computed rather than read from a store."""
    counts = collections.Counter()
    original = linalg.certified

    def counting(kind, key, compute):
        def counted():
            counts[kind] += 1
            return compute()
        return original(kind, key, counted)

    for module in (linalg, hopf, actions):
        monkeypatch.setattr(module, "certified", counting)
    return counts


@contextlib.contextmanager
def certificate_store():
    """A store for the calls inside the block, as ``run_suite`` sets one."""
    token = CERTIFICATES.set({})
    try:
        yield
    finally:
        CERTIFICATES.reset(token)


def algebra(ring, cols, unit, labels=None):
    """The algebra on sparse table columns ``cols`` with the given unit."""
    r = len(unit)
    carrier = free_module(ring, labels or [f"e{i}" for i in range(r)])
    return AlgebraData(carrier, LinearMap.from_sparse_columns(
        tensor_module(carrier, carrier), carrier,
        [[(t, ring.of(c)) for t, c in col] for col in cols]), unit)


# Z[C2]: e0 is the unit and e1·e1 = e0; BROKEN has e0·e1 = 2e1, so it is
# neither associative at (e0, e0, e1) nor unital at e1
C2 = [[(0, 1)], [(1, 1)], [(1, 1)], [(0, 1)]]
BROKEN = [[(0, 1)], [(1, 2)], [(1, 1)], [(0, 1)]]


def verdicts(rep):
    return [(r.check_id, r.passed, r.witness) for r in rep.records]


# --- scope ------------------------------------------------------------------


def test_no_store_is_installed_outside_run_suite(computed):
    assert CERTIFICATES.get() is None
    m = LinearMap(free_module(ZZ, ["a", "b"]), free_module(ZZ, ["a", "b"]),
                  [[2, 1], [1, 1]])
    assert invert_map(m) == invert_map(m)
    assert computed["inverse"] == 2
    entry = get("Z_C2")
    entry.hopf_data()  # the payload is built, and validated, before either run
    computed.clear()
    run_suite(entry, "hopf")
    once = dict(computed)
    assert CERTIFICATES.get() is None
    # a second run starts from an empty store
    computed.clear()
    run_suite(entry, "hopf")
    assert dict(computed) == once


def test_the_store_is_reset_when_a_suite_raises(monkeypatch):
    seen = []

    def failing(ctx):
        invert_map(ctx.hopf.antipode)
        seen.append(dict(CERTIFICATES.get()))
        raise RuntimeError("suite failed")

    monkeypatch.setitem(suites._RUNNERS, "hopf", failing)
    with pytest.raises(RuntimeError):
        run_suite(get("Z_C2"), "hopf")
    assert "inverse" in {kind for kind, _ in seen[0]}
    assert CERTIFICATES.get() is None


# --- exactness --------------------------------------------------------------


def test_a_changed_constant_gets_its_own_verdict_and_witness(computed):
    inputs = [(C2, (1, 0)), (BROKEN, (1, 0)), (C2, (0, 1))]
    fresh = [verdicts(algebra(ZZ, cols, unit).validate()) for cols, unit in inputs]
    assert fresh == [
        [("algebra.assoc", True, None), ("algebra.unit", True, None)],
        [("algebra.assoc", False, "(e0,e0,e1)"), ("algebra.unit", False, "e1")],
        [("algebra.assoc", True, None), ("algebra.unit", False, "e0")]]
    computed.clear()
    with certificate_store():
        stored = [verdicts(algebra(ZZ, cols, unit).validate())
                  for cols, unit in inputs + inputs]
    assert stored == fresh + fresh
    assert computed["algebra"] == 3


def test_equal_integer_tables_over_different_rings_are_not_shared(computed):
    # e·e = 2e with unit 2: 2·2 = 1 holds over Z/3 only
    with certificate_store():
        unit_laws = [algebra(ring, [[(0, 2)]], (2,)).validate().records[1].passed
                     for ring in (Z3, ZZ, QQ)]
        assert unit_laws == [True, False, False]
        assert computed["algebra"] == 3
        # 2 is invertible over Z/3 and Q, not over Z
        two = [LinearMap(free_module(ring, ["x"]), free_module(ring, ["x"]),
                         [[2]]) for ring in (Z3, QQ, ZZ)]
        assert invert_map(two[0]).matrix == ((2,),)
        assert invert_map(two[1]).matrix == ((Fraction(1, 2),),)
        with pytest.raises(NotInvertible):
            invert_map(two[2])
        # a map e ↦ 2e from (e·e = 2e, 1 = 2e) to (e·e = e, 1 = e) is unital
        # over Z/3 only
        witnesses = []
        for ring in (Z3, ZZ, QQ):
            source = algebra(ring, [[(0, 2)]], (2,))
            target = algebra(ring, [[(0, 1)]], (1,))
            witnesses.append(algebra_morphism_witness(
                source, target, LinearMap(source.carrier, target.carrier, [[2]])))
        assert witnesses == [None, "1", "1"]


def test_a_morphism_is_recomputed_when_any_input_differs(computed):
    source = algebra(ZZ, C2, (1, 0))
    ident = LinearMap.identity(source.carrier)
    swap = LinearMap(source.carrier, source.carrier, [[0, 1], [1, 0]])
    with certificate_store():
        assert algebra_morphism_witness(source, source, ident) is None
        # only the target unit differs
        assert algebra_morphism_witness(
            source, algebra(ZZ, C2, (0, 1)), ident) == "1"
        # only the source unit differs
        assert algebra_morphism_witness(
            algebra(ZZ, C2, (0, 1)), source, ident) == "1"
        # only the map differs
        assert algebra_morphism_witness(source, source, swap) == "1"
        # only the source table differs
        assert algebra_morphism_witness(
            algebra(ZZ, BROKEN, (1, 0)), source, ident) == "(e0,e1)"
        assert algebra_morphism_witness(source, source, ident) is None
    assert computed["morphism"] == 5


# --- labels -----------------------------------------------------------------


def test_equal_inputs_under_other_labels_report_their_own_witnesses():
    with certificate_store():
        for labels in (("a", "b"), ("x", "y")):
            x, y = labels
            broken = algebra(ZZ, BROKEN, (1, 0), labels)
            assert verdicts(broken.validate()) == [
                ("algebra.assoc", False, f"({x},{x},{y})"),
                ("algebra.unit", False, y)]
            target = algebra(ZZ, C2, (1, 0), labels)
            ident = LinearMap.identity(broken.carrier)
            assert algebra_morphism_witness(broken, target, ident) == f"({x},{y})"
            m = LinearMap(broken.carrier, target.carrier, [[2, 1], [1, 1]])
            inv = invert_map(m)
            assert inv.domain.labels == inv.codomain.labels == labels
            assert inv.matrix == ((1, -1), (-1, 2))


def relabelled_comodule(c: ComoduleAlgebraData, labels) -> ComoduleAlgebraData:
    B = c.algebra
    carrier = free_module(B.ring, labels)
    alg = AlgebraData(carrier, LinearMap(tensor_module(carrier, carrier), carrier,
                                         B.mult.matrix), B.unit)
    coaction = LinearMap(carrier, tensor_module(carrier, c.bialgebra.carrier),
                         c.coaction.matrix)
    return ComoduleAlgebraData(c.hopf, alg, coaction)


def test_comodules_differing_only_in_labels_share_their_coinvariants(computed):
    # B^coH does not depend on basis names, so its certificate key holds
    # none; it holds the ring, since equal integer tables differ by ring
    c = regular_comodule(get("Z_C2").hopf_data())
    other = relabelled_comodule(c, ("p", "q"))
    over_z3 = regular_comodule(group_algebra(Z3, 2))
    assert over_z3.coaction.sparse_columns() == c.coaction.sparse_columns()
    with certificate_store():
        coins = [coinvariants(x) for x in (c, other, c, other)]
        coin_z3 = coinvariants(over_z3)
    assert all(coin is coins[0] for coin in coins)
    assert coins[0].coordinates(sparse_vector(other.algebra.unit)) == ((0, 1),)
    assert coin_z3 is not coins[0] and coin_z3.module.ring == Z3
    assert computed["coinvariants"] == 2


# --- equivalence ------------------------------------------------------------


def rebased_sweedler(name, P):
    """Sweedler's Hopf algebra over Z/3 in the basis f_a = Σ_i P[i][a]·e_i."""
    def build():
        h = sweedler_hopf(Z3)
        return rebase_hopf(h, LinearMap(h.carrier, h.carrier, P))
    return CatalogEntry(name, "Sweedler's algebra over Z/3 in another basis",
                        "hopf", Z3, _build=build)


ENTRIES = {
    "sweedler4_Z3": lambda: get("sweedler4_Z3"),
    "gauss": lambda: get("gauss"),
    "gauss_cleft": lambda: get("gauss_cleft"),
    "sweedler4_smash_Q": lambda: get("sweedler4_smash_Q"),
    "triv_C2_span_eps": triv_c2_small_u,
    "rebased_a": lambda: rebased_sweedler("rebased_a", [
        [1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
    "rebased_b": lambda: rebased_sweedler("rebased_b", [
        [1, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
}


@pytest.mark.parametrize("name", list(ENTRIES))
def test_canonical_reports_are_identical_without_the_store(monkeypatch, computed,
                                                           name):
    entry = ENTRIES[name]()
    entry.hopf_data()  # the payload is built before either run
    computed.clear()
    shared = run_suite(entry, "all").to_json(canonical=True)
    with_store = sum(computed.values())
    computed.clear()
    # run_suite then sets a variable that no kernel reads
    monkeypatch.setattr(suites, "CERTIFICATES", ContextVar("off", default=None))
    alone = run_suite(entry, "all").to_json(canonical=True)
    assert shared == alone
    assert with_store < sum(computed.values())
