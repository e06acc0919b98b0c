"""The Hopf, comodule and weak-action validators against their Kronecker
composites, and guards that they compose none.

``dense_oracle`` keeps the composite bodies: ``validate_hopf`` (with
``validate_bialgebra``, ``validate_coalgebra`` and
``anti_morphism_checks``), ``validate_comodule_algebra`` and
``validate_weak_action`` (with ``spread_coproduct``).  The hypothesis test
draws a catalog Hopf algebra, comodule algebra or weak action (over Z, Q,
Z/3 and Z/6), R[C5] over Z/7 parsed from its instance document, or the
rebased Sweedler algebra over Z/3; writes H and the algebra it coacts or acts
on in random unitriangular bases; optionally changes one structure constant
of m, Δ, ε, S, S̄, ϱ or the action; and requires the same (id, statement,
verdict, witness) records from the library and the oracle.

The guards count Kronecker products, compositions and tensor algebras while
the validators run on every catalog entry and on R[C6] over Z/11, and the
``kron_column`` calls of the crossed table of that entry's hit action: one
per (Δ²(h), Δ(l)) leg pair whose σ factor is nonzero.
"""
import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from builders import cyclic_document, unvalidated_hopf
from hopfdual import catalog, crossed, hopf, linalg
from hopfdual.catalog import group_algebra_parts
from hopfdual.actions import (
    ComoduleAlgebraData,
    WeakActionData,
    regular_comodule,
    validate_weak_action,
)
from hopfdual.crossed import crossed_table, trivial_sigma
from hopfdual.hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    HopfData,
    dual_hopf,
    validate_hopf,
)
from hopfdual.instancefile import parse_instance_dict
from hopfdual.linalg import LinearMap, invert_map, kron
from hopfdual.rings import ZZ
from hopfdual.smash import hit_action_of_dual
from test_duality import rebased_sweedler_Z3
from test_suites import patch_everywhere


def record_tuples(rep):
    return [(r.check_id, r.statement, r.passed, r.witness) for r in rep.records]


def cyclic_entry(n, p):
    return parse_instance_dict(cyclic_document(n, p)).to_entry()


@functools.cache
def cases():
    """kind -> name -> a Hopf algebra, comodule algebra or weak action: every
    distinct catalog Hopf algebra with its regular comodule and the hit
    action of its dual, every catalog payload's comodule algebra and action,
    R[C5] over Z/7, and the rebased Sweedler algebra with its A#H."""
    entries = [(name, catalog.get(name)) for name, _, _ in catalog.list_entries()]
    rebased = rebased_sweedler_Z3()
    hopfs = {}
    for name, h in ([(name, e.hopf_data()) for name, e in entries]
                    + [("Zmod7_C5", cyclic_entry(5, 7).hopf_data()),
                       ("rebased_sweedler_Z3", rebased.action.hopf)]):
        if not any(h == g for g in hopfs.values()):
            hopfs[name] = h
    out = {"hopf": hopfs, "comodule": {}, "action": {}}
    for name, h in hopfs.items():
        out["comodule"][f"{name}/regular"] = regular_comodule(h)
        out["action"][f"{name}/hit"] = hit_action_of_dual(h)
    payloads = [(name, e.payload) for name, e in entries if e.kind != "hopf"]
    for name, payload in payloads + [("rebased_sweedler_Z3", rebased)]:
        if hasattr(payload, "comodule_algebra"):
            out["comodule"][name] = payload.comodule_algebra
        else:
            out["comodule"][name] = payload.comodule
            out["action"][name] = payload.action
    return out


def unitriangular(data, carrier):
    """P with ones on the diagonal and drawn entries above it, so that
    e_j ↦ Σ P[i][j]·e_i is a change of basis over any ring."""
    ring, r = carrier.ring, carrier.rank
    return LinearMap(carrier, carrier, [
        [ring.one if i == j else data.draw(dense.elements(ring)) if i < j
         else ring.zero for j in range(r)] for i in range(r)])


def mutated(data, m):
    """``m`` with one entry replaced by another drawn ring element."""
    rows = [list(r) for r in m.matrix]
    i = data.draw(st.integers(0, m.codomain.rank - 1))
    j = data.draw(st.integers(0, m.domain.rank - 1))
    rows[i][j] = data.draw(dense.elements(m.ring).filter(lambda x: x != rows[i][j]))
    return LinearMap(m.domain, m.codomain, rows)


def draw_case(data):
    """A case in random unitriangular bases P of H and Q of the algebra it
    coacts or acts on, every structure map conjugated, and at most one
    constant of one of them changed."""
    kind = cases()[data.draw(st.sampled_from(("hopf", "comodule", "action")))]
    case = kind[data.draw(st.sampled_from(sorted(kind)))]
    h = case if isinstance(case, HopfData) else case.hopf
    b = h.bialgebra
    P = unitriangular(data, b.carrier)
    Pi = invert_map(P)
    maps = {"m": Pi @ b.algebra.mult @ kron(P, P),
            "Δ": kron(Pi, Pi) @ b.coalgebra.comult @ P,
            "ε": b.coalgebra.counit @ P,
            "S": Pi @ h.antipode @ P,
            "S̄": Pi @ h.twisted_antipode @ P}
    if isinstance(case, (ComoduleAlgebraData, WeakActionData)):
        A = case.algebra
        Q = unitriangular(data, A.carrier)
        Qi = invert_map(Q)
        maps["m_A"] = Qi @ A.mult @ kron(Q, Q)
        if isinstance(case, ComoduleAlgebraData):
            maps["ϱ"] = kron(Qi, Pi) @ case.coaction @ Q
        else:
            maps["action"] = Qi @ case.action @ kron(P, Q)
    if data.draw(st.booleans()):
        role = data.draw(st.sampled_from(sorted(maps)))
        maps[role] = mutated(data, maps[role])
    H = b.carrier
    new = HopfData(BialgebraData(AlgebraData(H, maps["m"], Pi.apply(b.algebra.unit)),
                                 CoalgebraData(H, maps["Δ"], maps["ε"])),
                   maps["S"], maps["S̄"])
    if "m_A" not in maps:
        return new
    algebra = AlgebraData(A.carrier, maps["m_A"], Qi.apply(A.unit))
    if "ϱ" in maps:
        return ComoduleAlgebraData(new, algebra, maps["ϱ"])
    return WeakActionData(new, algebra, maps["action"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validators_match_the_kronecker_composites(data):
    case = draw_case(data)
    if isinstance(case, ComoduleAlgebraData):
        got, want = case.validate("subject"), dense.validate_comodule_algebra(case, "subject")
    elif isinstance(case, WeakActionData):
        got, want = validate_weak_action(case, "subject"), dense.validate_weak_action(case, "subject")
    else:
        got, want = validate_hopf(case, "subject"), dense.validate_hopf(case, "subject")
    assert got.subject == "subject"
    assert record_tuples(got) == record_tuples(want)


def test_the_twisted_antipode_is_not_the_antipode_of_sweedler():
    # S̄ = S³ in place of S: Σ S̄(h₁)h₂ fails first at x, S̄ is still an
    # anti-morphism, and S in place of S̄ fails Σ S(h₂)h₁ at x as well
    h = catalog.get("sweedler4_Q").hopf_data()
    for swapped, failed in (
            (HopfData(h.bialgebra, h.twisted_antipode, h.twisted_antipode),
             {"hopf.antipode": "x"}),
            (HopfData(h.bialgebra, h.antipode, h.antipode),
             {"hopf.twisted_antipode": "x"})):
        rep = validate_hopf(swapped)
        assert record_tuples(rep) == record_tuples(dense.validate_hopf(swapped))
        assert {r.check_id: r.witness for r in rep.records if not r.passed} == failed


@pytest.mark.parametrize("g_times_e,e_times_g", [(1, 0), (0, 1)])
def test_each_side_of_the_antipode_identities_is_checked(g_times_e, e_times_g):
    # R[C2] with S = S̄ = (e, g ↦ e) and g·e, e·g redrawn: S(g)g = e·g and
    # gS(g) = g·e, so exactly one side of each antipode identity fails, at g
    carrier, _, unit, comult, counit, *_ = group_algebra_parts(ZZ, 2)
    mult = [(0, 0, 0, 1), (0, 1, e_times_g, 1), (1, 0, g_times_e, 1), (1, 1, 0, 1)]
    to_e = [carrier.basis_vector(0)] * 2
    h = unvalidated_hopf(carrier, mult, unit, comult, counit, to_e, to_e)
    rep = validate_hopf(h)
    assert record_tuples(rep) == record_tuples(dense.validate_hopf(h))
    failed = {r.check_id: r.witness for r in rep.records if not r.passed}
    assert failed["hopf.antipode"] == failed["hopf.twisted_antipode"] == "g"


# --- guards -------------------------------------------------------------------

GUARDED = ((linalg, "kron"), (hopf, "tensor_algebra"))


def guard_inputs(entry):
    """The Hopf algebra of ``entry`` and its dual, its regular comodule and
    the payload's comodule algebra, the hit action of the dual and the
    payload's action."""
    h = entry.hopf_data()
    hopfs = [h, dual_hopf(h)]
    comodules = [regular_comodule(h)]
    actions = [hit_action_of_dual(h)]
    if entry.kind == "crossed":
        comodules.append(entry.payload.comodule)
        actions.append(entry.payload.action)
    elif entry.kind == "cleft":
        comodules.append(entry.payload.comodule_algebra)
    return hopfs, comodules, actions


@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()]
                         + ["Zmod11_C6"])
def test_validators_compose_no_kronecker_products(monkeypatch, name):
    entry = cyclic_entry(6, 11) if name == "Zmod11_C6" else catalog.get(name)
    hopfs, comodules, actions = guard_inputs(entry)
    calls = []

    def counting(what, original):
        def counted(*args, **kwargs):
            calls.append(what)
            return original(*args, **kwargs)
        return counted

    for module, what in GUARDED:
        patch_everywhere(monkeypatch, module, what, counting(what, getattr(module, what)))
    monkeypatch.setattr(LinearMap, "compose", counting("compose", LinearMap.compose))
    reports = ([validate_hopf(h) for h in hopfs] + [c.validate() for c in comodules]
               + [validate_weak_action(w) for w in actions])
    assert all(rep.ok for rep in reports)
    assert calls == []


def test_crossed_table_expands_only_the_live_leg_pairs(monkeypatch):
    # the hit action of R^{C6} on R[C6] with σ = η∘(ε⊗ε): σ(h₂⊗l₁) is nonzero
    # only at h₂ = l₁ = δ_e, so 216 of the 7,776 (Δ²(h), Δ(l)) pairs are live
    action = hit_action_of_dual(cyclic_entry(6, 11).hopf_data())
    sigma = trivial_sigma(action)
    coalg, sig, r = action.bialgebra.coalgebra, sigma.sparse_columns(), action.bialgebra.rank
    pairs = [(h2, l1) for j in range(r) for l in range(r)
             for _, (h1, h2, h3) in coalg.sweedler_basis(j, 3)
             for _, (l1, l2) in coalg.sweedler_basis(l, 2)]
    live = sum(1 for h2, l1 in pairs if sig[h2 * r + l1])
    assert (len(pairs), live) == (7776, 216)
    calls = []
    original = crossed.kron_column

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(crossed, "kron_column", counted)
    table = crossed_table(action, sigma)
    assert len(calls) == live
    monkeypatch.undo()
    assert table == crossed_table(action, sigma)
