"""Seeded inputs for the three benchmark workloads.

Every generated instance is a document in hopfdual's public instance format,
built with this module's own residue arithmetic, so the library sees only the
document.  The same seed always gives the same documents.

* ``catalog``: the 16 built-in entries times every applicable suite (73 ops);
  the seed only permutes entry order.
* ``cyclic_rank``: R[C5] and R[C6] over Z/p, p drawn from {7, 11, 13}, with
  the antipodes left out so that parsing recomputes them.  Each of the hopf,
  smash and duality suites runs on its own freshly parsed document.
* ``rebased_sweedler``: two copies of the rank-4 Sweedler algebra over Z/3,
  each written in a basis given by seeded elementary transvections.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("catalog", "cyclic_rank", "rebased_sweedler")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CYCLIC_ORDERS = (5, 6)
CYCLIC_PRIMES = (7, 11, 13)
CYCLIC_SUITES = ("hopf", "smash", "duality")

REBASED_COPIES = 2
REBASED_COMULT_NONZEROS = 10
REBASED_MAX_DRAWS = 64

# The rank-4 Sweedler algebra over Z/3 on {1, g, x, gx}, as in the catalog:
# g² = 1, x² = 0, xg = -gx, Δ(x) = x⊗1 + g⊗x.
SWEEDLER_MULT = (
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, 1),
    (2, 0, 2, 1), (2, 1, 3, 2),
    (3, 0, 3, 1), (3, 1, 2, 2),
)
SWEEDLER_COMULT = (
    (0, 0, 0, 1), (1, 1, 1, 1),
    (2, 2, 0, 1), (2, 1, 2, 1),
    (3, 3, 1, 1), (3, 0, 3, 1),
)
SWEEDLER_UNIT = (1, 0, 0, 0)
SWEEDLER_COUNIT = (1, 1, 0, 0)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# documents


def _hopf_document(name, description, p, labels, mult, unit, comult, counit):
    """A kind-'hopf' instance document over Z/p without antipodes."""
    return {
        "name": name,
        "description": description,
        "kind": "hopf",
        "suite": "all",
        "ring": {"kind": "integers_mod", "n": p},
        "modules": {"H": list(labels)},
        "hopf": {
            "carrier": "H",
            "mult": [[i, j, k, str(c)] for i, j, k, c in mult],
            "unit": [str(x) for x in unit],
            "comult": [[i, j, k, str(c)] for i, j, k, c in comult],
            "counit": [str(x) for x in counit],
        },
    }


def cyclic_document(n: int, p: int) -> dict:
    """R[C_n] over Z/p: g^i g^j = g^(i+j), Δ(g^i) = g^i⊗g^i, ε = 1."""
    mult = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    comult = [(i, i, i, 1) for i in range(n)]
    unit = [1] + [0] * (n - 1)
    return _hopf_document(
        f"Zmod{p}_C{n}", f"group algebra of the order-{n} group over Z/{p}",
        p, [f"g{i}" for i in range(n)], mult, unit, comult, [1] * n)


def _identity(r):
    return [[int(a == b) for b in range(r)] for a in range(r)]


def _matmul(a, b, p):
    r = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(r)) % p for j in range(r)]
            for i in range(r)]


def _transvection(i, j, c, r, p):
    m = _identity(r)
    m[i][j] = c % p
    return m


def rebase(P, P_inv, p=3):
    """Sweedler structure constants in the basis f_a = Σ_i P[i][a]·e_i.

    Returns sorted sparse (mult, comult) quadruples and the unit and counit
    vectors: f_a·f_b = P⁻¹·m(Pf_a⊗Pf_b), Δ(f_a) = (P⁻¹⊗P⁻¹)·Δ(Pf_a).
    """
    r = len(P)
    mult = {}
    for a in range(r):
        for b in range(r):
            for i, j, k, c in SWEEDLER_MULT:
                w = P[i][a] * P[j][b] * c % p
                if w:
                    for t in range(r):
                        mult[a, b, t] = (mult.get((a, b, t), 0)
                                         + P_inv[t][k] * w) % p
    comult = {}
    for a in range(r):
        for i, j, k, c in SWEEDLER_COMULT:
            w = P[i][a] * c % p
            if w:
                for s in range(r):
                    for u in range(r):
                        comult[a, s, u] = (comult.get((a, s, u), 0)
                                           + w * P_inv[s][j] * P_inv[u][k]) % p
    unit = [sum(P_inv[t][k] * SWEEDLER_UNIT[k] for k in range(r)) % p
            for t in range(r)]
    counit = [sum(P[i][a] * SWEEDLER_COUNIT[i] for i in range(r)) % p
              for a in range(r)]
    return (sorted(key + (c,) for key, c in mult.items() if c),
            sorted(key + (c,) for key, c in comult.items() if c),
            unit, counit)


def sweedler_terms(comult, r, legs, p):
    """Number of nonzero terms of the left-nested ``legs``-fold coproduct,
    summed over the basis: the size of the expansions the duality maps walk."""
    columns = {}
    for i, j, k, c in comult:
        columns.setdefault(i, []).append((j, k, c))
    total = 0
    for i in range(r):
        terms = {(i,): 1}
        for _ in range(legs - 1):
            grown = {}
            for idx, c in terms.items():
                for j, k, d in columns.get(idx[0], ()):
                    key = (j, k) + idx[1:]
                    grown[key] = (grown.get(key, 0) + c * d) % p
            terms = {key: c for key, c in grown.items() if c}
        total += len(terms)
    return total


def _one_term_elements(comult):
    counts = {}
    for i, _, _, _ in comult:
        counts[i] = counts.get(i, 0) + 1
    return sum(1 for n in counts.values() if n == 1)


def rebased_sweedler_document(seed: int, copy: int) -> dict:
    """Sweedler over Z/3 in a basis drawn from seeded transvections.

    Transvections are drawn one at a time until Δ has exactly 10 nonzero
    constants (6 in the standard basis) and just one basis element keeps a
    one-term coproduct, so that both group-likes of the standard basis are
    mixed into the rest; after REBASED_MAX_DRAWS draws the basis restarts.
    A change of basis preserves every verdict.
    """
    rng = random.Random(f"rebased_sweedler:{seed}:{copy}")
    r, p = 4, 3
    P = P_inv = _identity(r)
    draws = 0
    while True:
        i, j = rng.sample(range(r), 2)
        c = rng.choice((1, 2))
        P = _matmul(P, _transvection(i, j, c, r, p), p)
        P_inv = _matmul(_transvection(i, j, -c, r, p), P_inv, p)
        draws += 1
        mult, comult, unit, counit = rebase(P, P_inv, p)
        if (len(comult) == REBASED_COMULT_NONZEROS
                and _one_term_elements(comult) == 1):
            break
        if draws >= REBASED_MAX_DRAWS:
            P = P_inv = _identity(r)
            draws = 0
    return _hopf_document(
        f"sweedler4_Z3_rebased_s{seed}_c{copy}",
        "rank-4 Sweedler algebra over Z/3 in a seeded transvection basis",
        p, [f"f{a}" for a in range(r)], mult, unit, comult, counit)


def describe_document(doc: dict) -> dict:
    """Ring, rank and nonzero counts of a generated document."""
    hopf = doc["hopf"]
    r = len(doc["modules"][hopf["carrier"]])
    p = doc["ring"]["n"]
    comult = [(i, j, k, int(c)) for i, j, k, c in hopf["comult"]]
    return {
        "name": doc["name"],
        "ring": f"Z/{p}",
        "rank": r,
        "mult_nonzeros": len(hopf["mult"]),
        "comult_nonzeros": len(comult),
        "sweedler8_terms": sweedler_terms(comult, r, 8, p),
    }


# ---------------------------------------------------------------------------
# jobs


def build_job(workload: str, seed: int, reference: dict) -> dict:
    """The inputs of one pass: instances to construct and ops to run.

    An instance is ``{"catalog": name}`` or ``{"document": doc}``; an op is
    one ``run_suite(entry, suite)`` call, with the key of its reference
    verdicts.  ``report_order`` (catalog only) lists op keys in the order
    ``hopfdual report`` renders them.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        cat = reference["catalog"]
        names = list(cat["entries"])
        rng.shuffle(names)
        instances = [{"catalog": name} for name in names]
        ops = [{"instance": n, "suite": suite, "key": f"{name}/{suite}"}
               for n, name in enumerate(names)
               for suite in cat["entries"][name]]
        report_order = [f"{name}/{suite}" for name, suites in
                        cat["entries"].items() for suite in suites]
        return {"workload": workload, "instances": instances, "ops": ops,
                "report_order": report_order}
    if workload == "cyclic_rank":
        return cyclic_job(rng.choice(CYCLIC_PRIMES))
    if workload == "rebased_sweedler":
        instances = [{"document": rebased_sweedler_document(seed, copy)}
                     for copy in range(REBASED_COPIES)]
        ops = [{"instance": n, "suite": "all", "key": "sweedler4_Z3/all"}
               for n in range(REBASED_COPIES)]
        return {"workload": workload, "instances": instances, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


def cyclic_job(p: int) -> dict:
    """One freshly parsed document per op, as `hopfdual verify` runs them."""
    instances, ops = [], []
    for n in CYCLIC_ORDERS:
        for suite in CYCLIC_SUITES:
            ops.append({"instance": len(instances), "suite": suite,
                        "key": f"C{n}/{suite}"})
            instances.append({"document": cyclic_document(n, p)})
    return {"workload": "cyclic_rank", "instances": instances, "ops": ops}


def reference_verdicts(workload: str, key: str, reference: dict):
    """The (check id, verdict) pairs an op must reproduce."""
    if workload == "catalog":
        return reference["catalog"]["verdicts"][key]
    if workload == "cyclic_rank":
        return reference["cyclic_rank"][key]
    # a change of basis preserves every verdict of sweedler4_Z3
    cat = reference["catalog"]
    return [pair for suite in cat["entries"]["sweedler4_Z3"]
            for pair in cat["verdicts"][f"sweedler4_Z3/{suite}"]]
