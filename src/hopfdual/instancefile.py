"""Instance files: a structured JSON document describing one instance.

Ring constants are decimal strings (no word-size cap); rationals are "p/q"
in lowest terms; mod-n elements are decimal residues.  Bare JSON integers are
read by ``rings.read_decimal``, under the same digit cap as the strings.
Structure constants are sparse (i, j, k, "c") quadruples, read into sparse
columns by ``catalog.quadruple_map`` and written back from them; matrices are
dense row lists.  Export is canonical (sorted keys, fixed element
formatting), so equal instances serialize byte-identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .actions import ComoduleAlgebraData, WeakActionData, validate_weak_action
from .catalog import (
    CatalogEntry,
    algebra_from_quadruples,
    coalgebra_from_quadruples,
    quadruple_map,
)
from .crossed import CleftData, build_crossed_product, validate_cocycle
from .errors import ParseError, ValidationError
from .hopf import (
    BialgebraData,
    HopfData,
    compute_antipode,
    compute_twisted_antipode,
    convolution_invert,
)
from .linalg import LinearMap, free_module, tensor_module
from .rings import Ring, read_decimal, ring_from_descriptor
from .suites import SUITE_ORDER, suites_for_kind


@dataclass
class InstanceFile:
    name: str
    description: str
    kind: str
    ring: Ring
    suite: str
    modules: dict            # name -> label list
    blocks: dict             # raw validated JSON blocks
    expected: dict = field(default_factory=dict)

    def to_entry(self) -> CatalogEntry:
        payload = _build_payload(self)
        return CatalogEntry(self.name, self.description, self.kind, self.ring,
                            dict(self.expected), None, payload,
                            u_span=self.blocks.get("U"),
                            v_span=self.blocks.get("V"))


def _fail(msg: str):
    raise ValidationError(msg)


def _need(doc, key, ctx):
    if key not in doc:
        _fail(f"{ctx}: missing {key!r}")
    return doc[key]


def _object(doc, key, ctx):
    """The block ``doc[key]``, which must be present and a JSON object."""
    block = _need(doc, key, ctx)
    if not isinstance(block, dict):
        _fail(f"{ctx}: {key!r} must be an object")
    return block


def _parse_quads(ring: Ring, quads, ranks, ctx):
    """(i, j, k, c) with per-slot range checks; errors name the quadruple."""
    out = []
    if not isinstance(quads, list):
        _fail(f"{ctx}: expected a list of quadruples")
    for q in quads:
        if not (isinstance(q, list) and len(q) == 4):
            _fail(f"{ctx}: malformed quadruple {q!r}")
        i, j, k, c = q
        for idx, bound in zip((i, j, k), ranks):
            if isinstance(idx, bool) or not isinstance(idx, int):
                _fail(f"{ctx}: index is not an integer in quadruple {q!r}")
            if not 0 <= idx < bound:
                _fail(f"{ctx}: index out of range in quadruple {q!r}")
        try:
            val = ring.of(c)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            _fail(f"{ctx}: bad constant in quadruple {q!r} ({exc})")
        out.append((i, j, k, val))
    return out


def _parse_vector(ring: Ring, entries, length, ctx):
    if not isinstance(entries, list) or len(entries) != length:
        _fail(f"{ctx}: expected a vector of length {length}")
    try:
        return tuple(ring.of(x) for x in entries)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        _fail(f"{ctx}: bad vector entry ({exc})")


def _parse_matrix(ring: Ring, rows, nrows, ncols, ctx):
    if not isinstance(rows, list) or len(rows) != nrows:
        _fail(f"{ctx}: expected {nrows} matrix rows")
    return [_parse_vector(ring, row, ncols, ctx) for row in rows]


def parse_instance(path) -> InstanceFile:
    """Read, syntax-check and semantically validate an instance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=read_decimal)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal over the digit cap
        raise ParseError(f"{path}: {exc}") from exc
    return parse_instance_dict(doc, str(path))


def parse_instance_dict(doc: dict, where: str = "<memory>") -> InstanceFile:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: top level must be an object")
    name = _need(doc, "name", where)
    kind = _need(doc, "kind", where)
    if kind not in ("hopf", "crossed", "cleft"):
        _fail(f"{where}: unknown kind {kind!r}")
    suite = doc.get("suite", "all")
    if suite != "all" and suite not in SUITE_ORDER:
        _fail(f"{where}: unknown suite {suite!r}")
    ring_desc = _need(doc, "ring", where)
    if not isinstance(ring_desc, dict):
        _fail(f"{where}: 'ring' must be a descriptor object")
    try:
        ring = ring_from_descriptor(ring_desc)
    except (ValueError, KeyError, TypeError) as exc:
        _fail(f"{where}: bad 'ring' descriptor ({exc})")
    modules = _need(doc, "modules", where)
    if not isinstance(modules, dict) or not modules:
        _fail(f"{where}: 'modules' must map names to label lists")
    for mname, labels in modules.items():
        if (not isinstance(labels, list) or not labels
                or not all(isinstance(x, str) for x in labels)
                or len(set(labels)) != len(labels)):
            _fail(f"{where}: module {mname!r} needs distinct string labels")

    blocks = {}
    blocks["hopf"] = _validate_hopf_block(ring, modules, _object(doc, "hopf", where),
                                          where)

    if kind == "crossed" or "algebra" in doc:
        if "algebra" not in doc:
            _fail(f"{where}: kind 'crossed' needs an 'algebra' block")
        blocks["algebra"] = _validate_algebra_block(
            ring, modules, _object(doc, "algebra", where), where)
    if kind == "crossed":
        rH = len(modules[blocks["hopf"]["carrier"]])
        rA = len(modules[blocks["algebra"]["carrier"]])
        if "action" not in doc:
            _fail(f"{where}: missing action (kind 'crossed')")
        blocks["action"] = _parse_quads(ring, doc["action"], (rH, rA, rA),
                                        f"{where}: action")
        if "cocycle" not in doc:
            _fail(f"{where}: missing cocycle (kind 'crossed'; use the trivial "
                  "cocycle explicitly)")
        blocks["cocycle"] = _parse_quads(ring, doc["cocycle"], (rH, rH, rA),
                                         f"{where}: cocycle")
        if doc.get("cocycle_inverse") is not None:
            blocks["cocycle_inverse"] = _parse_quads(
                ring, doc["cocycle_inverse"], (rH, rH, rA),
                f"{where}: cocycle_inverse")
    if kind == "cleft":
        if "comodule" not in doc or "integral" not in doc:
            _fail(f"{where}: kind 'cleft' needs 'comodule' and 'integral'")
        blocks["comodule"] = _validate_comodule_block(
            ring, modules, _object(doc, "comodule", where), blocks["hopf"], where)
        rH = len(modules[blocks["hopf"]["carrier"]])
        rB = len(modules[blocks["comodule"]["carrier"]])
        integral = _object(doc, "integral", where)
        theta = _parse_matrix(ring, _need(integral, "theta", where), rB, rH,
                              f"{where}: theta")
        blocks["integral"] = {"theta": theta}
        if integral.get("theta_inv") is not None:
            blocks["integral"]["theta_inv"] = _parse_matrix(
                ring, integral["theta_inv"], rB, rH, f"{where}: theta_inv")

    rH = len(modules[blocks["hopf"]["carrier"]])
    for key in ("U", "V"):
        if doc.get(key) is not None:
            if not isinstance(doc[key], list):
                _fail(f"{where}: {key!r} must be a list of vectors")
            blocks[key] = [_parse_vector(ring, v, rH, f"{where}: {key}")
                           for v in doc[key]]

    if suite != "all" and suite not in suites_for_kind(kind):
        _fail(f"{where}: suite {suite!r} needs crossed or cleft data")

    expected = _object(doc, "expected", where) if "expected" in doc else {}
    if "only_suites" in expected:
        only = expected["only_suites"]
        if (not isinstance(only, list) or not only
                or not all(s in SUITE_ORDER for s in only)):
            _fail(f"{where}: expected.only_suites must be a non-empty list of "
                  "suite names other than 'all'")

    return InstanceFile(name, doc.get("description", ""), kind, ring, suite,
                        {k: list(v) for k, v in modules.items()}, blocks, expected)


def _carrier(block, modules, what, where):
    """The name of the module that ``block`` declares as its carrier."""
    carrier = _need(block, "carrier", f"{where}: {what}")
    if not isinstance(carrier, str) or carrier not in modules:
        _fail(f"{where}: {what} carrier {carrier!r} not among modules")
    return carrier


def _validate_hopf_block(ring, modules, block, where):
    carrier = _carrier(block, modules, "hopf", where)
    r = len(modules[carrier])
    out = {"carrier": carrier}
    out["mult"] = _parse_quads(ring, _need(block, "mult", where), (r, r, r),
                               f"{where}: hopf.mult")
    out["unit"] = _parse_vector(ring, _need(block, "unit", where), r,
                                f"{where}: hopf.unit")
    out["comult"] = _parse_quads(ring, _need(block, "comult", where), (r, r, r),
                                 f"{where}: hopf.comult")
    out["counit"] = _parse_vector(ring, _need(block, "counit", where), r,
                                  f"{where}: hopf.counit")
    for key in ("antipode", "twisted_antipode"):
        if block.get(key) is not None:
            out[key] = _parse_matrix(ring, block[key], r, r,
                                     f"{where}: hopf.{key}")
    return out


def _validate_algebra_block(ring, modules, block, where):
    carrier = _carrier(block, modules, "algebra", where)
    r = len(modules[carrier])
    return {
        "carrier": carrier,
        "mult": _parse_quads(ring, _need(block, "mult", where), (r, r, r),
                             f"{where}: algebra.mult"),
        "unit": _parse_vector(ring, _need(block, "unit", where), r,
                              f"{where}: algebra.unit"),
    }


def _validate_comodule_block(ring, modules, block, hopf_block, where):
    carrier = _carrier(block, modules, "comodule", where)
    rB = len(modules[carrier])
    rH = len(modules[hopf_block["carrier"]])
    return {
        "carrier": carrier,
        "mult": _parse_quads(ring, _need(block, "mult", where), (rB, rB, rB),
                             f"{where}: comodule.mult"),
        "unit": _parse_vector(ring, _need(block, "unit", where), rB,
                              f"{where}: comodule.unit"),
        "coaction": _parse_quads(ring, _need(block, "coaction", where),
                                 (rB, rB, rH), f"{where}: comodule.coaction"),
    }


# ---------------------------------------------------------------------------
# building payloads


def _hopf_from_block(ring, modules, block) -> HopfData:
    """Structural construction only: supplied (twisted) antipodes are used
    as-is and cross-checked by the hopf suite, so a wrong override surfaces
    as a check failure with a witness rather than a parse error."""
    carrier = free_module(ring, modules[block["carrier"]])
    alg = algebra_from_quadruples(carrier, block["mult"], block["unit"])
    coalg = coalgebra_from_quadruples(carrier, block["comult"], block["counit"])
    bial = BialgebraData(alg, coalg)
    if "antipode" in block:
        antipode = LinearMap(carrier, carrier, block["antipode"])
    else:
        antipode = compute_antipode(bial)
    if "twisted_antipode" in block:
        twisted = LinearMap(carrier, carrier, block["twisted_antipode"])
    else:
        twisted = compute_twisted_antipode(bial)
    return HopfData(bial, antipode, twisted)


def _build_payload(inst: InstanceFile):
    ring = inst.ring
    hopf = _hopf_from_block(ring, inst.modules, inst.blocks["hopf"])
    if inst.kind == "hopf":
        return hopf
    if inst.kind == "crossed":
        ab = inst.blocks["algebra"]
        a_carrier = free_module(ring, inst.modules[ab["carrier"]])
        algebra = algebra_from_quadruples(a_carrier, ab["mult"], ab["unit"])
        algebra.validate().require()
        action = WeakActionData(hopf, algebra, quadruple_map(
            tensor_module(hopf.carrier, a_carrier), a_carrier, inst.blocks["action"],
            algebra.rank))
        validate_weak_action(action).require()
        hh = tensor_module(hopf.carrier, hopf.carrier)
        sigma = quadruple_map(hh, a_carrier, inst.blocks["cocycle"], hopf.rank)
        claimed = None
        if "cocycle_inverse" in inst.blocks:
            claimed = quadruple_map(hh, a_carrier, inst.blocks["cocycle_inverse"],
                                    hopf.rank)
        cocycle = validate_cocycle(action, sigma, claimed_inverse=claimed)
        return build_crossed_product(action, cocycle)
    # cleft
    cb = inst.blocks["comodule"]
    b_carrier = free_module(ring, inst.modules[cb["carrier"]])
    b_alg = algebra_from_quadruples(b_carrier, cb["mult"], cb["unit"])
    b_alg.validate().require()
    comodule = ComoduleAlgebraData(hopf, b_alg, quadruple_map(
        b_carrier, tensor_module(b_carrier, hopf.carrier), cb["coaction"], hopf.rank,
        co=True))
    comodule.validate().require()
    theta = LinearMap(hopf.carrier, b_carrier, inst.blocks["integral"]["theta"])
    theta_inv = convolution_invert(hopf.coalgebra, b_alg, theta)
    if ("theta_inv" in inst.blocks["integral"] and theta_inv != LinearMap(
            hopf.carrier, b_carrier, inst.blocks["integral"]["theta_inv"])):
        _fail("supplied theta_inv disagrees with the convolution inverse")
    cleft = CleftData(comodule, theta, theta_inv)
    cleft.validate().require()
    return cleft


# ---------------------------------------------------------------------------
# export


def _show_matrix(ring, m: LinearMap):
    return [[ring.show(x) for x in row] for row in m.matrix]


def _quadruples(ring, m: LinearMap, split: int, co: bool = False):
    """The quadruples that ``catalog.quadruple_map`` reads back as ``m``,
    from its sparse columns in column-then-row order."""
    return [[col, *divmod(row, split), ring.show(c)] if co else
            [*divmod(col, split), row, ring.show(c)]
            for col, entries in enumerate(m.sparse_columns()) for row, c in entries]


def export_entry(entry: CatalogEntry) -> dict:
    """Serialize an entry to the instance document format."""
    ring = entry.ring
    payload = entry.payload
    hopf = entry.hopf_data()
    doc = {
        "name": entry.name,
        "description": entry.description,
        "kind": entry.kind,
        "suite": "all",
        "ring": ring.describe(),
        "expected": dict(entry.expected),
    }
    modules = {"H": list(hopf.carrier.labels)}
    doc["hopf"] = {
        "carrier": "H",
        "mult": _quadruples(ring, hopf.algebra.mult, hopf.rank),
        "unit": [ring.show(x) for x in hopf.algebra.unit],
        "comult": _quadruples(ring, hopf.coalgebra.comult, hopf.rank, co=True),
        "counit": [ring.show(x) for x in hopf.coalgebra.counit_values()],
        "antipode": _show_matrix(ring, hopf.antipode),
        "twisted_antipode": _show_matrix(ring, hopf.twisted_antipode),
    }
    if entry.kind == "crossed":
        A = payload.action.algebra
        modules["A"] = list(A.carrier.labels)
        doc["algebra"] = {
            "carrier": "A",
            "mult": _quadruples(ring, A.mult, A.rank),
            "unit": [ring.show(x) for x in A.unit],
        }
        doc["action"] = _quadruples(ring, payload.action.action, A.rank)
        doc["cocycle"] = _quadruples(ring, payload.cocycle.sigma, hopf.rank)
        doc["cocycle_inverse"] = _quadruples(ring, payload.cocycle.sigma_inv, hopf.rank)
    elif entry.kind == "cleft":
        B = payload.comodule_algebra.algebra
        modules["B"] = list(B.carrier.labels)
        doc["comodule"] = {
            "carrier": "B",
            "mult": _quadruples(ring, B.mult, B.rank),
            "unit": [ring.show(x) for x in B.unit],
            "coaction": _quadruples(ring, payload.comodule_algebra.coaction,
                                    hopf.rank, co=True),
        }
        doc["integral"] = {
            "theta": _show_matrix(ring, payload.theta),
            "theta_inv": _show_matrix(ring, payload.theta_inv),
        }
    for key, span in (("U", entry.u_span), ("V", entry.v_span)):
        if span is not None:
            doc[key] = [[ring.show(ring.of(x)) for x in v] for v in span]
    doc["modules"] = modules
    return doc


def export_entry_json(entry: CatalogEntry) -> str:
    return json.dumps(export_entry(entry), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
