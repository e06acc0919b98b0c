"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that generated inputs are reproducible and have the promised
shape, that a rebased Sweedler algebra reproduces the sweedler4_Z3 verdicts,
that the tracer leaves no wrapper behind, and that BENCHMARK.json names
exactly the metrics the benchmark reports.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    REBASED_COMULT_NONZEROS,
    WORKLOADS,
    build_job,
    describe_document,
    load_reference,
    reference_verdicts,
    rebased_sweedler_document,
)

REFERENCE = load_reference()
SEEDS = range(1, 11)


def test_each_seed_reproduces_its_documents():
    for workload in WORKLOADS:
        for seed in SEEDS:
            assert (build_job(workload, seed, REFERENCE)
                    == build_job(workload, seed, REFERENCE))
    catalog_orders = {tuple(i["catalog"] for i in
                            build_job("catalog", s, REFERENCE)["instances"])
                      for s in SEEDS}
    assert len(catalog_orders) > 1
    assert len(build_job("catalog", 1, REFERENCE)["ops"]) == 73
    bases = {json.dumps(rebased_sweedler_document(s, 0)["hopf"]) for s in SEEDS}
    assert len(bases) > 1


def test_rebased_comultiplication_has_ten_nonzero_constants():
    for seed in SEEDS:
        for copy in range(2):
            d = describe_document(rebased_sweedler_document(seed, copy))
            assert d["comult_nonzeros"] == REBASED_COMULT_NONZEROS
            assert d["rank"] == 4 and d["ring"] == "Z/3"


def test_rebased_instance_reproduces_sweedler4_z3_verdicts():
    job = build_job("rebased_sweedler", 3, REFERENCE)
    job.update(root=str(ROOT), mode="pass",
               instances=job["instances"][:1], ops=job["ops"][:1])
    result = worker.run(job)
    (op,) = result["ops"]
    assert op["error"] is None
    assert op["verdicts"] == reference_verdicts("rebased_sweedler", op["key"],
                                                REFERENCE)
    assert not run.failed_ops("rebased_sweedler", job, result, REFERENCE)


def test_tracer_removes_every_wrapper(tmp_path):
    import hopfdual  # noqa: F401  (the tracer wraps loaded modules)

    job = {"root": str(ROOT), "mode": "pass", "trace": True,
           "spans_path": str(tmp_path / "spans.json"),
           "instances": [{"catalog": "gauss"}],
           "ops": [{"instance": 0, "suite": s, "key": f"gauss/{s}"}
                   for s in REFERENCE["catalog"]["entries"]["gauss"]]}
    before = _callables()
    result = worker.run(job)
    assert not run.failed_ops("catalog", job, result, REFERENCE)
    assert result["spans"]["suites.run_suite"]["calls"] == len(job["ops"])
    assert result["counts"]["rings.Z.ops"] > 0
    after = _callables()
    assert not [place for place, value in after.items()
                if hasattr(value, tracer.MARK)]
    assert all(after[place] is value for place, value in before.items())
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def _callables():
    """Every function reachable from hopfdual modules, their classes and
    module-level dicts, by where it is bound."""
    found = {}
    for module in tracer.hopfdual_modules():
        for key, value in vars(module).items():
            places = [((module.__name__, key), value)]
            if type(value) is dict:
                places = [((module.__name__, key, k), v)
                          for k, v in value.items()]
            elif isinstance(value, type):
                places += [((module.__name__, key, k), v)
                           for k, v in vars(value).items()]
            found.update((place, v) for place, v in places if callable(v))
    return found


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == run.layer_metric_units())
    assert len(spec["per_layer"]) <= 128
