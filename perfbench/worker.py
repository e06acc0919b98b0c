"""One benchmark pass in a fresh interpreter.

Reads a job (see ``workloads.build_job``) as JSON on stdin and writes one
JSON result on stdout.  Run by ``run.py``, one process per pass, so that no
payload, parsed entry or cache survives from one pass to the next.

Modes: ``setup`` imports hopfdual and constructs every instance; ``pass``
then runs every op and renders the reports as the CLI does.  With ``trace``
the pass runs under the layer tracer and writes its spans to ``spans_path``.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(job: dict) -> dict:
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import hopfdual
    from hopfdual import catalog, suites
    from hopfdual.instancefile import parse_instance_dict
    from hopfdual.reporting import Report

    if not Path(hopfdual.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"hopfdual imported from {hopfdual.__file__}, "
                           f"not from {src}")
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    entries = []
    for inst in job["instances"]:
        if "catalog" in inst:
            with span("catalog.build"):
                entries.append(catalog.get(inst["catalog"]))
        else:
            with span("instancefile.parse"):
                entries.append(parse_instance_dict(inst["document"]).to_entry())
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if job["mode"] == "setup":
        return result

    ops, reports = [], {}
    for op in job["ops"]:
        entry = entries[op["instance"]]
        error, verdicts = None, []
        with span("suites.run_suite"):
            t0 = time.perf_counter()
            try:
                report = suites.run_suite(entry, op["suite"])
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if error is None:
            verdicts = [[rec.check_id, rec.passed]
                        for section in report.sections
                        for rec in section.records]
            reports[op["key"]] = report
        ops.append({"key": op["key"], "seconds": seconds, "error": error,
                    "verdicts": verdicts})

    with span("reporting.render"):
        if "report_order" in job:
            # the whole catalog in catalog order, as `hopfdual report` renders it
            full = Report()
            for key in job["report_order"]:
                for section in reports[key].sections if key in reports else ():
                    full.add_section(section)
            text = full.to_json(canonical=True)
            result["report_sha256"] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
        else:
            # one report per op, as `hopfdual verify --canonical` renders it
            for report in reports.values():
                report.to_json(canonical=True)
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["spans"], result["groups"] = tracer.aggregate()
        result["counts"] = dict(tracer.counts)
        result["fill"] = {"entries": tracer.entries,
                          "nonzeros": tracer.nonzeros}
        result["span_count"] = len(tracer.spans)
        tracer.write_spans(job["spans_path"])
    return result


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
