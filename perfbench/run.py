"""hopfdual benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; the library is imported from ``src/``.
Each pass runs in a fresh interpreter (``worker.py``), so nothing built in
one pass is reused by the next.  Passes are repeated while another one fits
in ``--seconds`` (at least one), and the set-up alone is repeated in fresh
interpreters for at least SETUP_SAMPLES samples.  With ``--trace 1`` one
more pass runs under the layer tracer (``tracer.py``) and its spans are
written to ``.perfbench/``.

Every op (one ``run_suite(entry, suite)`` call) must reproduce its reference
(check id, verdict) pairs from ``reference.json``, and the catalog pass, put
back in catalog order, must render byte-identically to
``hopfdual report --format json --canonical``.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics (the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``).
Exit status: 0 when every op is correct, 1 when an op failed, 2 when the
checkout cannot be benchmarked, 3 when a pass crashed or ran out of time.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORKLOADS,
    build_job,
    describe_document,
    load_reference,
    reference_verdicts,
)

SETUP_SAMPLES = 5        # set-ups per run, one of them in each pass: at
SETUP_SAMPLES_MAX = 15   # least this many, and up to this many while the
SETUP_SECONDS = 3.0      # set-ups alone have taken less than this
TIME_LIMIT_S = 170.0     # every pass of one invocation ends before this

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _layers(names, fields=("calls", "s", "self_s")):
    return [(name, fields) for name in names]


# (span name, fields reported).  Leaf spans leave out self_s, which equals s.
# Layers that only the catalog's crossed, cleft and opposite suites reach
# report calls alone: their times would read exactly 0 on the other
# workloads.  The span table printed with the traced pass gives every time.
SPAN_LAYERS = (
    _layers(["linalg.compose", "linalg.kron", "linalg.smith_normal_form",
                  "linalg.PreparedSolver.solve", "linalg.determinant"],
                 ("calls", "s"))
    + _layers(["linalg.invert_map", "hopf.tensor_algebra",
                    "hopf.tensor_coalgebra", "hopf.opposite", "hopf.validate",
                    "hopf.convolution_invert", "hopf.algebra_morphism_witness",
                    "hopf.certify_algebra_iso",
                    "actions.validate_weak_action",
                    "actions.ComoduleAlgebraData.validate",
                    "actions.coinvariants",
                    "crossed.build_crossed_product", "crossed.validate_cocycle"])
    + _layers(["crossed.opposite_crossed", "crossed.crossed_from_integral",
                    "crossed.integral_from_crossed",
                    "smash.right_smash", "smash.op_smash", "smash.hat_smash",
                    "smash.op_hat_smash", "smash.left_smash"], ("calls",))
    + _layers(["smash._coordinate_smash", "smash.smash_compare"])
    + [("duality.build_diagram", ("calls", "s"))]
    + _layers([f"duality.{leg}_map"
                    for leg in ("alpha", "gamma", "delta", "pi", "nu", "chi")])
    + _layers(["duality.duality_iso", "duality.matrix_iso",
                    "duality.compat_check", "duality.coaction_table",
                    "duality.theorem_suite"])
    + [("duality.final_chain", ("calls",))]
)
SUITE_NAMES = ("hopf", "crossed", "smash", "duality", "cleft", "opposite")
COMMON_SUITES = ("hopf", "smash", "duality")    # run on every workload
COUNTERS = ("rings.Z.ops", "rings.Q.ops", "rings.Zn.ops",
            "linalg.apply.calls", "linalg.column.calls",
            "hopf.product.calls", "hopf.sweedler_terms")

# rebuild counts of one catalog pass, as ROADMAP item 4 quotes them
ROADMAP_REBUILDS = (
    ("smash.right_smash", 163),
    ("smash._coordinate_smash", 253),
    ("duality.build_diagram", 72),
    ("crossed.build_crossed_product", 56),
    ("hopf.AlgebraData.validate", 512),
)


def layer_metric_units() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = [(name, "count") for name in COUNTERS]
    out += [("linalg.entries", "count"), ("linalg.fill_ratio", "ratio")]
    for prefix, fields in SPAN_LAYERS:
        out += [(f"{prefix}.{field}", "count" if field == "calls" else "s")
                for field in fields]
    out += [("instances.build_s", "s")]
    out += [(f"suites.{suite}.s", "s") for suite in COMMON_SUITES]
    out += [("suites.unattributed_s", "s"), ("reporting.render_s", "s"),
            ("trace.overhead_s", "s")]
    return out


# ---------------------------------------------------------------------------
# passes


class PassError(Exception):
    """A pass that crashed or did not finish in time."""


def run_worker(job: dict, deadline: float):
    """Run one pass or set-up in a fresh interpreter; (result, wall seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError(f"no time left for another pass (limit {TIME_LIMIT_S} s)")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not finish within {timeout:.0f} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise PassError(f"worker exited with {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    return json.loads(proc.stdout), wall


def failed_ops(workload: str, job: dict, result: dict, reference: dict) -> list:
    """(key, reason) of every op that raised, failed a check or differs from
    its reference verdicts; the catalog report must also match byte for byte."""
    bad = []
    for op in result["ops"]:
        if op["error"]:
            bad.append((op["key"], op["error"]))
        elif not all(passed for _, passed in op["verdicts"]):
            first = next(cid for cid, passed in op["verdicts"] if not passed)
            bad.append((op["key"], f"check {first} failed"))
        elif op["verdicts"] != reference_verdicts(workload, op["key"], reference):
            bad.append((op["key"], "verdicts differ from the reference"))
    if "report_order" in job and not bad:
        if result["report_sha256"] != reference["catalog"]["report_sha256"]:
            bad.append(("report", "canonical report differs from "
                                  "`hopfdual report --format json --canonical`"))
    return bad


def tail_level(n: int) -> float:
    """The highest percentile with at least ten of n samples beyond it, as a
    fraction; the maximum (1.0) when that percentile would be below p50."""
    return 1.0 - 10.0 / n if n >= 20 else 1.0


def harrell_davis(values, q: float, steps: int = 200) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Op latencies are heterogeneous (2 ms to 6 s on the
    catalog) with gaps of a quarter between neighbours near the middle, so a
    single order statistic jumps from run to run; this estimate does not."""
    xs = sorted(values)
    n = len(xs)
    if n == 1 or q >= 1.0:
        return xs[-1]
    a, b = q * (n + 1) - 1.0, (1.0 - q) * (n + 1) - 1.0
    logs = []
    for i in range(n * steps):
        t = (i + 0.5) / (n * steps)
        logs.append(a * math.log(t) + b * math.log1p(-t))
    top = max(logs)
    weights = [sum(math.exp(x - top) for x in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure(workload, job, seconds, deadline, reference):
    """Untraced passes and set-ups; end-to-end metrics and failed ops."""
    # Set-ups alone come first.  The first one in a fresh checkout also
    # writes the bytecode caches; the median keeps that slow sample out.
    setups = []
    setup_start = time.perf_counter()
    while len(setups) < SETUP_SAMPLES - 1 or (
            len(setups) < SETUP_SAMPLES_MAX - 1
            and time.perf_counter() - setup_start < SETUP_SECONDS):
        result, _ = run_worker(dict(job, mode="setup"), deadline)
        setups.append(result["setup_s"])
    walls, rss, op_ms = [], [], []
    failures = []
    attempted = 0
    start = time.perf_counter()
    while True:
        result, wall = run_worker(dict(job, mode="pass"), deadline)
        walls.append(wall)
        setups.append(result["setup_s"])
        rss.append(result["peak_rss_mb"])
        op_ms += [op["seconds"] * 1000.0 for op in result["ops"]]
        attempted += len(result["ops"])
        failures += failed_ops(workload, job, result, reference)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(walls) > seconds:
            break
    level = tail_level(len(op_ms))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "verdict_p50_ms": harrell_davis(op_ms, 0.5),
        "verdict_tail_ms": harrell_davis(op_ms, level),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": f"median, passes: {len(walls)}",
        "setup_s": f"median, set-ups: {len(setups)}",
        "verdict_p50_ms": f"Harrell-Davis p50 of {len(op_ms)} ops",
        "verdict_tail_ms": (f"Harrell-Davis p{100 * level:.0f} of {len(op_ms)} "
                            f"ops, {len(op_ms) * (1 - level):.0f} beyond"),
        "peak_rss_mb": f"median, passes: {len(rss)}",
    }
    return metrics, notes, attempted, failures


def layer_metrics(result: dict, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of one traced pass."""
    rows = {**result["spans"], **result["groups"]}
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    counts = result["counts"]
    out = {name: counts.get(name, 0) for name in COUNTERS}
    fill = result["fill"]
    out["linalg.entries"] = fill["entries"]
    out["linalg.fill_ratio"] = (fill["nonzeros"] / fill["entries"]
                                if fill["entries"] else 0.0)
    for prefix, fields in SPAN_LAYERS:
        for field in fields:
            out[f"{prefix}.{field}"] = row(prefix)[field]
    # catalog.get on the catalog, parse_instance_dict(...).to_entry() elsewhere
    out["instances.build_s"] = (row("catalog.build")["s"]
                                + row("instancefile.parse")["s"])
    for suite in COMMON_SUITES:
        out[f"suites.{suite}.s"] = row(f"suites.{suite}")["s"]
    out["suites.unattributed_s"] = sum(row(f"suites.{suite}")["self_s"]
                                       for suite in SUITE_NAMES)
    out["reporting.render_s"] = row("reporting.render")["s"]
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


# ---------------------------------------------------------------------------
# output


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(workload, seed, seconds, trace, deadline, reference, out):
    """Measure one workload; returns (metrics, units, attempted, failed)."""
    job = build_job(workload, seed, reference)
    job["root"] = str(ROOT)
    for inst in job["instances"]:
        if "document" in inst:
            d = describe_document(inst["document"])
            out(f"instance {d['name']}  ring={d['ring']} rank={d['rank']} "
                f"mult_nonzeros={d['mult_nonzeros']} "
                f"comult_nonzeros={d['comult_nonzeros']} "
                f"sweedler8_terms={d['sweedler8_terms']}")
    if workload == "catalog":
        out("instance order " + " ".join(i["catalog"] for i in job["instances"]))

    metrics, notes, attempted, failures = measure(
        workload, job, seconds, deadline, reference)
    units = dict(END_TO_END)
    out(f"[{workload}] end-to-end, untraced")
    for name, unit in END_TO_END:
        out(f"  {name:<18} {_fmt(metrics[name]):>12} {unit:<3} {notes[name]}")
    out(f"  {'fail_ratio':<18} {_fmt(len(failures) / attempted):>12}     "
        f"{len(failures)} failed of {attempted} ops")

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        result, wall = run_worker(
            dict(job, mode="pass", trace=True, spans_path=str(spans_path)),
            deadline)
        attempted += len(result["ops"])
        traced_failures = failed_ops(workload, job, result, reference)
        failures += traced_failures
        metrics = layer_metrics(result, wall, metrics["wall_s"])
        units = dict(layer_metric_units())
        out(f"[{workload}] per-layer, traced pass: {result['span_count']} spans "
            f"in {spans_path.relative_to(ROOT)}; "
            f"{len(traced_failures)} failed of {len(result['ops'])} ops")
        for name, unit in layer_metric_units():
            out(f"  {name:<42} {_fmt(metrics[name]):>14} {unit}")
        spans = result["spans"]
        ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
        out(f"[{workload}] spans by self time: calls, s, self_s")
        for name, row in ranked:
            out(f"  {name:<42} {row['calls']:>8} {row['s']:>11.4f} "
                f"{row['self_s']:>11.4f}")
        if workload == "catalog":
            out("[catalog] build counts against ROADMAP item 4: "
                + ", ".join(f"{name} {spans.get(name, {}).get('calls', 0)} "
                            f"({figure})" for name, figure in ROADMAP_REBUILDS))
        out(f"[{workload}] top self time: " + ", ".join(
            f"{name} {row['self_s']:.3f} s ({row['calls']} calls)"
            for name, row in ranked[:3]))

    for key, reason in failures:
        out(f"FAILED {workload} {key}: {reason}")
    return metrics, units, attempted, len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hopfdual" / "__init__.py").is_file():
        print(f"perfbench: no hopfdual sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = load_reference()

    def out(line):
        print(line, flush=True)

    out(f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    out(f"stamp git={git_sha()} python={platform.python_version()} "
        f"nproc={os.cpu_count()}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    limit = TIME_LIMIT_S * len(workloads)
    deadline = time.monotonic() + limit
    all_metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            metrics, units, n, bad = run_workload(
                workload, args.seed, args.seconds, args.trace, deadline,
                reference, out)
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name, value in metrics.items():
                all_metrics[prefix + name] = {"value": value,
                                              "unit": units[name]}
            attempted += n
            failed += bad
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
