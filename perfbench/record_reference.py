"""Record ``reference.json``: the verdicts every benchmark op must reproduce.

    python3 perfbench/record_reference.py

Run from the root of the repository.  It stores, for every catalog entry,
its applicable suites and the (check id, verdict) pairs of each suite, the
SHA-256 of ``hopfdual report --format json --canonical``, and the verdicts
of the cyclic_rank documents, checked to be the same for every prime the
workload draws.  A change of check ids or verdicts is a change in what the
library certifies: re-record only when that change is intended.
"""
from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from workloads import (  # noqa: E402
    CYCLIC_PRIMES,
    REFERENCE_PATH,
    build_job,
    cyclic_job,
)


def _verdicts(result: dict) -> dict:
    bad = [op["key"] for op in result["ops"] if op["error"]]
    if bad:
        raise SystemExit(f"ops raised: {bad}")
    return {op["key"]: op["verdicts"] for op in result["ops"]}


def main() -> int:
    from hopfdual import catalog, cli, suites

    entries = {name: list(suites.applicable_suites(catalog.get(name)))
               for name, _, _ in catalog.list_entries()}
    reference = {"catalog": {"entries": entries}}
    job = build_job("catalog", 0, reference)
    job.update(root=str(ROOT), mode="pass")
    result = worker.run(job)
    verdicts = _verdicts(result)

    out = ROOT / ".perfbench" / "reference-report.json"
    out.parent.mkdir(exist_ok=True)
    code = cli.main(["report", "--format", "json", "--canonical",
                     "--out", str(out)])
    if code != 0:
        raise SystemExit(f"hopfdual report exited with {code}")
    cli_sha = hashlib.sha256(out.read_bytes()).hexdigest()
    if cli_sha != result["report_sha256"]:
        raise SystemExit("per-suite ops do not reassemble into the CLI report")
    reference["catalog"]["report_sha256"] = cli_sha
    reference["catalog"]["verdicts"] = {key: verdicts[key]
                                        for key in job["report_order"]}

    cyclic = None
    for p in CYCLIC_PRIMES:
        job = cyclic_job(p)
        job.update(root=str(ROOT), mode="pass")
        got = _verdicts(worker.run(job))
        if cyclic is not None and got != cyclic:
            raise SystemExit(f"cyclic_rank verdicts over Z/{p} differ")
        cyclic = got
    reference["cyclic_rank"] = cyclic

    text = json.dumps(reference, indent=1)
    # one (check id, verdict) pair per line
    text = re.sub(r'\[\n\s+("[^"\n]*"),\n\s+(true|false)\n\s+\]', r"[\1, \2]",
                  text)
    REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
