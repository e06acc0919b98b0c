"""Check records and deterministic reports.

A ``CheckRecord`` ties a stable check id to the mathematical statement being
verified, an exact pass/fail, (on failure) a witness, and the check's wall
time in milliseconds, or ``None`` for a record that was never timed (one
merged in from a validator).  Reports render to text or JSON; an untimed
record shows no timing in text and ``null`` in JSON.  Canonical mode fixes
ordering and zeroes timings so identical inputs produce byte-identical output.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import ValidationError


@dataclass
class CheckRecord:
    check_id: str
    statement: str
    passed: bool
    witness: Optional[str] = None
    millis: Optional[float] = None

    def to_dict(self, canonical: bool = False) -> dict:
        out = {
            "id": self.check_id,
            "statement": self.statement,
            "passed": self.passed,
            "witness": self.witness,
            "millis": (0.0 if canonical else
                       None if self.millis is None else round(self.millis, 3)),
        }
        return out

    def line(self, canonical: bool = False) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = "" if self.witness is None else f"  [witness: {self.witness}]"
        timing = ("" if canonical or self.millis is None
                  else f"  ({self.millis:.1f} ms)")
        return f"{mark}  {self.check_id}  --  {self.statement}{extra}{timing}"


@dataclass
class ValidationReport:
    """An ordered list of check records for one validation run."""

    subject: str = ""
    records: list = field(default_factory=list)

    def add(self, check_id: str, statement: str, passed: bool, witness: Optional[str] = None,
            millis: Optional[float] = None) -> CheckRecord:
        rec = CheckRecord(check_id, statement, bool(passed), witness, millis)
        self.records.append(rec)
        return rec

    def extend(self, other: "ValidationReport") -> None:
        self.records.extend(other.records)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self):
        return [r for r in self.records if not r.passed]

    def require(self) -> "ValidationReport":
        """Raise ValidationError if any record failed."""
        if not self.ok:
            bad = self.failures()[0]
            raise ValidationError(
                f"{self.subject or 'validation'}: {bad.check_id} failed"
                + (f" (witness: {bad.witness})" if bad.witness else ""))
        return self

    def to_text(self, canonical: bool = False) -> str:
        lines = []
        if self.subject:
            lines.append(f"== {self.subject} ==")
        lines.extend(r.line(canonical) for r in self.records)
        lines.append(f"{'OK' if self.ok else 'FAILED'}: {sum(r.passed for r in self.records)}"
                     f"/{len(self.records)} checks passed")
        return "\n".join(lines)


@dataclass
class Report:
    """A full suite run: sections per instance, deterministic ordering."""

    sections: list = field(default_factory=list)  # list[ValidationReport]

    def add_section(self, section: ValidationReport) -> None:
        self.sections.append(section)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    def to_dict(self, canonical: bool = False) -> dict:
        return {
            "sections": [
                {
                    "subject": s.subject,
                    "checks": [r.to_dict(canonical) for r in s.records],
                    "ok": s.ok,
                }
                for s in self.sections
            ],
            "ok": self.ok,
        }

    def to_json(self, canonical: bool = False) -> str:
        return json.dumps(self.to_dict(canonical), indent=2, sort_keys=canonical,
                          ensure_ascii=False) + "\n"

    def to_text(self, canonical: bool = False) -> str:
        parts = [s.to_text(canonical) for s in self.sections]
        parts.append(f"overall: {'OK' if self.ok else 'FAILED'}")
        return "\n\n".join(parts) + "\n"
