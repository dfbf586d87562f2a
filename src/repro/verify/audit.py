"""Offline integrity audit of the result store and trace cache.

``python -m repro audit`` walks every memoized result under the store
root and checks, in increasing order of cost:

1. the record is readable JSON with the current schema version,
2. the stored canonical key hashes to the entry's file name (the
   content address is honest),
3. the embedded ``payload_digest`` matches a recomputation over the
   parsed stats/phases (the payload bytes are honest),
4. optionally (``--recompute-fraction F``) a deterministic sample of
   entries is *re-executed* on a trusted reference engine and the
   fresh digest compared — the only check that can catch a result that
   was wrong from birth rather than corrupted at rest.

Bad entries are quarantined through the store's existing machinery
(``<root>/quarantine/`` + ``.why`` sidecars) so the next sweep re-runs
them; the trace cache gets the same readable-and-self-consistent walk.
The report ranks findings by severity: recompute mismatches (wrong
science) above digest mismatches (bit-rot) above stale/malformed
entries (ordinary cache churn).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.exec.resilience import quarantine_entry
from repro.sim.system import RunResult
from repro.verify.digest import result_digest
from repro.verify.shadow import (
    REFERENCE_ENGINE,
    reference_result,
    should_verify,
)

__all__ = ["AuditReport", "audit_store", "audit_traces", "format_report"]

#: Store subdirectories that are not shard directories.
_NON_SHARD_DIRS = frozenset({"quarantine", "service", "traces"})


@dataclass
class AuditReport:
    """Outcome counts (and per-entry findings) of one audit pass."""

    root: str
    scanned: int = 0
    clean: int = 0
    stale_schema: int = 0
    malformed: int = 0
    key_mismatches: int = 0
    digest_mismatches: int = 0
    recomputed: int = 0
    recompute_mismatches: int = 0
    quarantined_now: int = 0
    quarantined_before: int = 0
    traces_scanned: int = 0
    traces_clean: int = 0
    traces_quarantined: int = 0
    findings: List[Dict[str, str]] = field(default_factory=list)

    @property
    def mismatches(self) -> int:
        """Integrity failures (as opposed to ordinary cache churn)."""
        return self.digest_mismatches + self.recompute_mismatches

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            name: getattr(self, name)
            for name in (
                "root", "scanned", "clean", "stale_schema", "malformed",
                "key_mismatches", "digest_mismatches", "recomputed",
                "recompute_mismatches", "quarantined_now",
                "quarantined_before", "traces_scanned", "traces_clean",
                "traces_quarantined",
            )
        }
        payload["mismatches"] = self.mismatches
        payload["findings"] = list(self.findings)
        return payload

    def _flag(self, entry: Path, kind: str, detail: str) -> None:
        self.findings.append(
            {"entry": entry.name, "kind": kind, "detail": detail}
        )


def _shard_dirs(root: Path):
    if not root.is_dir():
        return
    for shard in sorted(root.iterdir()):
        if shard.is_dir() and shard.name not in _NON_SHARD_DIRS:
            yield shard


def _check_entry(
    report: AuditReport,
    entry: Path,
    recompute_fraction: float,
) -> Optional[str]:
    """Audit one store entry; returns a quarantine reason or None."""
    try:
        record = json.loads(entry.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        report.malformed += 1
        report._flag(entry, "malformed", f"unreadable JSON: {exc}")
        return f"audit: unreadable result entry: {exc}"
    if not isinstance(record, dict):
        report.malformed += 1
        report._flag(entry, "malformed", "record is not a JSON object")
        return "audit: record is not a JSON object"
    if record.get("schema") != RESULT_SCHEMA_VERSION:
        report.stale_schema += 1
        report._flag(
            entry, "stale-schema",
            f"schema {record.get('schema')!r} != {RESULT_SCHEMA_VERSION}",
        )
        return (
            f"audit: stale result schema {record.get('schema')!r} "
            f"(current is {RESULT_SCHEMA_VERSION})"
        )
    canonical = json.dumps(
        record.get("key"), sort_keys=True, separators=(",", ":")
    )
    address = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    if f"{address}.json" != entry.name:
        report.key_mismatches += 1
        report._flag(
            entry, "key-mismatch",
            f"stored key hashes to {address[:12]}..., not the file name",
        )
        return "audit: stored key does not hash to the entry's address"
    try:
        result = RunResult.from_dict(record["result"])
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        report.malformed += 1
        report._flag(entry, "malformed", f"unparseable result: {exc}")
        return f"audit: malformed result payload: {exc}"
    declared = record["result"].get("payload_digest")
    recomputed = result_digest(result)
    if declared != recomputed:
        report.digest_mismatches += 1
        report._flag(
            entry, "digest-mismatch",
            f"stored {str(declared)[:12]}..., recomputed {recomputed[:12]}...",
        )
        return (
            f"audit: payload digest mismatch (stored {declared!r}, "
            f"recomputed {recomputed})"
        )
    if should_verify(address, recompute_fraction):
        from repro.service.jobspec import key_from_canonical

        report.recomputed += 1
        try:
            key = key_from_canonical(record["key"])
            fresh = result_digest(reference_result(key))
        except ReproError as exc:
            report.malformed += 1
            report._flag(entry, "malformed", f"recompute failed: {exc}")
            return f"audit: recompute failed: {exc}"
        if fresh != recomputed:
            report.recompute_mismatches += 1
            report._flag(
                entry, "recompute-mismatch",
                f"stored {recomputed[:12]}..., {REFERENCE_ENGINE} re-run "
                f"{fresh[:12]}...",
            )
            return (
                f"audit: stored result disagrees with a fresh "
                f"{REFERENCE_ENGINE!r} re-execution (stored {recomputed}, "
                f"recomputed {fresh})"
            )
    return None


def audit_store(
    root: Union[str, Path],
    recompute_fraction: float = 0.0,
    quarantine: bool = True,
) -> AuditReport:
    """Audit every result entry under ``root``; see the module docstring.

    With ``quarantine`` (the default) failing entries are moved into
    ``<root>/quarantine/`` via the store's machinery so the next sweep
    treats them as cache misses; pass False for a read-only audit.
    """
    root = Path(root)
    report = AuditReport(root=str(root))
    for shard in _shard_dirs(root):
        for entry in sorted(shard.glob("*.json")):
            if entry.name.startswith(".tmp-"):
                continue
            report.scanned += 1
            reason = _check_entry(report, entry, recompute_fraction)
            if reason is None:
                report.clean += 1
            elif quarantine:
                if quarantine_entry(entry, root, reason) is not None:
                    report.quarantined_now += 1
    qdir = root / "quarantine"
    if qdir.is_dir():
        report.quarantined_before = sum(
            1 for item in qdir.iterdir()
            if item.suffix == ".json" and not item.name.startswith(".tmp-")
        ) - report.quarantined_now
    return report


def audit_traces(
    report: AuditReport, root: Optional[Union[str, Path]] = None,
    quarantine: bool = True,
) -> AuditReport:
    """Extend ``report`` with a readability walk of the trace cache.

    Each ``.npz`` entry must carry a parseable ``.key.json`` sidecar
    whose canonical form declares the current trace schema, and the
    payload itself must load. Bad entries are quarantined (the cache
    regenerates traces from seed, so this only costs warm time).
    """
    from repro.sim.trace import load_trace_npz
    from repro.workloads.trace_cache import (
        TRACE_SCHEMA_VERSION,
        default_trace_root,
    )

    root = Path(root) if root is not None else default_trace_root()
    for shard in _shard_dirs(root):
        for entry in sorted(shard.glob("*.npz")):
            if entry.name.startswith(".tmp-"):
                continue
            report.traces_scanned += 1
            sidecar = entry.with_suffix(".key.json")
            reason = None
            try:
                record = json.loads(sidecar.read_text(encoding="utf-8"))
                canonical = json.loads(record["key"])
                if canonical.get("schema") != TRACE_SCHEMA_VERSION:
                    reason = (
                        f"audit: stale trace schema "
                        f"{canonical.get('schema')!r}"
                    )
            except (OSError, KeyError, TypeError, ValueError) as exc:
                reason = f"audit: bad trace key sidecar: {exc}"
            if reason is None:
                try:
                    load_trace_npz(str(entry))
                except (ReproError, OSError) as exc:
                    reason = f"audit: corrupt trace payload: {exc}"
            if reason is None:
                report.traces_clean += 1
                continue
            report._flag(entry, "trace", reason)
            if quarantine:
                if quarantine_entry(
                    entry, root, reason, extras=[sidecar]
                ) is not None:
                    report.traces_quarantined += 1
    return report


def format_report(report: AuditReport) -> str:
    """Human-readable ranked report: worst findings first."""
    lines = [f"audit of {report.root}:"]
    lines.append(
        f"  results: {report.scanned} scanned, {report.clean} clean"
        + (f", {report.recomputed} recomputed" if report.recomputed else "")
    )
    severity = (
        ("recompute-mismatch", report.recompute_mismatches,
         "WRONG ANSWERS (stored result disagrees with a fresh re-run)"),
        ("digest-mismatch", report.digest_mismatches,
         "payload digest mismatches (on-disk bit-rot)"),
        ("key-mismatch", report.key_mismatches,
         "entries whose key does not match their address"),
        ("malformed", report.malformed, "malformed entries"),
        ("stale-schema", report.stale_schema, "stale-schema entries"),
    )
    for kind, count, label in severity:
        if not count:
            continue
        lines.append(f"  {count} {label}:")
        for finding in report.findings:
            if finding["kind"] == kind:
                lines.append(
                    f"    {finding['entry']}: {finding['detail']}"
                )
    if report.quarantined_now:
        lines.append(
            f"  {report.quarantined_now} entr"
            f"{'y' if report.quarantined_now == 1 else 'ies'} "
            "quarantined by this audit"
        )
    if report.quarantined_before:
        lines.append(
            f"  {report.quarantined_before} previously quarantined "
            "entries present"
        )
    if report.traces_scanned:
        lines.append(
            f"  traces: {report.traces_scanned} scanned, "
            f"{report.traces_clean} clean, "
            f"{report.traces_quarantined} quarantined"
        )
    if report.mismatches == 0:
        lines.append("  integrity: OK")
    else:
        lines.append(
            f"  integrity: {report.mismatches} mismatch"
            f"{'' if report.mismatches == 1 else 'es'} — "
            "quarantined; re-run the sweep to heal"
        )
    return "\n".join(lines)
