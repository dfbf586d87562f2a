"""Shadow cross-engine verification of executed sweep jobs.

With ``--verify-fraction F`` the executor samples a deterministic
``F``-fraction of *executed* jobs (store reads are covered separately
by payload digests) and re-runs each sampled job on
:data:`REFERENCE_ENGINE`, the per-access loop, comparing
:func:`~repro.verify.digest.result_digest` of the two answers. The
sample is a pure function of the job's content address, so a resumed
sweep re-samples exactly the same jobs and two concurrent sweeps agree
on which keys are audited.

On a mismatch the executor quarantines *both* payloads (suspect and
reference, each with a ``.why`` sidecar naming the engine, key, and
digests), trips the offending engine's circuit breaker
(:mod:`repro.verify.breaker`), and heals the sweep by recording the
reference result — so an injected or latent wrong answer is caught,
preserved for inspection, and the final tables still come out
bit-identical to a fault-free reference run.

This module holds the policy-free helpers; the orchestration lives in
:meth:`repro.exec.executor.Executor._maybe_verify`. Its module-level
imports are stdlib-only (the exec layer is imported inside the helpers
that need it), so the executor can import it cheaply.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = [
    "REFERENCE_ENGINE",
    "quarantine_mismatch",
    "reference_result",
    "should_verify",
]

#: The engine shadow verification and ``repro audit`` recomputes trust:
#: the per-access reference loop, ground truth for every other engine.
REFERENCE_ENGINE = "loop"


def should_verify(digest: str, fraction: float) -> bool:
    """Deterministic sample: is this job digest in the audit fraction?

    Maps ``sha256("shadow-verify:" + digest)`` onto [0, 1) and compares
    against ``fraction`` — uniform over keys, stable across processes
    and resumes, and independent of the store/journal digest itself (a
    different domain prefix, so sampling never correlates with the
    store's directory fan-out).
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    draw = hashlib.sha256(
        f"shadow-verify:{digest}".encode("ascii")
    ).digest()
    return int.from_bytes(draw[:8], "big") / 2.0 ** 64 < fraction


def reference_result(key: Any) -> Any:
    """Re-execute ``key`` on :data:`REFERENCE_ENGINE`, faults suppressed.

    The re-execution must see the pristine simulation — an injected
    fault firing inside the shadow run would poison the reference — so
    the active fault plan is suspended around it.
    """
    from repro.exec.faults import suppressed
    from repro.exec.jobs import execute_job

    with suppressed():
        return execute_job(replace(key, engine=REFERENCE_ENGINE))


def _write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    fd, tmp = tempfile.mkstemp(
        prefix=".tmp-", suffix=path.suffix, dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine_mismatch(
    root: Union[str, Path],
    key: Any,
    engine: str,
    suspect: Any,
    reference: Any,
    suspect_digest: str,
    reference_digest: str,
) -> Optional[Path]:
    """Preserve both sides of a verification mismatch for inspection.

    Writes ``<digest>.suspect.json`` and ``<digest>.reference.json``
    under ``<root>/quarantine/`` — the same directory the store's
    corrupt-entry machinery uses — each with a ``.why`` sidecar naming
    the engines, the job key, and both payload digests. Best-effort
    like :func:`repro.exec.resilience.quarantine_entry`: never raises.
    Returns the suspect path, or None when nothing could be written.
    """
    from repro.exec.jobs import RESULT_SCHEMA_VERSION

    qdir = Path(root) / "quarantine"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    why_base = {
        "reason": "shadow verification mismatch",
        "job": key.digest(),
        "display": key.display,
        "key": key.canonical(),
        "engine": engine,
        "reference_engine": REFERENCE_ENGINE,
        "suspect_digest": suspect_digest,
        "reference_digest": reference_digest,
        "quarantined_utc": stamp,
    }
    wrote: Optional[Path] = None
    for role, result in (("suspect", suspect), ("reference", reference)):
        path = qdir / f"{key.digest()}.{role}.json"
        try:
            _write_json_atomic(path, {
                "schema": RESULT_SCHEMA_VERSION,
                "key": key.canonical(),
                "result": result.to_dict(),
            })
            _write_json_atomic(
                qdir / f"{path.name}.why",
                dict(why_base, role=role, entry=path.name),
            )
        except OSError:
            continue
        if wrote is None:
            wrote = path
    return wrote
