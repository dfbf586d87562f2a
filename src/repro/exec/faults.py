"""Deterministic fault injection for the sweep execution stack.

A :class:`FaultPlan` describes *which* failures to inject, *where*, and
*how many times*. The executor, result store, and trace cache each call
:func:`fault_point` at well-defined sites; when no plan is active the
call is a cheap no-op (one env lookup and a string compare), so the
production path pays nothing.

Fault kinds and the sites they bind to:

=============== =============== ====================================
kind            site            effect
=============== =============== ====================================
crash           job             worker process dies (``os._exit``)
hang            job             worker sleeps ``hang_secs`` seconds
os_error        job             raises a transient ``OSError``
corrupt_result  engine.result   silently perturbs an in-memory
                                result (a wrong answer, not an error)
disk_full       store.write     ``ENOSPC`` during a result-store put
corrupt_store   store.entry     garbles the JSON just written
corrupt_payload store.entry     perturbs a counter in the JSON just
                                written (stays valid JSON — only the
                                payload digest can catch it)
disk_full_why   quarantine.why  ``ENOSPC`` during a quarantine
                                ``.why`` sidecar write
disk_full_trace trace.write     ``ENOSPC`` during a trace-cache put
truncate_trace  trace.entry     truncates the ``.npz`` just written
=============== =============== ====================================

``crash`` and ``hang`` only fire inside pool worker processes — in the
main process they would kill or stall the harness itself, which is not
the failure mode they model.

Plans are *seeded*: whether a given opportunity fires is a pure
function of ``(seed, kind, token)``, so a run is reproducible. Budgets
(``times`` per kind) are enforced either per process (default) or
globally across all worker processes through a shared *ledger*
directory (``dir=``), where each firing atomically claims a slot file.
The ledger is what keeps a chaos run convergent: a crash budget of 2
means two crashes total, not two per freshly restarted worker.

Activate a plan via the ``REPRO_FAULT_PLAN`` environment variable (the
spec is inherited by worker processes) or programmatically with
:func:`install`. Spec grammar — ``;``-separated ``key=value`` pairs::

    REPRO_FAULT_PLAN="seed=13;rate=1.0;dir=/tmp/ledger;crash=2;hang=1;os_error=2"

where each fault kind maps to its ``times`` budget and the options are
``seed`` (decision seed, default 0), ``rate`` (per-opportunity firing
probability in [0, 1], default 1.0), ``hang_secs`` (default 120) and
``dir`` (the shared ledger directory).
"""

from __future__ import annotations

import errno
import hashlib
import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultRule",
    "KIND_SITES",
    "SITE_ENGINE_RESULT",
    "SITE_JOB",
    "SITE_QUARANTINE_WHY",
    "SITE_STORE_ENTRY",
    "SITE_STORE_WRITE",
    "SITE_TRACE_ENTRY",
    "SITE_TRACE_WRITE",
    "active_plan",
    "fault_point",
    "install",
    "suppressed",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

SITE_JOB = "job"
SITE_ENGINE_RESULT = "engine.result"
SITE_STORE_WRITE = "store.write"
SITE_STORE_ENTRY = "store.entry"
SITE_QUARANTINE_WHY = "quarantine.why"
SITE_TRACE_WRITE = "trace.write"
SITE_TRACE_ENTRY = "trace.entry"

#: Every fault kind fires at exactly one site.
KIND_SITES = {
    "crash": SITE_JOB,
    "hang": SITE_JOB,
    "os_error": SITE_JOB,
    "corrupt_result": SITE_ENGINE_RESULT,
    "disk_full": SITE_STORE_WRITE,
    "corrupt_store": SITE_STORE_ENTRY,
    "corrupt_payload": SITE_STORE_ENTRY,
    "disk_full_why": SITE_QUARANTINE_WHY,
    "disk_full_trace": SITE_TRACE_WRITE,
    "truncate_trace": SITE_TRACE_ENTRY,
}

#: Kinds that must not fire in the main process.
WORKER_ONLY_KINDS = frozenset({"crash", "hang"})


@dataclass(frozen=True)
class FaultRule:
    """One fault kind and its total firing budget."""

    kind: str
    times: int


class FaultPlan:
    """A seeded, budgeted schedule of injected failures."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        rate: float = 1.0,
        hang_secs: float = 120.0,
        ledger: Optional[str] = None,
        spec: str = "",
    ):
        for rule in rules:
            if rule.kind not in KIND_SITES:
                raise ConfigError(f"unknown fault kind {rule.kind!r}")
            if rule.times < 0:
                raise ConfigError(f"fault budget must be >= 0, got {rule.times}")
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {rate}")
        if hang_secs <= 0:
            raise ConfigError(f"hang_secs must be positive, got {hang_secs}")
        self.rules = [r for r in rules if r.times > 0]
        self.seed = seed
        self.rate = rate
        self.hang_secs = hang_secs
        self.ledger = Path(ledger) if ledger else None
        self.spec = spec
        #: Per-process count of faults this plan actually enacted.
        self.fired: Dict[str, int] = {}
        self._local_claims: Dict[str, int] = {}
        if self.ledger is not None:
            try:
                self.ledger.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(
                    f"fault plan ledger {self.ledger} is unusable: {exc}"
                ) from exc

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULT_PLAN`` spec grammar."""
        rules: List[FaultRule] = []
        seed, rate, hang_secs, ledger = 0, 1.0, 120.0, None
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(
                    f"fault plan {spec!r}: expected key=value, got {part!r}"
                )
            name, _, value = part.partition("=")
            name, value = name.strip(), value.strip()
            try:
                if name in KIND_SITES:
                    rules.append(FaultRule(name, int(value)))
                elif name == "seed":
                    seed = int(value)
                elif name == "rate":
                    rate = float(value)
                elif name == "hang_secs":
                    hang_secs = float(value)
                elif name == "dir":
                    ledger = value
                else:
                    raise ConfigError(
                        f"fault plan {spec!r}: unknown field {name!r}"
                    )
            except ValueError as exc:
                raise ConfigError(
                    f"fault plan {spec!r}: bad value for {name!r}"
                ) from exc
        return cls(
            rules, seed=seed, rate=rate, hang_secs=hang_secs,
            ledger=ledger, spec=spec,
        )

    # -- firing decisions --------------------------------------------------

    def rules_for(self, site: str) -> List[FaultRule]:
        return [r for r in self.rules if KIND_SITES[r.kind] == site]

    def _decide(self, kind: str, token: str) -> bool:
        """Seeded coin flip: pure function of (seed, kind, token)."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{token}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64 < self.rate

    def _claim(self, rule: FaultRule) -> bool:
        """Consume one unit of the rule's budget; False when exhausted."""
        if self.ledger is not None:
            for slot in range(rule.times):
                path = self.ledger / f"{rule.kind}.{slot}"
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                except OSError:
                    return False
                os.close(fd)
                return True
            return False
        count = self._local_claims.get(rule.kind, 0)
        if count >= rule.times:
            return False
        self._local_claims[rule.kind] = count + 1
        return True

    def fire(
        self,
        site: str,
        token: str = "",
        path: Optional[str] = None,
        obj: Any = None,
    ) -> None:
        """Enact at most one matching fault for this opportunity."""
        for rule in self.rules_for(site):
            if (
                rule.kind in WORKER_ONLY_KINDS
                and multiprocessing.parent_process() is None
            ):
                continue
            if not self._decide(rule.kind, token):
                continue
            if not self._claim(rule):
                continue
            self.fired[rule.kind] = self.fired.get(rule.kind, 0) + 1
            self._enact(rule.kind, site, path, obj)
            return

    def _enact(
        self, kind: str, site: str, path: Optional[str], obj: Any = None
    ) -> None:
        if kind == "crash":
            os._exit(3)
        elif kind == "hang":
            time.sleep(self.hang_secs)
        elif kind == "os_error":
            raise OSError(
                errno.EAGAIN, f"injected transient I/O error at {site}"
            )
        elif kind in ("disk_full", "disk_full_trace", "disk_full_why"):
            raise OSError(errno.ENOSPC, f"injected disk-full at {site}")
        elif kind == "corrupt_result" and obj is not None:
            # A silently wrong answer: no exception, no torn bytes —
            # only cross-engine shadow verification can catch it.
            obj.stats.hits += 1
        elif kind == "corrupt_store" and path is not None:
            Path(path).write_text('{"injected": "corruption', encoding="utf-8")
        elif kind == "corrupt_payload" and path is not None:
            # Bit-rot that keeps the JSON valid: perturb one counter in
            # the stored record, leaving schema and key intact. Only
            # the embedded payload digest can detect this on read.
            record = json.loads(Path(path).read_text(encoding="utf-8"))
            stats = record["result"]["stats"]
            stats["hits"] = int(stats.get("hits", 0)) + 1
            Path(path).write_text(
                json.dumps(record, sort_keys=True), encoding="utf-8"
            )
        elif kind == "truncate_trace" and path is not None:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))


# -- active-plan management -----------------------------------------------

_installed: Optional[FaultPlan] = None
_env_spec: Optional[str] = None
_env_plan: Optional[FaultPlan] = None
_suppress_depth = 0


@contextmanager
def suppressed():
    """Disable fault injection inside the block (process-wide).

    Wrapped around trusted paths that must see the pristine system —
    above all the shadow-verification reference re-execution, where an
    injected fault would poison the very answer the suspect result is
    being compared against.
    """
    global _suppress_depth
    _suppress_depth += 1
    try:
        yield
    finally:
        _suppress_depth -= 1


def install(plan: Optional[FaultPlan]) -> None:
    """Activate a plan for this process, overriding the environment."""
    global _installed
    _installed = plan


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULT_PLAN``.

    The parsed plan is cached per spec string, so repeated fault points
    cost one env lookup; changing the variable takes effect immediately.
    Inside a :func:`suppressed` block there is no active plan.
    """
    if _suppress_depth > 0:
        return None
    if _installed is not None:
        return _installed
    spec = os.environ.get(FAULT_PLAN_ENV)
    global _env_spec, _env_plan
    if not spec:
        _env_spec = _env_plan = None
        return None
    if spec != _env_spec:
        _env_plan = FaultPlan.parse(spec)
        _env_spec = spec
    return _env_plan


def fault_point(
    site: str,
    token: str = "",
    path: Optional[str] = None,
    obj: Any = None,
) -> None:
    """Give the active plan (if any) a chance to inject a fault here.

    ``path`` names an on-disk artifact some kinds garble in place;
    ``obj`` hands in-memory state (a just-computed result) to kinds
    that model silent corruption rather than I/O failure.
    """
    plan = active_plan()
    if plan is not None:
        plan.fire(site, token, path, obj)
