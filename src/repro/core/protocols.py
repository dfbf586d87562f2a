"""Structural interfaces for every pluggable cache policy.

The access path (:mod:`repro.cache.access_path`) composes four policy
roles — install steering, way prediction, victim replacement, and the
DCP writeback directory. Historically the roles were defined by base
classes plus duck-typed probes (``getattr(dcp, "authoritative",
True)``); these :class:`typing.Protocol` definitions make the contracts
explicit and runtime-checkable, so a policy either conforms or fails
loudly at design-construction time instead of deep inside a run.

All protocols are structural: conformance needs no inheritance, only
the right members. The concrete policies in :mod:`repro.core` and
:mod:`repro.cache` all satisfy them (asserted by the test suite and by
:func:`ensure_policy_conformance`, which :func:`repro.core.accord.make_design`
calls on every cache it assembles).

Import direction note: core -> cache imports are the allowed direction,
so this module may import :mod:`repro.cache.replacement`; the cache
package, however, must never import this module at runtime (that would
cycle through ``repro.core.__init__``) — cache modules name these types
in annotations only.
"""

from __future__ import annotations

import inspect
import typing
from typing import (
    TYPE_CHECKING,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.cache.replacement import ReplacementPolicy
from repro.errors import PolicyError

if TYPE_CHECKING:  # hints only; keeps the module cheap to import
    from repro.cache.geometry import CacheGeometry
    from repro.cache.storage import TagStore


@runtime_checkable
class InstallSteeringPolicy(Protocol):
    """Decides where lines may live and where fills land.

    ``candidate_ways`` defines the legal residence set for a tag (what
    miss confirmation must probe); ``choose_install_way`` picks the fill
    target from that set. ``on_install`` lets stateful policies (GWS's
    RIT) observe committed installs.
    """

    name: str
    geometry: "CacheGeometry"
    ways: int

    def candidate_ways(self, set_index: int, tag: int) -> Sequence[int]: ...

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: "TagStore",
        replacement: ReplacementPolicy,
    ) -> int: ...

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None: ...

    def storage_bits(self) -> int: ...


@runtime_checkable
class WayPredictorPolicy(Protocol):
    """Names the way to probe first on a read.

    ``on_access``/``on_install``/``on_evict`` are the observation hooks
    stateful predictors (MRU, partial-tag, GWS's RLT) learn from; the
    stateless predictors inherit no-op implementations.
    """

    name: str
    geometry: "CacheGeometry"
    ways: int

    def predict(self, set_index: int, tag: int, addr: int) -> int: ...

    def on_access(
        self, set_index: int, tag: int, addr: int, way: Optional[int], hit: bool
    ) -> None: ...

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None: ...

    def on_evict(self, set_index: int, tag: int, way: int) -> None: ...

    def storage_bits(self) -> int: ...


@runtime_checkable
class DcpDirectoryPolicy(Protocol):
    """Writeback way-information source (the paper's extended DCP).

    ``authoritative`` is the contract the access path branches on: True
    means a ``lookup`` miss *proves* the line is absent, so a writeback
    may bypass straight to NVM; False (a finite directory that forgets)
    means a miss is inconclusive and the writeback must probe. This
    replaces the old ``getattr(dcp, "authoritative", True)`` duck-typed
    probe — every directory must declare the attribute.
    """

    authoritative: bool

    def lookup(self, line_addr: int) -> Optional[int]: ...

    def insert(self, line_addr: int, way: int) -> None: ...

    def remove(self, line_addr: int) -> None: ...

    def hit_rate(self) -> float: ...


#: Policy roles consulted by the access path, in reporting order. Each
#: may carry the optional ``vectorizable`` / ``replay_vectorizable``
#: capability attributes.
_POLICY_ROLES = ("steering", "predictor", "replacement", "dcp", "lookup")


def policy_is_vectorizable(policy) -> bool:
    """The ``vectorizable`` capability of one policy (default False).

    ``vectorizable = True`` declares that the policy's full behavior —
    candidate sets, probe order, install choice, prediction, random
    draws, observation hooks — is a deterministic set-local function
    that the vector simulation engine
    (:class:`repro.sim.engines.VectorEngine`) replays exactly as whole-
    array numpy recurrences. Every piece of mutable state the policy
    consults or updates for set *s* must depend only on accesses to set
    *s*, because the vector kernel reorders accesses across sets (never
    within one).

    The capability is opt-in with a conservative default: a policy that
    does not declare it is driven through the exact per-access paths.
    Only the in-repo policies whose recurrences the vector kernel
    implements declare True.
    """
    return bool(getattr(policy, "vectorizable", False)) if policy is not None else True


def unvectorizable_roles(cache) -> list:
    """Names of the cache's policy roles that block vector execution.

    Empty list means every role opted in (the engine may still decline
    for structural reasons, e.g. an unprefilled store). A cache without
    an ``AccessPath`` (e.g. the column-associative model, whose
    alternate location lives in a *different* set) is reported as a
    single ``"cache"`` pseudo-role: its access flow itself crosses set
    boundaries.
    """
    if getattr(cache, "path", None) is None:
        return ["cache"]
    return [
        role
        for role in _POLICY_ROLES
        if not policy_is_vectorizable(getattr(cache, role, None))
    ]


def policy_is_replay_vectorizable(policy) -> bool:
    """The ``replay_vectorizable`` capability of one policy.

    ``replay_vectorizable = True`` declares that the policy's dense
    per-access math (candidate sets, probe order, hashed preferences,
    per-set counter-based random draws) is a pure precomputable
    function, while its *global* mutable state — if any — is touched
    only through the small event set the sparse-replay engine
    (:class:`repro.sim.engines.SparseReplayEngine`) replays in trace
    order: region-table lookups/records (GWS RIT/RLT), PSEL votes
    (set-dueling), finite-DCP inserts, victim removals, writeback
    refreshes and re-learns with LRU capacity eviction
    (:class:`~repro.cache.dcp.FiniteDcpDirectory`), and cross-set
    displacements (the CA cache).

    Every ``vectorizable`` policy is trivially replay-vectorizable (no
    global state to replay at all), so the capability is implied rather
    than re-declared. Only policies that are *not* set-local need the
    explicit attribute; the default for undeclared global-state
    policies stays False, keeping them on the exact per-access paths.
    """
    if policy is None:
        return True
    if getattr(policy, "replay_vectorizable", False):
        return True
    return bool(getattr(policy, "vectorizable", False))


def unreplayable_roles(cache) -> list:
    """Names of the cache's policy roles that block sparse-replay.

    Empty list means every role opted in (the replay engine may still
    decline for structural reasons, e.g. an unprefilled store or a
    policy stack outside its kernels). A cache without an
    ``AccessPath`` may opt in *as a whole* by declaring
    ``replay_vectorizable`` on the cache class (the column-associative
    model does); otherwise it is the single ``"cache"`` pseudo-role,
    as in :func:`unvectorizable_roles`.
    """
    if getattr(cache, "path", None) is None:
        if getattr(cache, "replay_vectorizable", False):
            return []
        return ["cache"]
    return [
        role
        for role in _POLICY_ROLES
        if not policy_is_replay_vectorizable(getattr(cache, role, None))
    ]


def cache_is_replay_vectorizable(cache) -> bool:
    """True when every role of ``cache`` admits sparse-replay execution."""
    return not unreplayable_roles(cache)


#: (protocol, policy class) -> members to re-check on each instance;
#: recorded only once an instance of that class has conformed.
_CONFORMING_CLASSES: dict = {}


def _conforms(policy, protocol) -> bool:
    """``isinstance(policy, protocol)``, memoized per policy class.

    After one conforming instance, later instances of its class re-check
    only members the class cannot vouch for: attributes set in
    ``__init__`` and data descriptors (properties, ``__slots__``).
    """
    cls = type(policy)
    members = _CONFORMING_CLASSES.get((protocol, cls))
    if members is not None:
        return all(hasattr(policy, name) for name in members)
    if not isinstance(policy, protocol):
        return False
    _CONFORMING_CLASSES[(protocol, cls)] = tuple(
        name for name in typing._get_protocol_attrs(protocol)
        if not _class_resolves(cls, name)
    )
    return True


def _class_resolves(cls, name: str) -> bool:
    try:
        kind = type(inspect.getattr_static(cls, name))
    except AttributeError:
        return False
    return not (hasattr(kind, "__set__") or hasattr(kind, "__delete__"))


def ensure_policy_conformance(cache) -> None:
    """Validate a cache's policies against the protocols.

    Raises :class:`~repro.errors.PolicyError` naming the offending role.
    Called by :func:`repro.core.accord.make_design` after assembly so a
    malformed custom policy fails at build time, not mid-simulation.
    """
    checks = (
        ("steering", getattr(cache, "steering", None), InstallSteeringPolicy, False),
        ("predictor", getattr(cache, "predictor", None), WayPredictorPolicy, True),
        ("replacement", getattr(cache, "replacement", None), ReplacementPolicy, False),
        ("dcp", getattr(cache, "dcp", None), DcpDirectoryPolicy, True),
    )
    for role, policy, protocol, optional in checks:
        if policy is None:
            if optional:
                continue
            raise PolicyError(f"cache has no {role} policy")
        if not _conforms(policy, protocol):
            raise PolicyError(
                f"{role} policy {type(policy).__name__} does not conform to "
                f"{protocol.__name__}"
            )


__all__ = [
    "InstallSteeringPolicy",
    "WayPredictorPolicy",
    "ReplacementPolicy",
    "DcpDirectoryPolicy",
    "ensure_policy_conformance",
    "policy_is_vectorizable",
    "unvectorizable_roles",
    "policy_is_replay_vectorizable",
    "unreplayable_roles",
    "cache_is_replay_vectorizable",
]
