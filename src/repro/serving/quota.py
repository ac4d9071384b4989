"""Per-tenant quotas for the offload server.

A tenant is a named principal owning sessions; quotas bound how much of
the shared board a tenant can hold: open sessions, queued (admitted but
not yet executed) requests, and device-resident bytes parked between
requests for warm reuse.  ``None`` means unbounded.  Session and pending
limits reject at admission (:class:`QuotaError`); the resident limit is
soft — crossing it triggers eviction of the tenant's idle session state,
and only if nothing evictable remains does the server refuse to park
more (the request itself still runs, its buffers are simply freed
instead of kept warm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TenantQuota:
    #: concurrently open sessions (None: unbounded)
    max_sessions: Optional[int] = None
    #: admitted-but-unexecuted requests across the tenant's sessions
    max_pending: Optional[int] = None
    #: device bytes parked for warm reuse across the tenant's sessions
    max_resident_bytes: Optional[int] = None


class QuotaError(Exception):
    """An admission was refused by a tenant quota."""


class QuotaManager:
    """Book-keeping of per-tenant usage against their quotas."""

    def __init__(self, default: Optional[TenantQuota] = None):
        self.default = default or TenantQuota()
        self.open_sessions: dict[str, int] = {}
        self.pending: dict[str, int] = {}
        self.resident_bytes: dict[str, int] = {}
        #: admissions refused, per tenant
        self.rejections: dict[str, int] = {}

    def quota(self, tenant: str) -> TenantQuota:
        """The quota ``tenant`` is held to: every tenant has the default."""
        return self.default

    def _reject(self, tenant: str, why: str) -> None:
        self.rejections[tenant] = self.rejections.get(tenant, 0) + 1
        raise QuotaError(f"tenant {tenant!r}: {why}")

    # -- sessions -------------------------------------------------------------
    def admit_session(self, tenant: str) -> None:
        q = self.quota(tenant)
        have = self.open_sessions.get(tenant, 0)
        if q.max_sessions is not None and have >= q.max_sessions:
            self._reject(tenant, f"session limit {q.max_sessions} reached")
        self.open_sessions[tenant] = have + 1

    def release_session(self, tenant: str) -> None:
        self.open_sessions[tenant] = max(
            0, self.open_sessions.get(tenant, 0) - 1)

    # -- pending requests -----------------------------------------------------
    def admit_pending(self, tenant: str) -> None:
        q = self.quota(tenant)
        have = self.pending.get(tenant, 0)
        if q.max_pending is not None and have >= q.max_pending:
            self._reject(tenant, f"pending-request limit {q.max_pending} "
                                 "reached")
        self.pending[tenant] = have + 1

    def release_pending(self, tenant: str) -> None:
        self.pending[tenant] = max(0, self.pending.get(tenant, 0) - 1)

    # -- resident bytes -------------------------------------------------------
    def resident(self, tenant: str) -> int:
        return self.resident_bytes.get(tenant, 0)

    def resident_over(self, tenant: str, extra: int) -> bool:
        """Would parking ``extra`` more bytes exceed the tenant's limit?"""
        q = self.quota(tenant)
        if q.max_resident_bytes is None:
            return False
        return self.resident(tenant) + extra > q.max_resident_bytes

    def charge_resident(self, tenant: str, nbytes: int) -> None:
        self.resident_bytes[tenant] = self.resident(tenant) + int(nbytes)

    def uncharge_resident(self, tenant: str, nbytes: int) -> None:
        self.resident_bytes[tenant] = max(0, self.resident(tenant)
                                          - int(nbytes))
