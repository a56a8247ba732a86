"""Multi-tenant sharing of one user-level protocol stack.

See :mod:`repro.tenancy.tenant` for the enforcement model,
:mod:`repro.tenancy.invariants` for the isolation checkers, and
:mod:`repro.tenancy.campaign` for the adversarial-tenant cells, the
campaign engine's ``isolation`` axis.
"""

from .tenant import (  # noqa: F401
    GrantViolation,
    PortGrant,
    QuotaExceeded,
    RateLimited,
    Tenant,
    TenantBudget,
    TenantManager,
    TenantViolation,
    TokenBucket,
    attach_tenancy,
)
