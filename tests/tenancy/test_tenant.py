"""Unit tests for the tenancy primitives: token bucket, port grants,
budgets, and the teardown/leak sweep."""

import pytest

from repro.tenancy import (
    GrantViolation,
    PortGrant,
    QuotaExceeded,
    Tenant,
    TenantBudget,
    TokenBucket,
)
from repro.netio.template import udp_send_template, tcp_send_template

IP = 0x0A000001


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------


def test_bucket_admits_within_burst():
    bucket = TokenBucket(rate=1000.0, burst=4000)
    assert bucket.try_consume(4000, now=0.0) == 0.0


def test_bucket_refuses_when_drained_and_hints_retry():
    bucket = TokenBucket(rate=1000.0, burst=4000)
    assert bucket.try_consume(4000, now=0.0) == 0.0
    wait = bucket.try_consume(1000, now=0.0)
    assert wait == pytest.approx(1.0)  # 1000 tokens at 1000/s.
    # After waiting the hinted time the send is admitted.
    assert bucket.try_consume(1000, now=wait) == 0.0


def test_bucket_refills_capped_at_burst():
    bucket = TokenBucket(rate=1000.0, burst=2000)
    assert bucket.try_consume(2000, now=0.0) == 0.0
    # A long idle period refills to the burst cap, no further.
    assert bucket.try_consume(2000, now=100.0) == 0.0
    assert bucket.try_consume(1, now=100.0) > 0.0


def test_bucket_allows_oversize_packet_via_deficit():
    # A single packet larger than the burst must still be sendable
    # (otherwise the tenant could never transmit it at any rate): it is
    # admitted when the bucket is full and drives the balance negative.
    bucket = TokenBucket(rate=100.0, burst=1000)
    assert bucket.try_consume(1500, now=0.0) == 0.0
    # The deficit must be paid down before the next admission.
    wait = bucket.try_consume(100, now=0.0)
    assert wait > 5.0  # 500 deficit + 100 needed at 100/s.


def test_bucket_unlimited_when_rate_nonpositive():
    bucket = TokenBucket(rate=0.0, burst=0)
    for _ in range(10):
        assert bucket.try_consume(1 << 20, now=0.0) == 0.0


# ----------------------------------------------------------------------
# PortGrant
# ----------------------------------------------------------------------


def test_port_grant_of_ports_and_ranges():
    grant = PortGrant.of(80, (5000, 5999))
    assert grant.allows(80)
    assert grant.allows(5000) and grant.allows(5999)
    assert not grant.allows(81)
    assert not grant.allows(6000)


def test_port_grant_any_allows_everything():
    assert PortGrant.any().allows(1)
    assert PortGrant.any().allows(65535)


# ----------------------------------------------------------------------
# Budgets and attribution
# ----------------------------------------------------------------------


def make_tenant(**kwargs):
    defaults = dict(
        region_bytes=128 * 1024,
        bqi_buffers=64,
        max_channels=2,
        max_templates=2,
        ports=PortGrant.of((4000, 4999)),
    )
    defaults.update(kwargs)
    return Tenant("t", TenantBudget(**defaults))


def test_precheck_channel_enforces_caps():
    tenant = make_tenant()
    tenant.precheck_channel(64 * 1024)
    with pytest.raises(QuotaExceeded):
        tenant.precheck_channel(256 * 1024)  # Region quota.
    with pytest.raises(QuotaExceeded):
        tenant.precheck_channel(1024, ring_buffers=128)  # BQI quota.


def test_channel_cap_counts_live_channels():
    tenant = make_tenant(max_channels=1)

    class FakeChannel:
        pass

    first = FakeChannel()
    tenant.precheck_channel(1024)
    tenant.attach_channel(first, 1024)
    with pytest.raises(QuotaExceeded):
        tenant.precheck_channel(1024)
    tenant.release_channel(first)
    tenant.precheck_channel(1024)  # Freed capacity is reusable.


def test_region_attribution_and_peaks():
    tenant = make_tenant()

    class FakeChannel:
        pass

    a, b = FakeChannel(), FakeChannel()
    tenant.attach_channel(a, 64 * 1024)
    tenant.attach_channel(b, 32 * 1024)
    assert tenant.region_bytes_used == 96 * 1024
    tenant.release_channel(a)
    tenant.release_channel(a)  # Idempotent.
    assert tenant.region_bytes_used == 32 * 1024
    assert tenant.counters["peak_region_bytes"] == 96 * 1024


def test_check_port_and_ephemeral_grant():
    tenant = make_tenant()
    tenant.check_port(4000)
    with pytest.raises(GrantViolation):
        tenant.check_port(80)
    assert tenant.counters["rejections"] == 1
    # The registry's ephemeral allocator mints ports into the grant.
    tenant.grant_ephemeral(33000)
    tenant.check_port(33000)


def test_check_template_accepts_conforming_udp_and_tcp():
    tenant = make_tenant()
    tenant.check_template(udp_send_template(IP, 4500))
    tenant.check_template(tcp_send_template(IP, 4000, IP + 1, 80))


def test_check_template_rejects_out_of_grant_port():
    tenant = make_tenant()
    with pytest.raises(GrantViolation):
        tenant.check_template(udp_send_template(IP, 80))
    assert tenant.counters["forged_templates"] == 1


def test_check_template_rejects_unpinned_source():
    # A template with no source-address constraint is a spoofing
    # capability regardless of what port it names.
    from repro.netio.template import HeaderTemplate

    loose = HeaderTemplate._packed(b"\x45", 0xFF, ((0, 1),), "loose")
    tenant = make_tenant()
    with pytest.raises(GrantViolation):
        tenant.check_template(loose)


# ----------------------------------------------------------------------
# Teardown / leaks
# ----------------------------------------------------------------------


def test_leaks_reports_outstanding_attribution():
    tenant = make_tenant()

    class FakeChannel:
        closed = True  # Not registered with any module: swept locally.
        module = None

    tenant.attach_channel(FakeChannel(), 1024)
    leaks = tenant.leaks()
    assert leaks["channels"] == 1
    assert leaks["region_bytes"] == 1024


def test_clean_tenant_has_no_leaks():
    tenant = make_tenant()

    class FakeChannel:
        pass

    chan = FakeChannel()
    tenant.attach_channel(chan, 1024)
    tenant.release_channel(chan)
    assert tenant.leaks() == {}
