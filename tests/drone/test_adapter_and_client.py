"""Tests for repro.drone.adapter and repro.drone.client."""

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import decrypt_poa
from repro.core.protocol import ZoneRegistrationRequest
from repro.drone.adapter import Adapter
from repro.drone.client import AliDroneClient
from repro.drone.flightplan import FlightPlan
from repro.errors import (
    ProtocolError,
    ServiceUnavailableError,
    TeeError,
    TeeTransientError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.retry import RetryPolicy
from repro.server.auditor import AliDroneServer
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH


@pytest.fixture()
def platform(make_platform):
    return make_platform()


@pytest.fixture()
def server(frame):
    return AliDroneServer(frame, rng=random.Random(99),
                          encryption_key_bits=512)


@pytest.fixture()
def client(platform, frame, signing_key, rng):
    device, receiver, clock = platform
    return AliDroneClient(device, receiver, clock, frame,
                          operator_key=signing_key,
                          operator_name="test-op", rng=rng)


class TestAdapter:
    def test_get_gps_auth_requires_start(self, platform):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock)
        with pytest.raises(TeeError):
            adapter.get_gps_auth()

    def test_start_is_idempotent(self, platform):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock)
        adapter.start()
        first = adapter._session_id
        adapter.start()
        assert adapter._session_id == first
        adapter.stop()
        adapter.stop()  # also idempotent

    def test_read_gps_matches_receiver(self, platform):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock)
        clock.advance(2.0)
        sample = adapter.read_gps()
        fix = receiver.fix_at(clock.now)
        assert sample.t == fix.time
        assert sample.lat == fix.lat

    def test_read_gps_none_before_first_update(self, make_device, frame):
        from repro.gps.receiver import SimulatedGpsReceiver
        from repro.gps.replay import WaypointSource
        from repro.sim.clock import SimClock
        source = WaypointSource([(T0, 0, 0), (T0 + 10, 1, 0)])
        clock = SimClock(T0)
        receiver = SimulatedGpsReceiver(source, frame, start_time=T0 + 100.0)
        device = make_device()
        device.attach_gps(receiver, clock)
        adapter = Adapter(device, receiver, clock)
        assert adapter.read_gps() is None

    def test_auth_sample_decodes_to_current_fix(self, platform):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock)
        adapter.start()
        clock.advance(3.0)
        signed = adapter.get_gps_auth()
        assert signed.sample.t == pytest.approx(T0 + 3.0, abs=0.011)
        assert signed.verify(device.tee_public_key)


class TestClientProtocolFlow:
    def test_registration(self, client, server):
        drone_id = client.register(server)
        assert drone_id.startswith("drone-")
        assert client.drone_id == drone_id

    def test_zone_query_requires_registration(self, client, server, frame):
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(300, 0)])
        with pytest.raises(ProtocolError):
            client.query_zones(server, plan)

    def test_zone_query_returns_zones_in_rect(self, client, server, frame):
        inside = frame.to_geo(150.0, 50.0)
        outside = frame.to_geo(5_000.0, 5_000.0)
        server.register_zone(ZoneRegistrationRequest(
            zone=NoFlyZone(inside.lat, inside.lon, 20.0),
            proof_of_ownership="deed-1"))
        server.register_zone(ZoneRegistrationRequest(
            zone=NoFlyZone(outside.lat, outside.lon, 20.0),
            proof_of_ownership="deed-2"))
        client.register(server)
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(300, 0)])
        zones = client.query_zones(server, plan)
        assert len(zones) == 1
        assert zones[0].radius_m == 20.0
        assert client.known_zones == zones

    def test_fly_adaptive_and_submit(self, client, server, frame):
        center = frame.to_geo(150.0, 80.0)
        server.register_zone(ZoneRegistrationRequest(
            zone=NoFlyZone(center.lat, center.lon, 20.0),
            proof_of_ownership="deed-1"))
        client.register(server)
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(300, 0)])
        client.query_zones(server, plan)
        record = client.fly(T0 + 50.0, policy="adaptive")
        assert record.policy == "adaptive"
        assert len(record.poa) >= 1
        report = client.submit_poa(server, record)
        assert report.compliant

    def test_fly_fixed_policy(self, client, server):
        client.register(server)
        record = client.fly(T0 + 10.0, policy="fixed", fixed_rate_hz=2.0)
        assert record.policy == "fixed-2hz"
        assert len(record.poa) == pytest.approx(21, abs=2)

    def test_fixed_policy_requires_rate(self, client, server):
        client.register(server)
        with pytest.raises(ProtocolError):
            client.fly(T0 + 10.0, policy="fixed")

    def test_unknown_policy_rejected(self, client, server):
        client.register(server)
        with pytest.raises(ProtocolError):
            client.fly(T0 + 10.0, policy="quantum")

    def test_flight_ids_unique(self, client, server):
        client.register(server)
        a = client.fly(T0 + 2.0, policy="fixed", fixed_rate_hz=1.0)
        b = client.fly(T0 + 4.0, policy="fixed", fixed_rate_hz=1.0)
        assert a.flight_id != b.flight_id

    def test_submission_encrypts_payloads(self, client, server):
        client.register(server)
        record = client.fly(T0 + 5.0, policy="fixed", fixed_rate_hz=1.0)
        submission = client.build_submission(record,
                                             server.public_encryption_key)
        for rec, entry in zip(submission.records, record.poa):
            assert entry.payload not in rec.ciphertext
        # The server can decrypt them back.
        restored = decrypt_poa(submission.records,
                               server.engine.encryption_key)
        assert restored.entries == record.poa.entries

    def test_submission_requires_registration(self, client, server):
        record = client.fly(T0 + 2.0, policy="fixed", fixed_rate_hz=1.0)
        with pytest.raises(ProtocolError):
            client.build_submission(record, server.public_encryption_key)


class _FlakyAuditor:
    """Delegates to a real server but fails the first N calls per method."""

    def __init__(self, server, failures):
        self._server = server
        self._failures = dict(failures)  # method name -> remaining fails
        self.seen_nonces: list[bytes] = []

    def _maybe_fail(self, method):
        remaining = self._failures.get(method, 0)
        if remaining > 0:
            self._failures[method] = remaining - 1
            raise ServiceUnavailableError(f"{method}: auditor unavailable")

    def register_drone(self, request):
        self._maybe_fail("register_drone")
        return self._server.register_drone(request)

    def handle_zone_query(self, query):
        self.seen_nonces.append(query.nonce)
        self._maybe_fail("handle_zone_query")
        return self._server.handle_zone_query(query)

    def receive_poa(self, submission):
        self._maybe_fail("receive_poa")
        return self._server.receive_poa(submission)

    @property
    def public_encryption_key(self):
        return self._server.public_encryption_key


class TestClientRetries:
    POLICY = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=1.0)

    def retrying_client(self, platform, frame, signing_key, rng):
        device, receiver, clock = platform
        return AliDroneClient(device, receiver, clock, frame,
                              operator_key=signing_key, rng=rng,
                              retry_policy=self.POLICY,
                              retry_rng=random.Random(0))

    def test_register_rides_out_auditor_outage(self, platform, frame,
                                               signing_key, rng, server):
        client = self.retrying_client(platform, frame, signing_key, rng)
        flaky = _FlakyAuditor(server, {"register_drone": 2})
        drone_id = client.register(flaky)
        assert drone_id.startswith("drone-")
        assert client.retry_stats.by_operation["register"] == 2
        assert client.clock.now > T0  # backoff consumed virtual time

    def test_register_without_policy_fails_fast(self, client, server):
        flaky = _FlakyAuditor(server, {"register_drone": 1})
        with pytest.raises(ServiceUnavailableError):
            client.register(flaky)

    def test_query_zones_uses_fresh_nonce_per_attempt(self, platform, frame,
                                                      signing_key, rng,
                                                      server):
        """Nonces are single-use on the server, so a retry must re-sign a
        new one rather than replay the failed attempt's query."""
        client = self.retrying_client(platform, frame, signing_key, rng)
        flaky = _FlakyAuditor(server, {"handle_zone_query": 2})
        client.register(flaky)
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(300, 0)])
        client.query_zones(flaky, plan)
        assert len(flaky.seen_nonces) == 3
        assert len(set(flaky.seen_nonces)) == 3

    def test_submit_poa_rides_out_auditor_outage(self, platform, frame,
                                                 signing_key, rng, server):
        client = self.retrying_client(platform, frame, signing_key, rng)
        flaky = _FlakyAuditor(server, {"receive_poa": 2})
        client.register(flaky)
        record = client.fly(T0 + 5.0, policy="fixed", fixed_rate_hz=1.0)
        report = client.submit_poa(flaky, record)
        assert report.compliant
        assert client.retry_stats.by_operation["submit_poa"] == 2

    def test_gives_up_when_outage_outlasts_policy(self, platform, frame,
                                                  signing_key, rng, server):
        client = self.retrying_client(platform, frame, signing_key, rng)
        flaky = _FlakyAuditor(server, {"register_drone": 99})
        with pytest.raises(ServiceUnavailableError):
            client.register(flaky)
        assert client.retry_stats.giveups == 1


class TestAdapterTeeRetry:
    def smc_outage_injector(self, clock, fails):
        plan = FaultPlan("smc-outage", (
            FaultRule("tee.smc", "fail", max_count=fails),))
        return FaultInjector(plan, now_fn=lambda: clock.now)

    def test_transient_smc_failure_retried(self, platform):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock,
                          retry_policy=RetryPolicy(max_attempts=4,
                                                   base_delay_s=0.05,
                                                   max_delay_s=0.2),
                          retry_rng=random.Random(0))
        adapter.start()  # session setup itself is not under retry
        device.monitor.attach_injector(self.smc_outage_injector(clock, 2))
        signed = adapter.get_gps_auth()
        assert signed.verify(device.tee_public_key)

    def test_failed_smc_does_not_switch_worlds(self, platform):
        """A fail rule fires *before* the world switch: the secure world
        never serviced the call, so no switches are counted for it."""
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock)
        adapter.start()
        switches_before = device.monitor.stats.world_switches
        device.monitor.attach_injector(self.smc_outage_injector(clock, 1))
        with pytest.raises(TeeTransientError):
            adapter.get_gps_auth()
        assert device.monitor.stats.world_switches == switches_before

    def test_without_policy_transient_error_propagates(self, platform):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock)
        adapter.start()
        device.monitor.attach_injector(self.smc_outage_injector(clock, 1))
        with pytest.raises(TeeTransientError):
            adapter.get_gps_auth()
        device.monitor.attach_injector(None)
        assert adapter.get_gps_auth().verify(device.tee_public_key)
