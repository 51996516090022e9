"""Tests for repro.net.streaming and repro.net.energy."""

import pytest

from repro.core.poa import EncryptedPoaRecord
from repro.errors import ConfigurationError, ProtocolError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.net.energy import WIFI_RADIO, RadioEnergyModel
from repro.net.framing import FrameType, encode_frame
from repro.net.link import SimulatedLink
from repro.net.streaming import (
    Outbox,
    StreamingAuditorEndpoint,
    StreamingUploader,
)


def record(i: int) -> EncryptedPoaRecord:
    return EncryptedPoaRecord(ciphertext=bytes([i]) * 64,
                              signature=bytes([255 - i]) * 64)


def make_pair(loss=0.0, seed=0, rto=0.5):
    uplink = SimulatedLink(latency_s=0.02, jitter_s=0.0,
                           loss_probability=loss, seed=seed)
    downlink = SimulatedLink(latency_s=0.02, jitter_s=0.0)
    uploader = StreamingUploader(uplink, downlink, "flight-1",
                                 retransmit_timeout_s=rto)
    endpoint = StreamingAuditorEndpoint(uplink, downlink)
    return uploader, endpoint


def drive(uploader, endpoint, records, push_interval=0.2, max_time=60.0):
    """Co-simulate both endpoints until the flight is fully delivered."""
    t = 0.0
    uploader.begin_flight(t)
    for i, rec in enumerate(records):
        t = (i + 1) * push_interval
        uploader.push(rec, t)
        endpoint.poll(t + 0.05)
        uploader.poll(t + 0.1)
    uploader.end_flight(t + push_interval)
    while t < max_time and not (endpoint.complete and uploader.fully_acked):
        t += 0.25
        endpoint.poll(t)
        uploader.poll(t)
    return t


class TestLosslessStreaming:
    def test_all_entries_arrive_in_order(self):
        uploader, endpoint = make_pair()
        records = [record(i) for i in range(10)]
        drive(uploader, endpoint, records)
        assert endpoint.complete
        assert endpoint.records() == records
        assert endpoint.flight_id == "flight-1"

    def test_no_retransmissions_without_loss(self):
        uploader, endpoint = make_pair()
        drive(uploader, endpoint, [record(i) for i in range(5)])
        assert uploader.stats.retransmissions == 0

    def test_push_without_begin_rejected(self):
        uploader, _ = make_pair()
        with pytest.raises(ProtocolError):
            uploader.push(record(0), 0.0)

    def test_push_after_end_rejected(self):
        uploader, _ = make_pair()
        uploader.begin_flight(0.0)
        uploader.end_flight(1.0)
        with pytest.raises(ProtocolError):
            uploader.push(record(0), 2.0)

    def test_invalid_rto_rejected(self):
        with pytest.raises(ProtocolError):
            make_pair(rto=0.0)


class TestLossyStreaming:
    def test_retransmission_recovers_all_entries(self):
        uploader, endpoint = make_pair(loss=0.3, seed=7, rto=0.3)
        records = [record(i) for i in range(20)]
        drive(uploader, endpoint, records, max_time=120.0)
        assert endpoint.complete
        assert endpoint.records() == records
        assert uploader.stats.retransmissions > 0

    def test_air_time_grows_with_loss(self):
        clean_up, clean_ep = make_pair(loss=0.0)
        drive(clean_up, clean_ep, [record(i) for i in range(20)])
        lossy_up, lossy_ep = make_pair(loss=0.3, seed=5, rto=0.3)
        drive(lossy_up, lossy_ep, [record(i) for i in range(20)],
              max_time=120.0)
        assert lossy_up.stats.air_time_s > clean_up.stats.air_time_s

    def test_corrupt_frames_counted_not_fatal(self):
        uploader, endpoint = make_pair()
        uploader.begin_flight(0.0)
        # Inject garbage straight onto the uplink.
        uploader.uplink.send(b"not a frame at all", 0.0)
        uploader.push(record(1), 0.1)
        endpoint.poll(1.0)
        assert endpoint.corrupt_frames == 1
        assert len(endpoint.records()) == 1


class TestFlightEnd:
    def test_plain_rsa_flight_end_stays_empty(self):
        """An rsa-v15 flight without a finalizer sends the same empty
        FLIGHT_END payload as a stream that names no scheme."""
        uploader, endpoint = make_pair()
        uploader.begin_flight(0.0)
        sent = uploader.stats.bytes_sent
        uploader.end_flight(0.1, "rsa-v15", b"")
        assert uploader.stats.bytes_sent - sent == len(
            encode_frame(FrameType.FLIGHT_END, 0, b""))
        endpoint.poll(1.0)
        submission = endpoint.to_submission("drone-1", 0.0, 1.0)
        assert (submission.scheme, submission.finalizer) == ("rsa-v15", b"")

    @pytest.mark.parametrize("payload", [b"\x05abc", b"\x00",
                                         b"\x05bogus", b"\x0arsa-v15"])
    def test_unparseable_flight_end_is_a_corrupt_frame(self, payload):
        uploader, endpoint = make_pair()
        uploader.uplink.send(encode_frame(FrameType.FLIGHT_END, 0, payload),
                             0.0)
        endpoint.poll(1.0)
        assert endpoint.corrupt_frames == 1
        assert not endpoint.ended


class TestOutbox:
    def test_invalid_limit_rejected(self):
        with pytest.raises(ProtocolError):
            Outbox(limit=0)

    def test_add_raises_when_full(self):
        outbox = Outbox(limit=2)
        outbox.add(b"a")
        outbox.add(b"b")
        assert outbox.full
        with pytest.raises(ProtocolError, match="outbox full"):
            outbox.add(b"c")

    def test_ack_frees_window(self):
        outbox = Outbox(limit=2)
        outbox.add(b"a")
        outbox.add(b"b")
        assert outbox.ack_through(0) == [0]
        assert not outbox.full
        assert outbox.add(b"c") == 2  # sequences keep advancing

    def test_stale_ack_is_ignored(self):
        outbox = Outbox()
        outbox.add(b"a")
        outbox.add(b"b")
        outbox.ack_through(1)
        assert outbox.ack_through(0) == []
        assert outbox.acked_through == 1

    def test_unbounded_by_default(self):
        outbox = Outbox()
        for i in range(1_000):
            outbox.add(bytes([i % 256]))
        assert outbox.pending == 1_000 and not outbox.full

    def test_uploader_respects_bound(self):
        """Pushing past the outbox bound fails loudly, and draining via
        ACKs (duplicate-safe re-send) lets the stream continue."""
        uplink = SimulatedLink(latency_s=0.01, jitter_s=0.0)
        downlink = SimulatedLink(latency_s=0.01, jitter_s=0.0)
        uploader = StreamingUploader(uplink, downlink, "f",
                                     outbox_limit=3)
        endpoint = StreamingAuditorEndpoint(uplink, downlink)
        uploader.begin_flight(0.0)
        for i in range(3):
            uploader.push(record(i), 0.1 * (i + 1))
        assert not uploader.can_push
        with pytest.raises(ProtocolError):
            uploader.push(record(3), 0.4)
        endpoint.poll(1.0)
        uploader.poll(2.0)
        assert uploader.can_push
        uploader.push(record(3), 2.1)
        uploader.end_flight(2.2)
        endpoint.poll(3.0)
        assert endpoint.complete
        assert endpoint.records() == [record(i) for i in range(4)]


class TestInjectedFaultStreaming:
    def injected_pair(self, *rules, seed=0, rto=0.3, outbox_limit=None):
        injector = FaultInjector(FaultPlan("t", tuple(rules), seed=seed))
        uplink = SimulatedLink(latency_s=0.02, jitter_s=0.0, seed=seed,
                               injector=injector,
                               fault_point="link.uplink")
        downlink = SimulatedLink(latency_s=0.02, jitter_s=0.0,
                                 seed=seed + 1, injector=injector,
                                 fault_point="link.downlink")
        uploader = StreamingUploader(uplink, downlink, "flight-f",
                                     retransmit_timeout_s=rto,
                                     outbox_limit=outbox_limit)
        endpoint = StreamingAuditorEndpoint(uplink, downlink)
        return uploader, endpoint

    def test_liveness_under_30_percent_injected_loss(self):
        """The §IV-B liveness bar: a stream over a 30 %-loss channel must
        still converge to a complete, fully-acked flight."""
        uploader, endpoint = self.injected_pair(
            FaultRule("link.uplink.send", "drop", probability=0.3),
            FaultRule("link.downlink.send", "drop", probability=0.3),
            seed=11)
        records = [record(i) for i in range(20)]
        drive(uploader, endpoint, records, max_time=120.0)
        assert endpoint.complete
        assert endpoint.records() == records
        assert uploader.stats.retransmissions > 0

    def test_duplicate_faults_deduplicated(self):
        uploader, endpoint = self.injected_pair(
            FaultRule("link.uplink.send", "duplicate"))
        drive(uploader, endpoint, [record(i) for i in range(5)])
        assert endpoint.complete
        assert endpoint.records() == [record(i) for i in range(5)]
        assert endpoint.duplicate_frames >= 5

    def test_corrupt_faults_counted_and_recovered(self):
        uploader, endpoint = self.injected_pair(
            FaultRule("link.uplink.send", "corrupt", probability=0.4),
            seed=3)
        records = [record(i) for i in range(10)]
        t = 0.0
        uploader.begin_flight(t)
        for i, rec in enumerate(records):
            t = (i + 1) * 0.2
            uploader.push(rec, t)
            endpoint.poll(t + 0.05)
            uploader.poll(t + 0.1)
        # FLIGHT_END itself can be corrupted, so the drone re-announces
        # it until the auditor confirms completion (as the chaos harness
        # does): fire-and-forget close frames don't survive a bad link.
        while t < 120.0 and not (endpoint.complete
                                 and uploader.fully_acked):
            uploader.end_flight(t)
            t += 0.5
            endpoint.poll(t)
            uploader.poll(t)
        assert endpoint.complete
        assert endpoint.records() == records
        assert endpoint.corrupt_frames > 0

    def test_retransmission_reuses_sequence_numbers(self):
        uploader, endpoint = self.injected_pair(
            FaultRule("link.uplink.send", "drop", max_count=2))
        uploader.begin_flight(0.0)  # eaten (fault 1 of 2)
        uploader.push(record(0), 0.1)  # eaten (fault 2 of 2)
        endpoint.poll(0.5)
        uploader.poll(1.0)  # RTO expired -> retransmit, same sequence
        endpoint.poll(1.5)
        assert uploader.stats.retransmissions == 1
        assert endpoint.records() == [record(0)]


class TestEnergyModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioEnergyModel(tx_power_w=-1.0, idle_power_w=0.1)
        with pytest.raises(ConfigurationError):
            WIFI_RADIO.streaming_energy_j(-1.0, 0.0)
        with pytest.raises(ConfigurationError):
            WIFI_RADIO.battery_fraction(1.0, battery_wh=0.0)

    def test_streaming_costs_idle_plus_tx(self):
        energy = WIFI_RADIO.streaming_energy_j(flight_duration_s=100.0,
                                               air_time_s=2.0)
        assert energy == pytest.approx(0.25 * 100.0 + (1.3 - 0.25) * 2.0)

    def test_deferred_costs_nothing_in_flight(self):
        assert WIFI_RADIO.deferred_energy_j() == 0.0

    def test_battery_fraction(self):
        # 60 Wh = 216 kJ; 216 J is 0.1%.
        assert WIFI_RADIO.battery_fraction(216.0) == pytest.approx(0.001)
