"""Tests for the detailed memory device models (banks, channels, NVM,
scheduler, bus timing)."""

import pytest

from repro.mem.bank import Bank
from repro.mem.channel import Channel
from repro.mem.dram import DramDevice
from repro.mem.nvm import NvmDevice
from repro.mem.scheduler import FrFcfsScheduler
from repro.params.timing import BusConfig, DramTiming, NvmTiming, hbm_bus, nvm_bus


@pytest.fixture
def timing():
    return DramTiming()


class TestBank:
    def test_first_access_is_row_empty(self, timing):
        bank = Bank(timing)
        response = bank.access(5, 0.0)
        assert not response.row_hit
        assert response.ready_ns == pytest.approx(timing.row_empty_ns)
        assert bank.row_empties == 1

    def test_row_hit(self, timing):
        bank = Bank(timing)
        first = bank.access(5, 0.0)
        second = bank.access(5, first.ready_ns)
        assert second.row_hit
        assert second.ready_ns == pytest.approx(first.ready_ns + timing.row_hit_ns)

    def test_row_miss_costs_more(self, timing):
        bank = Bank(timing)
        first = bank.access(5, 0.0)
        second = bank.access(9, first.ready_ns)
        assert not second.row_hit
        assert second.ready_ns - first.ready_ns >= timing.row_miss_ns

    def test_tras_respected(self, timing):
        bank = Bank(timing)
        bank.access(5, 0.0)
        # An immediate row miss cannot precharge before tRAS expires.
        response = bank.access(9, 0.0)
        assert response.ready_ns >= timing.t_ras + timing.row_miss_ns - timing.t_rp

    def test_busy_serialization(self, timing):
        bank = Bank(timing)
        first = bank.access(5, 0.0)
        second = bank.access(5, 0.0)  # arrives while busy
        assert second.ready_ns > first.ready_ns

    def test_row_hit_rate(self, timing):
        bank = Bank(timing)
        now = 0.0
        for _ in range(4):
            now = bank.access(3, now).ready_ns
        assert bank.row_hit_rate() == pytest.approx(3 / 4)

    def test_precharge(self, timing):
        bank = Bank(timing)
        ready = bank.access(5, 0.0).ready_ns
        bank.precharge(ready + timing.t_ras)
        assert bank.open_row == -1


class TestChannel:
    def test_transfer_occupies_bus(self, timing):
        channel = Channel(timing, hbm_bus(), num_banks=2)
        first = channel.access(0, 0, 72, 0.0)
        second = channel.access(1, 0, 72, 0.0)  # different bank, shared bus
        assert second.ready_ns > first.ready_ns
        assert channel.bytes_transferred == 144

    def test_bad_bank_rejected(self, timing):
        channel = Channel(timing, hbm_bus(), num_banks=2)
        with pytest.raises(Exception):
            channel.access(5, 0, 72, 0.0)


class TestDramDevice:
    def test_ways_share_row(self, timing):
        device = DramDevice(timing, hbm_bus())
        first = device.access_set(0, 1, 0.0)
        second = device.access_set(0, 1, first.ready_ns)
        assert second.row_hit  # same set -> same row buffer

    def test_far_sets_use_different_channels(self, timing):
        device = DramDevice(timing, hbm_bus())
        device.access_set(0, 1, 0.0)
        device.access_set(32, 1, 0.0)  # next row group -> next channel
        busy = [c.bus_busy_until_ns for c in device.channels]
        assert sum(1 for b in busy if b > 0) == 2

    def test_multi_line_transfer(self, timing):
        device = DramDevice(timing, hbm_bus())
        one = device.access_set(0, 1, 0.0).ready_ns
        device2 = DramDevice(timing, hbm_bus())
        four = device2.access_set(0, 4, 0.0).ready_ns
        assert four > one


class TestNvmDevice:
    def test_read_write_latencies(self):
        device = NvmDevice(NvmTiming(), nvm_bus())
        read = device.read_line(0, 0.0)
        assert read.ready_ns >= NvmTiming().read_ns
        write = device.write_line(64, 0.0)
        assert write.ready_ns - 0.0 >= NvmTiming().write_ns
        assert device.reads == 1 and device.writes == 1

    def test_channel_interleave(self):
        device = NvmDevice(NvmTiming(), nvm_bus())
        device.read_line(0, 0.0)
        device.read_line(64, 0.0)  # adjacent line -> other channel
        assert device.channels[0].reads == 1
        assert device.channels[1].reads == 1


class TestScheduler:
    def test_fcfs_within_class(self):
        scheduler = FrFcfsScheduler(capacity=8)
        scheduler.enqueue("a", 0.0, (0, 0), row=1)
        scheduler.enqueue("b", 1.0, (0, 0), row=1)
        assert scheduler.pop_next(lambda key: -1) == "a"

    def test_row_hit_first(self):
        scheduler = FrFcfsScheduler(capacity=8)
        scheduler.enqueue("miss", 0.0, (0, 0), row=1)
        scheduler.enqueue("hit", 1.0, (0, 0), row=7)
        assert scheduler.pop_next(lambda key: 7) == "hit"

    def test_capacity(self):
        scheduler = FrFcfsScheduler(capacity=1)
        scheduler.enqueue("a", 0.0, (0, 0), row=1)
        assert scheduler.full
        with pytest.raises(OverflowError):
            scheduler.enqueue("b", 0.0, (0, 0), row=1)

    def test_empty_pop(self):
        assert FrFcfsScheduler().pop_next(lambda key: -1) is None

    def test_oldest_arrival(self):
        scheduler = FrFcfsScheduler()
        assert scheduler.oldest_arrival() is None
        scheduler.enqueue("a", 5.0, (0, 0), row=1)
        scheduler.enqueue("b", 3.0, (0, 0), row=1)
        assert scheduler.oldest_arrival() == 3.0


class TestBusConfig:
    def test_paper_bandwidths(self):
        assert hbm_bus().aggregate_bandwidth_gbps == pytest.approx(128.0)
        assert nvm_bus().aggregate_bandwidth_gbps == pytest.approx(32.0)

    def test_sustainable_below_peak(self):
        assert hbm_bus().sustainable_bandwidth_gbps < hbm_bus().aggregate_bandwidth_gbps

    def test_transfer_time(self):
        bus = hbm_bus()  # 16 B/ns per channel
        assert bus.transfer_ns(72) == pytest.approx(72 / 32.0 * 2.0)

    def test_validation(self):
        with pytest.raises(Exception):
            BusConfig(channels=0, bus_bits=64, frequency_mhz=100)
        with pytest.raises(Exception):
            BusConfig(channels=1, bus_bits=63, frequency_mhz=100)
        with pytest.raises(Exception):
            BusConfig(channels=1, bus_bits=64, frequency_mhz=100, efficiency=1.5)
