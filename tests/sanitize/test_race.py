"""RaceSanitizer: S901/S902 detection, instrumentation hygiene."""

import pytest

from repro.sanitize import (
    READ_WRITE_RACE,
    RaceSanitizer,
    WRITE_WRITE_RACE,
    sanitized,
)
from repro.sim import Simulator


class Device:
    """Plain model object; opted in via ``watch()`` in the tests."""

    def __init__(self):
        self.value = 0
        self.log = []

    def bump(self):
        self.value += 1

    def stash(self):
        self.value = 99

    def observe(self):
        self.log.append(self.value)


def run_watched(drive, **kwargs):
    """Build a sim + watched Device inside a sanitizer; return findings."""
    with sanitized(auto_instrument=False, **kwargs) as sanitizer:
        sim = Simulator()
        device = sanitizer.watch(Device())
        drive(sim, device)
        sim.run()
    return sanitizer


def test_unordered_same_instant_writes_are_a_write_write_race():
    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(100, device.stash)

    sanitizer = run_watched(drive)
    [finding] = [f for f in sanitizer.findings
                 if f.rule_id == WRITE_WRITE_RACE]
    assert finding.object_type == "Device"
    assert finding.attr == "value"
    assert finding.time_ps == 100
    assert "S901" in finding.describe()


def test_unordered_read_and_write_are_a_read_write_race():
    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(100, device.observe)

    sanitizer = run_watched(drive)
    assert any(f.rule_id == READ_WRITE_RACE and f.attr == "value"
               for f in sanitizer.findings)


def test_scheduler_edge_suppresses_the_pair():
    def drive(sim, device):
        def first():
            device.bump()
            sim.call_at(sim.now, device.stash)
        sim.call_at(100, first)

    sanitizer = run_watched(drive)
    assert sanitizer.findings == []


def test_distinct_instants_never_race():
    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(200, device.stash)
        sim.call_at(300, device.observe)

    sanitizer = run_watched(drive)
    assert sanitizer.findings == []


def test_unwatched_objects_are_ignored():
    with sanitized(auto_instrument=False) as sanitizer:
        sim = Simulator()
        device = Device()  # never watched
        sim.call_at(100, device.bump)
        sim.call_at(100, device.stash)
        sim.run()
    assert sanitizer.findings == []


def test_no_reads_mode_skips_read_write_pairs():
    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(100, device.observe)

    sanitizer = run_watched(drive, track_reads=False)
    assert not any(f.rule_id == READ_WRITE_RACE
                   for f in sanitizer.findings)


def test_justified_findings_are_marked_but_kept():
    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(100, device.stash)

    sanitizer = run_watched(drive, justified=("Device.value",))
    [finding] = [f for f in sanitizer.findings
                 if f.rule_id == WRITE_WRITE_RACE]
    assert finding.justified


def test_repeated_racy_instants_deduplicate_into_a_count():
    def drive(sim, device):
        for time_ps in (100, 200, 300):
            sim.call_at(time_ps, device.bump)
            sim.call_at(time_ps, device.stash)

    sanitizer = run_watched(drive)
    [finding] = [f for f in sanitizer.findings
                 if f.rule_id == WRITE_WRITE_RACE]
    assert finding.count == 3


def test_schedule_sites_point_at_the_schedule_calls():
    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(100, device.stash)

    sanitizer = run_watched(drive)
    [finding] = [f for f in sanitizer.findings
                 if f.rule_id == WRITE_WRITE_RACE]
    assert all(path == __file__
               for path, _line in finding.schedule_sites)


def test_instrumentation_is_restored_on_close():
    sanitizer = RaceSanitizer(auto_instrument=False)
    sanitizer.open()
    try:
        sanitizer.watch(Device())
        assert getattr(Device.__setattr__,
                       "_repro_sanitize_wrapper", False)
    finally:
        sanitizer.close()
    assert "__setattr__" not in vars(Device)
    assert "__getattribute__" not in vars(Device)


def test_open_twice_raises():
    sanitizer = RaceSanitizer(auto_instrument=False)
    sanitizer.open()
    try:
        with pytest.raises(RuntimeError):
            sanitizer.open()
    finally:
        sanitizer.close()
    sanitizer.close()  # idempotent


def test_auto_instrumentation_covers_controller_state():
    # ICAPController lives in repro.fpga; its attribute writes during
    # a real reconfiguration must be recorded without any watch().
    from repro.bitstream.generator import generate_bitstream
    from repro.core.system import UPaRCSystem
    from repro.units import DataSize, Frequency

    with sanitized() as sanitizer:
        system = UPaRCSystem(decompressor=None)
        system.preload(generate_bitstream(size=DataSize.from_kb(2)))
        system.set_frequency(Frequency.from_mhz(100))
        system.reconfigure()
    assert sanitizer.accesses_recorded > 0
    assert sanitizer.findings == []  # the models are race-free


def test_counters_emitted_on_close():
    from repro.obs import observed

    def drive(sim, device):
        sim.call_at(100, device.bump)
        sim.call_at(100, device.stash)

    with observed(metrics=True) as observation:
        run_watched(drive)
    snapshot = observation.registry.snapshot()
    counters = snapshot["counters"]
    assert counters["sanitize.tasks"] >= 2
    assert counters["sanitize.accesses"] >= 2
    assert counters["sanitize.races"] >= 1
