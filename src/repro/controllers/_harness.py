"""Shared execution harness for the baseline controllers.

Every Table III baseline reduces to the same run shape: a manager
control lead, one long transfer phase whose duration the controller's
architecture determines, then a control tail — wrapped with power
sampling and ICAP integrity checking.  The controllers supply a
:class:`TransferPlan`; this harness turns it into a verified
:class:`~repro.controllers.base.ReconfigurationResult` on a fresh
simulator.

(UPaRC itself does *not* use this shortcut — it runs the full
Manager/UReC/DyCloGen process machinery in :mod:`repro.core.system`;
the baselines' published architectures are what the plans encode.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bitstream.device import DeviceInfo
from repro.bitstream.generator import PartialBitstream
from repro.results import ReconfigurationResult, stream_crc
from repro.fpga.config_memory import ConfigurationLogic, ConfigurationMemory
from repro.fpga.icap import Icap
from repro.obs import current_registry, current_tracer
from repro.obs.tracing import KernelObserver, TraceScope
from repro.power.energy import EnergyReport, energy_from_trace
from repro.power.model import ManagerState, PowerModel
from repro.power.trace import (
    CHAIN_TRACK,
    MANAGER_TRACK,
    PowerTraceBuilder,
)
from repro.sim import Clock, Delay, Process, Simulator
from repro.units import DataSize, Frequency

CONTROL_OVERHEAD_PS = 1_200_000  # same 120-cycle manager burst as UPaRC


@dataclass
class TransferPlan:
    """One baseline reconfiguration, reduced to its essentials."""

    controller: str
    mode: str                      # storage/mode label for the result
    stored_size: DataSize          # bytes in the staging store
    output_bytes: bytes            # exact stream ICAP must receive
    transfer_ps: int               # duration of the transfer phase
    manager_state: str             # COPY (processor-driven) or WAIT (DMA)
    chain_active: bool             # does the DMA chain power scale w/ f?
    control_overhead_ps: int = CONTROL_OVERHEAD_PS


def execute_plan(plan: TransferPlan, device: DeviceInfo,
                 frequency: Frequency, bitstream: PartialBitstream,
                 power_model: Optional[PowerModel] = None,
                 allow_overclock: bool = True) -> ReconfigurationResult:
    """Run a plan on a fresh simulator and verify the payload."""
    sim = Simulator()
    clock = Clock(sim, f"{plan.controller}.clk", frequency)
    logic = ConfigurationLogic(ConfigurationMemory(device))
    icap = Icap(sim, device, clock, allow_overclock=allow_overclock,
                config_logic=logic)
    model = power_model if power_model is not None else PowerModel()
    builder = PowerTraceBuilder(sim, model,
                                name=f"{plan.controller}.power")
    # Phase tracks announce the run's state machine; the power builder
    # subscribes and samples at every transition — the same instants
    # it used to be called at directly, so traces are unchanged.
    scope = TraceScope(sim, tracer=current_tracer(),
                       label=plan.controller)
    registry = current_registry()
    if scope.recording or registry.enabled:
        sim.observer = KernelObserver(scope, registry)
    scope.subscribe(builder)
    manager_track = scope.track(MANAGER_TRACK, cat="controller")
    chain_track = scope.track(CHAIN_TRACK, cat="power")

    timings = {}

    def run():
        lead = plan.control_overhead_ps // 2
        tail = plan.control_overhead_ps - lead
        manager_track.enter(ManagerState.CONTROL)
        yield Delay(lead)
        timings["start"] = sim.now
        manager_track.enter(plan.manager_state)
        if plan.chain_active:
            chain_track.enter("active", clk2_mhz=frequency.mhz)
        icap.enable()
        icap.reset_payload()
        icap.absorb(plan.output_bytes,
                    words_per_cycle=2.0)  # timing paced by transfer_ps
        yield Delay(plan.transfer_ps)
        icap.disable()
        if plan.chain_active:
            chain_track.exit()
        timings["finish"] = sim.now
        manager_track.enter(ManagerState.CONTROL)
        yield Delay(tail)
        manager_track.exit()

    Process(sim, run(), name=plan.controller)
    sim.run()
    trace = builder.finalize()

    start_ps = timings["start"]
    finish_ps = timings["finish"]
    energy = energy_from_trace(trace, start_ps, finish_ps)
    corrected = energy_from_trace(trace, start_ps, finish_ps,
                                  baseline_mw=model.idle_mw())
    duration_s = (finish_ps - start_ps) / 1e12
    result = ReconfigurationResult(
        controller=plan.controller,
        bitstream_size=bitstream.size,
        stored_size=plan.stored_size,
        mode=plan.mode,
        frequency=frequency,
        start_ps=start_ps,
        finish_ps=finish_ps,
        control_overhead_ps=plan.control_overhead_ps,
        words_delivered=icap.words_accepted,
        payload_crc=icap.payload_crc,
        expected_crc=stream_crc(bitstream.raw_bytes),
        frames_written=logic.frames_written,
        power_trace=trace,
        energy=EnergyReport(
            controller=plan.controller,
            bitstream=bitstream.size,
            duration_ps=finish_ps - start_ps,
            mean_power_mw=(energy / duration_s / 1e3
                           if duration_s > 0 else 0.0),
            energy_uj=energy,
            energy_uj_idle_corrected=corrected,
        ),
    )
    return result.require_verified()
