"""Power-trace construction from simulation activity.

Builds the Fig. 7 curves: a :class:`~repro.sim.trace.ValueTrace` of
total core power over time, assembled from timestamped *phase events*
that controllers emit while they run (manager control burst, copy
loop, active wait, chain enable/disable, decompressor enable/disable).

The builder is a :class:`~repro.obs.tracing.SpanSubscriber`: wired to
a system's :class:`~repro.obs.tracing.TraceScope`, it receives one
:meth:`on_phase` call per phase-track transition and samples the
power model at each — the same sampling instants the historical
``enter_*``/``leave_*`` wiring produced, so the Fig. 7 output is
byte-identical whether or not a trace is being recorded.  The direct
transition methods remain the builder's API (and ``on_phase`` simply
dispatches to them).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.tracing import SpanSubscriber
from repro.power.model import ManagerState, PowerModel
from repro.sim import Simulator, ValueTrace

#: Phase-track names the builder understands (see ``on_phase``).
MANAGER_TRACK = "manager"
CHAIN_TRACK = "chain"
DECOMPRESSOR_TRACK = "decompressor"


class PowerTraceBuilder(SpanSubscriber):
    """Accumulates component state and samples total power."""

    def __init__(self, sim: Simulator, model: PowerModel,
                 name: str = "core_power") -> None:
        self._sim = sim
        self._model = model
        self.trace = ValueTrace(name)
        self._manager_state = ManagerState.IDLE
        self._chain_active = False
        self._clk2_mhz = 100.0
        self._decompressor_active = False
        self._clk3_mhz = 0.0
        self._sample()

    # -- state transitions ---------------------------------------------

    def manager_state(self, state: str) -> None:
        if state != self._manager_state:
            self._manager_state = state
            self._sample()

    def chain_on(self, clk2_mhz: float) -> None:
        self._chain_active = True
        self._clk2_mhz = clk2_mhz
        self._sample()

    def chain_off(self) -> None:
        if self._chain_active:
            self._chain_active = False
            self._sample()

    def decompressor_on(self, clk3_mhz: float) -> None:
        self._decompressor_active = True
        self._clk3_mhz = clk3_mhz
        self._sample()

    def decompressor_off(self) -> None:
        if self._decompressor_active:
            self._decompressor_active = False
            self._sample()

    # -- span subscription ----------------------------------------------

    def on_phase(self, track: str, phase: Optional[str], time_ps: int,
                 args: Optional[Dict[str, Any]]) -> None:
        """Phase-track transitions mapped onto power-state changes.

        ``time_ps`` always equals ``sim.now`` when the scope delivers
        the callback, so sampling through :meth:`_sample` lands on the
        same instant the direct methods would.
        """
        if track == MANAGER_TRACK:
            self.manager_state(ManagerState.IDLE if phase is None
                               else phase)
        elif track == CHAIN_TRACK:
            if phase is None:
                self.chain_off()
            else:
                self.chain_on((args or {}).get("clk2_mhz",
                                               self._clk2_mhz))
        elif track == DECOMPRESSOR_TRACK:
            if phase is None:
                self.decompressor_off()
            else:
                self.decompressor_on((args or {}).get("clk3_mhz",
                                                      self._clk3_mhz))

    def finalize(self) -> ValueTrace:
        """Return to idle and close the trace."""
        self._manager_state = ManagerState.IDLE
        self._chain_active = False
        self._decompressor_active = False
        self._sample()
        return self.trace

    # -- sampling --------------------------------------------------------

    @property
    def current_mw(self) -> float:
        return self._model.total_mw(
            manager_state=self._manager_state,
            chain_active=self._chain_active,
            clk2_mhz=self._clk2_mhz,
            decompressor_active=self._decompressor_active,
            clk3_mhz=self._clk3_mhz,
        )

    def _sample(self) -> None:
        self.trace.record(self._sim.now, self.current_mw)

    def power_between(self, start_ps: int, end_ps: int) -> float:
        """Mean power over a window (mW), zero-order-hold weighted."""
        if end_ps <= start_ps:
            raise ValueError("empty window")
        total = 0.0
        samples = self.trace.samples
        for index, sample in enumerate(samples):
            seg_start = sample.time_ps
            seg_end = (samples[index + 1].time_ps
                       if index + 1 < len(samples) else end_ps)
            lo = max(seg_start, start_ps)
            hi = min(seg_end, end_ps)
            if lo < hi:
                total += sample.value * (hi - lo)
        return total / (end_ps - start_ps)
