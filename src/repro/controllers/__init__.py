"""Reconfiguration controllers: UPaRC and the Table III baselines.

Every controller implements the :class:`ReconfigurationController`
interface and returns a :class:`ReconfigurationResult`, so the
comparison harness (`repro.analysis.comparison`) can sweep them
uniformly.  :data:`CONTROLLERS` names the seven Table III contenders
once, in the paper's row order; the sweep grids, the serve fleet and
the campaigns all build their instances through
:func:`build_controller`:

* :class:`XpsHwicap`     — Xilinx's processor-driven controller
  (CompactFlash, cached, and the paper's unoptimized §V profile).
* :class:`BramHwicap`    — DMA from BRAM (Liu et al.).
* :class:`MstIcap`       — DMA from DDR2 SDRAM (Liu et al.).
* :class:`Farm`          — FaRM with RLE decompression (Duhem et al.).
* :class:`FlashCap`      — X-MatchPRO streaming (Nabina & Nunez-Yanez).
* :class:`UparcController` — UPaRC modes i (raw) and ii (compressed),
  an adapter over :class:`repro.core.system.UPaRCSystem`.
"""

from functools import partial
from typing import Callable, Dict

from repro.controllers.base import (
    LargeBitstreamGrade,
    ReconfigurationController,
    ReconfigurationResult,
)
from repro.controllers.xps_hwicap import XpsHwicap
from repro.controllers.bram_hwicap import BramHwicap
from repro.controllers.mst_icap import MstIcap
from repro.controllers.farm import Farm
from repro.controllers.flashcap import FlashCap
from repro.controllers.uparc import UparcController
from repro.errors import ControllerError

#: The Table III contenders in the paper's row order (slowest first),
#: each name mapped to the factory of a fresh instance.
CONTROLLERS: Dict[str, Callable[[], ReconfigurationController]] = {
    "xps_hwicap[cached]": partial(XpsHwicap, profile="cached"),
    "MST_ICAP": MstIcap,
    "FlashCAP_i": FlashCap,
    "BRAM_HWICAP": BramHwicap,
    "FaRM": Farm,
    "UPaRC_ii": partial(UparcController, "ii"),
    "UPaRC_i": partial(UparcController, "i"),
}


def build_controller(name: str) -> ReconfigurationController:
    """A fresh instance of the Table III controller called ``name``."""
    try:
        factory = CONTROLLERS[name]
    except KeyError:
        raise ControllerError(
            f"unknown controller {name!r}; known: "
            f"{', '.join(CONTROLLERS)}") from None
    return factory()


__all__ = [
    "CONTROLLERS",
    "build_controller",
    "LargeBitstreamGrade",
    "ReconfigurationController",
    "ReconfigurationResult",
    "XpsHwicap",
    "BramHwicap",
    "MstIcap",
    "Farm",
    "FlashCap",
    "UparcController",
]
