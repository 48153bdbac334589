"""UPaRC controller adapter (Table III rows UPaRC_i / UPaRC_ii)."""

import pytest

from repro.controllers import UparcController
from repro.controllers.base import LargeBitstreamGrade
from repro.errors import ControllerError
from repro.units import Frequency


def mhz(value):
    return Frequency.from_mhz(value)


def test_mode_i_table3_bandwidth(paper_bitstream):
    result = UparcController("i").best_result(paper_bitstream)
    assert result.bandwidth_decimal_mbps == pytest.approx(1433, rel=0.01)
    assert result.verified
    assert result.controller == "UPaRC_i"


def test_mode_ii_table3_bandwidth(paper_bitstream):
    result = UparcController("ii").best_result(paper_bitstream)
    assert result.bandwidth_decimal_mbps == pytest.approx(1008, rel=0.02)
    assert result.controller == "UPaRC_ii"
    assert result.mode == "compressed"


def test_mode_i_is_1_8x_faster_than_farm(paper_bitstream):
    from repro.controllers import Farm
    uparc = UparcController("i").best_result(paper_bitstream)
    farm = Farm().best_result(paper_bitstream)
    ratio = uparc.bandwidth_decimal_mbps / farm.bandwidth_decimal_mbps
    assert ratio == pytest.approx(1.8, rel=0.03)


def test_grades_match_table3():
    assert UparcController("i").large_bitstream \
        is LargeBitstreamGrade.LIMITED
    assert UparcController("ii").large_bitstream \
        is LargeBitstreamGrade.COMPRESSED


def test_max_frequencies():
    assert UparcController("i").max_frequency == mhz(362.5)
    assert UparcController("ii").max_frequency == mhz(255)


def test_invalid_mode_rejected():
    with pytest.raises(ControllerError):
        UparcController("iii")


def test_over_frequency_rejected(small_bitstream):
    with pytest.raises(ControllerError):
        UparcController("i").reconfigure(small_bitstream, mhz(400))


def test_v6_device_caps_mode_i_frequency():
    from repro.bitstream.device import VIRTEX6_LX240T
    controller = UparcController("i", device=VIRTEX6_LX240T)
    # The paper: 362.5 MHz "is not reliable" on Virtex-6.
    assert controller.max_frequency < mhz(362.5)


def test_v6_envelope_costs_under_3_percent(paper_bitstream):
    """Table III's headline run on the V6 envelope loses little to
    the V5's 362.5 MHz."""
    from repro.bitstream.device import VIRTEX6_LX240T
    from repro.bitstream.generator import generate_bitstream
    from repro.units import DataSize
    v5 = UparcController("i")
    v6 = UparcController("i", device=VIRTEX6_LX240T)
    v5_result = v5.best_result(paper_bitstream)
    v6_result = v6.best_result(generate_bitstream(
        size=DataSize.from_kb(216.5), device=VIRTEX6_LX240T))
    assert v5_result.verified and v6_result.verified
    assert v6.max_frequency < v5.max_frequency
    loss = 1 - (v6_result.bandwidth_decimal_mbps
                / v5_result.bandwidth_decimal_mbps)
    assert 0.0 < loss < 0.03


def test_custom_frequency_run(small_bitstream):
    result = UparcController("i").reconfigure(small_bitstream, mhz(100))
    assert result.frequency == mhz(100)
    assert result.verified
