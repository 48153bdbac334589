"""The Table III roster: one name-to-factory mapping for every caller."""

from repro.analysis.comparison import PAPER_TABLE3
from repro.controllers import CONTROLLERS, build_controller


def test_roster_is_in_table3_row_order():
    assert list(CONTROLLERS) == list(PAPER_TABLE3)


def test_build_controller_returns_a_fresh_instance():
    assert build_controller("FaRM") is not build_controller("FaRM")
