"""Frame-synthesis plan: the op stream the generator hands a backend.

The synthetic-bitstream generator draws a *run mixture* from its seeded
RNG (zero filler, routing motifs, copies from the previous frame,
texture/LUT words).  Those draws decide *what* every payload word is,
but the decisions never depend on the materialised words themselves —
which is what makes the materialisation a swappable backend kernel:
the planner records one op per run into this container, and
``accel.synthesize_payload`` turns the ops into the packed payload
bytes.

Ops live in ``array`` typed arrays rather than Python lists so the
native backend can hand them to C zero-copy (``ffi.from_buffer``);
the pure backend just iterates them.  Two op kinds cover the whole
mixture:

* ``FILL``  — ``length`` repetitions of ``value`` (zero runs, motif
  runs, and single texture/LUT words are all fills);
* ``COPY``  — ``length`` words copied from the previous frame at the
  same intra-frame offsets, i.e. from exactly ``frame_words`` words
  behind the write position.

The planner clips every op at the frame boundary, so op lengths sum
to ``frames * frame_words`` and a COPY never reaches past its own
frame's start.
"""

from __future__ import annotations

from array import array

FILL = 0
COPY = 1


class SynthesisPlan:
    """Typed-array op stream for one bitstream's frame payload."""

    __slots__ = ("frame_words", "kinds", "values", "lengths",
                 "total_words")

    def __init__(self, frame_words: int) -> None:
        if frame_words <= 0:
            raise ValueError("frame_words must be positive")
        self.frame_words = frame_words
        self.kinds = array("B")
        self.values = array("I")
        self.lengths = array("I")
        self.total_words = 0

    def fill(self, value: int, length: int) -> int:
        """Append a FILL op; returns the length for position updates."""
        if length > 0:
            self.kinds.append(FILL)
            self.values.append(value)
            self.lengths.append(length)
            self.total_words += length
        return length

    def copy_previous(self, length: int) -> int:
        """Append a COPY-from-previous-frame op."""
        if length > 0:
            self.kinds.append(COPY)
            self.values.append(0)
            self.lengths.append(length)
            self.total_words += length
        return length

    def __len__(self) -> int:
        return len(self.kinds)
