"""Synthetic partial-bitstream generator.

The paper measured real Virtex-5 partial bitstreams; those are not
reproducible without the boards and the vendor toolchain, so this
module synthesizes byte streams with the same *statistical structure*
(the property Table I's compression comparison depends on):

* **Blank frames** — unconfigured columns are all-zero frames.  The
  paper deliberately used high-utilization regions to avoid inflating
  ratios, so the default utilization is high (0.92).
* **Routing motifs** — interconnect configuration reuses a small
  vocabulary of switch-box patterns; the same words recur within and
  across frames (what LZ77/LZ78/X-MatchPRO exploit).
* **Column periodicity** — frames of the same column type share layout,
  so content correlates at frame-size lags.
* **Dense LUT payloads** — logic truth tables are high-entropy words
  (what bounds every codec's ratio from above).
* **Byte skew** — even "used" words contain many zero bytes (sparse
  bits set), which is what plain Huffman exploits.

The mixture weights below were calibrated so the from-scratch codecs in
:mod:`repro.compress` land near the paper's Table I column (RLE 63 %,
... 7-zip 81.9 %).  EXPERIMENTS.md records measured-vs-paper values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional

from repro import accel
from repro.accel.plan import FrameMixture, SynthesisPlan
from repro.bitstream.device import DeviceInfo, VIRTEX5_SX50T
from repro.bitstream.format import (
    BUS_WIDTH_DETECT,
    BUS_WIDTH_SYNC,
    Command,
    ConfigRegister,
    DUMMY_WORD,
    NOOP_WORD,
    SYNC_WORD,
    command_packet,
    type2_write_headers,
    words_to_bytes,
    write_packet,
)
from repro.bitstream.frames import BlockType, FrameAddress
from repro.bitstream.header import BitstreamHeader
from repro.errors import BitstreamError
from repro.units import DataSize


@dataclass(frozen=True)
class BitstreamSpec:
    """Parameters of a synthetic partial bitstream.

    Used frames are filled with *runs* of words, not independent
    words — configuration memory is run-structured (identical switch
    patterns repeated down a column, zero filler between used
    resources), which is precisely what gives RLE its 63 % in Table I.
    The weights select the run category; run lengths are geometric.
    """

    device: DeviceInfo = VIRTEX5_SX50T
    size: DataSize = DataSize.from_kb(216.5)
    origin: FrameAddress = FrameAddress(BlockType.CLB_IO_CLK, top=0,
                                        row=0, column=4, minor=0)
    utilization: float = 0.92     # fraction of non-blank frames
    motif_pool: int = 8           # distinct routing words in the vocabulary
    zero_run_weight: float = 0.2534  # P(run of zero filler words)
    zero_run_mean: float = 6.8       # mean zero-run length (words)
    motif_run_weight: float = 0.1779 # P(run of one routing motif)
    motif_run_mean: float = 1.281    # mean motif-run length
    copy_weight: float = 0.0942      # P(copy a span from previous frame)
    copy_run_mean: float = 6.796     # mean copied-span length
    sparse_weight: float = 0.4246    # P(single skewed-byte texture word)
    dense_weight: float = 0.0499     # P(single dense LUT word)
    seed: int = 2012              # DATE 2012
    design_name: str = "partial_module"

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise BitstreamError(
                f"utilization must be in [0, 1], got {self.utilization}"
            )
        weights = (self.zero_run_weight, self.motif_run_weight,
                   self.copy_weight, self.sparse_weight, self.dense_weight)
        if any(w < 0 for w in weights):
            raise BitstreamError("mixture weights must be >= 0")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise BitstreamError(
                f"mixture weights must sum to 1, got {sum(weights)}"
            )
        for mean in (self.zero_run_mean, self.motif_run_mean,
                     self.copy_run_mean):
            if mean < 1.0:
                raise BitstreamError("run-length means must be >= 1")
        if self.size.bytes <= 0:
            raise BitstreamError("bitstream size must be positive")
        if self.motif_pool < 0:
            raise BitstreamError(
                f"motif_pool must be >= 0, got {self.motif_pool}")
        if self.motif_pool == 0 and self.motif_run_weight > 0:
            raise BitstreamError(
                "motif_run_weight > 0 needs a motif_pool of at least 1")


@dataclass
class PartialBitstream:
    """A generated partial bitstream and its views.

    ``file_bytes``   — the full .bit file (preamble + raw bitstream),
                       what sits in external memory.
    ``raw_words``    — the raw configuration word stream (sync +
                       packets), what actually goes through ICAP.
    ``frame_payload``— just the FDRI frame data, the compressible body.

    The stream is stored in three pieces — prologue words, packed FDRI
    payload bytes, epilogue words — because every hot consumer (the
    codecs, file round trips, the UPaRC datapath) reads the payload as
    *bytes*.  ``raw_words`` is derived lazily and cached the first
    time a word-level consumer (the floorplan report) asks for it.
    """

    spec: BitstreamSpec
    header: BitstreamHeader
    #: Words before the FDRI payload, including its packet headers.
    shell_prologue: List[int]
    #: Words after the payload (LFRM, CRC, DESYNC, padding).
    shell_epilogue: List[int]
    #: Packed big-endian FDRI frame data (the compressible body).
    payload_data: bytes
    frame_count: int
    _raw_words: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def frame_payload_offset(self) -> int:
        """Word index of the first FDRI data word."""
        return len(self.shell_prologue)

    @property
    def frame_payload_words(self) -> int:
        return len(self.payload_data) // 4

    @property
    def raw_words(self) -> List[int]:
        if self._raw_words is None:
            self._raw_words = (self.shell_prologue
                               + accel.bytes_to_words(self.payload_data)
                               + self.shell_epilogue)
        return self._raw_words

    @property
    def raw_bytes(self) -> bytes:
        return (words_to_bytes(self.shell_prologue)
                + self.payload_data
                + words_to_bytes(self.shell_epilogue))

    @property
    def file_bytes(self) -> bytes:
        return self.header.encode() + self.raw_bytes

    @property
    def frame_payload(self) -> bytes:
        return self.payload_data

    @property
    def size(self) -> DataSize:
        return DataSize(len(self.shell_prologue) * 4
                        + len(self.payload_data)
                        + len(self.shell_epilogue) * 4)


class _FrameSynthesizer:
    """Plans frame content as runs following the statistical mixture.

    The synthesizer is a *planner*: it makes every RNG draw (so the
    stream of random numbers consumed is exactly the historical
    sequence, keeping all seeded outputs bit-identical) but emits
    run-level ops into a :class:`~repro.accel.plan.SynthesisPlan`
    instead of appending words one by one.  The active
    :mod:`repro.accel` backend then materialises the plan in bulk.

    Two sequence-preserving details matter:

    * a run that overshoots the frame boundary is *clipped in the op*
      but its run-length draws are still consumed (the old code built
      the long run and truncated with ``words[:target]``);
    * copies from the previous frame read ``frame_words`` behind the
      write position, and are available from frame 1 onward (every
      frame, blank or used, becomes the next frame's copy source).
    """

    def __init__(self, spec: BitstreamSpec) -> None:
        self._spec = spec
        # One kernel seeds the MT19937 state (self._state, which
        # plan() advances in place) and draws the vocabulary from it.
        # Motifs are sparse-ish words themselves (routing bits are a
        # minority of each word), keeping the byte histogram skewed.
        # The byte pool is the vocabulary of "configuration texture"
        # words: words that rarely repeat exactly (little for
        # dictionary coders to grab) but whose bytes follow a heavily
        # skewed, zipf-like histogram (what byte-level Huffman
        # exploits).
        self._state, motifs, byte_pool = accel.seed_mixture(
            spec.seed, spec.motif_pool, _BYTE_POOL_SIZE)
        # Cumulative category thresholds, accumulated in the historical
        # order so the float comparisons are bit-for-bit unchanged.
        zero_threshold = spec.zero_run_weight
        motif_threshold = zero_threshold + spec.motif_run_weight
        copy_threshold = motif_threshold + spec.copy_weight
        sparse_threshold = copy_threshold + spec.sparse_weight
        self._mixture = FrameMixture(
            frame_words=spec.device.frame_words,
            utilization=spec.utilization,
            zero_threshold=zero_threshold,
            motif_threshold=motif_threshold,
            copy_threshold=copy_threshold,
            sparse_threshold=sparse_threshold,
            zero_success=_geometric_success(spec.zero_run_mean),
            motif_success=_geometric_success(spec.motif_run_mean),
            copy_success=_geometric_success(spec.copy_run_mean),
            motifs=motifs,
            byte_pool=byte_pool,
            cum_weights=_CUM_WEIGHTS,
            cum_total=_CUM_WEIGHTS[-1] + 0.0,
        )
        self._have_previous = False

    def plan(self, frame_count: int) -> SynthesisPlan:
        """Plan the next ``frame_count`` frames of payload ops.

        The planning loop is the ``accel.plan_frames`` kernel: the
        pure backend's loop is the reference, and the native backend
        runs the same draws in C over this synthesizer's MT19937
        state array.  Successive calls continue one stream: the state
        carries over, and so does the previous frame a COPY reads from.
        """
        plan = accel.plan_frames(self._state, self._mixture, frame_count,
                                 self._have_previous)
        if frame_count > 0:
            self._have_previous = True
        return plan


_BYTE_POOL_SIZE = 20
# Zipf weights of the texture byte pool, accumulated once: sampling
# by bisect over them draws the same single random() per byte that
# random.choices() with the plain weights did.
_CUM_WEIGHTS = tuple(accumulate(1.0 / (rank + 1)
                                for rank in range(_BYTE_POOL_SIZE)))


def _geometric_success(mean: float) -> Optional[float]:
    """Run-length success probability (None: mean <= 1 draws nothing)."""
    return 1.0 / mean if mean > 1.0 else None


def generate_bitstream(spec: Optional[BitstreamSpec] = None,
                       **overrides) -> PartialBitstream:
    """Generate a structurally valid synthetic partial bitstream.

    ``overrides`` are applied on top of ``spec`` (or the default spec),
    e.g. ``generate_bitstream(size=DataSize.from_kb(80), seed=7)``.
    """
    if spec is None:
        spec = BitstreamSpec()
    if overrides:
        spec = BitstreamSpec(**{**spec.__dict__, **overrides})
    device = spec.device

    # Command prologue word count (measured once below) is constant, so
    # size the FDRI payload to hit the requested total raw size.
    prologue, epilogue = _command_shell(spec)
    shell_words = len(prologue) + len(epilogue) + 2  # + type1/type2 headers
    target_words = spec.size.words
    payload_words = max(device.frame_words, target_words - shell_words)
    frame_count = max(1, payload_words // device.frame_words)
    payload_words = frame_count * device.frame_words

    synthesizer = _FrameSynthesizer(spec)
    plan = synthesizer.plan(frame_count)
    payload_data = accel.synthesize_payload(plan)

    shell_prologue = prologue + type2_write_headers(ConfigRegister.FDRI,
                                                    payload_words)
    epilogue = _finish_epilogue(spec, payload_data, epilogue)

    header = BitstreamHeader(
        design_name=f"{spec.design_name}.ncd",
        part_name=device.name.lower(),
        date="2012/03/12",
        time="14:00:00",
        payload_length=(len(shell_prologue) + payload_words
                        + len(epilogue)) * 4,
    )
    return PartialBitstream(
        spec=spec,
        header=header,
        shell_prologue=shell_prologue,
        shell_epilogue=epilogue,
        payload_data=payload_data,
        frame_count=frame_count,
    )


# Default region origin (kept for backwards-compatible imports; a
# spec's ``origin`` field is what the generated bitstream targets).
REGION_ORIGIN = FrameAddress(BlockType.CLB_IO_CLK, top=0, row=0,
                             column=4, minor=0)


def frame_repair_bitstream(device: DeviceInfo, origin: FrameAddress,
                           frames: List[List[int]],
                           design_name: str = "frame_repair",
                           ) -> PartialBitstream:
    """A minimal partial bitstream writing exact frames at ``origin``.

    The scrubbing building block: repair only the corrupted frame(s)
    instead of rewriting the whole region.  The caller supplies the
    golden frame contents (e.g. from
    :meth:`~repro.bitstream.generator.PartialBitstream.frame_payload`
    or a readback of a healthy lane); the result is a structurally
    valid bitstream the ICAP/configuration logic accepts, CRC and all.
    """
    if not frames:
        raise BitstreamError("frame repair needs at least one frame")
    flat: List[int] = []
    for index, frame in enumerate(frames):
        if len(frame) != device.frame_words:
            raise BitstreamError(
                f"frame {index} has {len(frame)} words; {device.name} "
                f"frames are {device.frame_words} words"
            )
        flat.extend(frame)

    payload_data = words_to_bytes(flat)
    spec = BitstreamSpec(device=device, size=DataSize.from_words(
        len(flat) + 64), origin=origin, design_name=design_name)
    prologue, epilogue = _command_shell(spec)
    shell_prologue = prologue + type2_write_headers(ConfigRegister.FDRI,
                                                    len(flat))
    epilogue = _finish_epilogue(spec, payload_data, epilogue)
    header = BitstreamHeader(
        design_name=f"{design_name}.ncd",
        part_name=device.name.lower(),
        date="2012/03/12",
        time="14:00:00",
        payload_length=(len(shell_prologue) + len(flat)
                        + len(epilogue)) * 4,
    )
    return PartialBitstream(
        spec=spec,
        header=header,
        shell_prologue=shell_prologue,
        shell_epilogue=epilogue,
        payload_data=payload_data,
        frame_count=len(frames),
    )


def _command_shell(spec: BitstreamSpec):
    """Standard packet prologue/epilogue around the FDRI payload.

    The epilogue returned here carries a placeholder CRC word;
    :func:`_finish_epilogue` replaces it with the true configuration
    CRC once the frame payload is known (the configuration-logic model
    rejects bitstreams whose CRC does not verify).
    """
    device = spec.device
    prologue_packets = [
        command_packet(Command.RCRC),
        write_packet(ConfigRegister.IDCODE, [device.idcode]),
        command_packet(Command.WCFG),
        write_packet(ConfigRegister.FAR, [spec.origin.pack()]),
    ]
    prologue: List[int] = [DUMMY_WORD, BUS_WIDTH_SYNC, BUS_WIDTH_DETECT,
                           DUMMY_WORD, SYNC_WORD, NOOP_WORD]
    for packet in prologue_packets:
        prologue.extend(packet.encode())

    epilogue_packets = [
        command_packet(Command.LFRM),
        write_packet(ConfigRegister.CRC, [0]),  # patched later
        command_packet(Command.DESYNC),
    ]
    epilogue: List[int] = []
    for packet in epilogue_packets:
        epilogue.extend(packet.encode())
    epilogue.extend([NOOP_WORD, NOOP_WORD])
    return prologue, epilogue


def _finish_epilogue(spec: BitstreamSpec, frame_data: bytes,
                     epilogue: List[int]) -> List[int]:
    """Patch the epilogue's CRC word with the true configuration CRC.

    Mirrors the accumulation the configuration logic performs
    (:class:`repro.bitstream.crc.ConfigCrc`): RCRC resets, then every
    register write after it folds in, in stream order.  ``frame_data``
    is the packed big-endian FDRI payload.
    """
    from repro.bitstream.crc import ConfigCrc
    crc = ConfigCrc()
    crc.update(int(ConfigRegister.IDCODE), spec.device.idcode)
    crc.update(int(ConfigRegister.CMD), int(Command.WCFG))
    crc.update(int(ConfigRegister.FAR), spec.origin.pack())
    crc.update_block_bytes(int(ConfigRegister.FDRI), frame_data)
    crc.update(int(ConfigRegister.CMD), int(Command.LFRM))
    patched = list(epilogue)
    # The CRC payload word follows its type-1 header; locate it: the
    # epilogue is [CMD hdr, LFRM, CRC hdr, value, CMD hdr, DESYNC, ...].
    patched[3] = crc.value
    return patched
