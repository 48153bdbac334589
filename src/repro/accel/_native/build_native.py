"""cffi builder for the ``_uparc_native`` extension.

Out-of-line API mode: the C kernels live in ``uparc_kernels.c`` next
to this file and are compiled into a real extension module, so calls
cross the FFI boundary without per-call parsing overhead (and release
the GIL while the kernel runs).

This module is imported in two ways:

* ``python -m repro.accel._native.build`` — in-tree developer build,
  drops the extension next to the sources;
* setuptools' ``cffi_modules`` hook (the ``native`` install extra) —
  builds the extension as part of the wheel.

``REPRO_NATIVE_SANITIZE=1`` in the environment of either build
compiles the kernels with AddressSanitizer and UBSan instead of the
optimised flags.

Importing it requires cffi; everything else in the package stays
importable without.
"""

from __future__ import annotations

import os

from cffi import FFI

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Set to ``1`` to build with AddressSanitizer and UBSan.
SANITIZE_ENV = "REPRO_NATIVE_SANITIZE"

with open(os.path.join(_HERE, "uparc_kernels.c"), "r",
          encoding="utf-8") as _handle:
    _SOURCE = _handle.read()

ffibuilder = FFI()

ffibuilder.cdef("""
typedef struct {
    double utilization;
    double zero_threshold;
    double motif_threshold;
    double copy_threshold;
    double sparse_threshold;
    double zero_success;
    double motif_success;
    double copy_success;
    double cum_total;
    int zero_geometric;
    int motif_geometric;
    int copy_geometric;
} uparc_mixture;
void uparc_init(void);
uint32_t uparc_crc32c(const uint8_t *data, size_t len, uint32_t crc);
uint32_t uparc_crc32c_words(const uint8_t *data, size_t word_count,
                            uint8_t address, uint32_t crc);
int64_t uparc_bitpack(const uint64_t *values, const uint8_t *widths,
                      size_t count, uint8_t *out);
int64_t uparc_huffman_pack(const uint8_t *data, size_t len,
                           const uint64_t *codes, const uint8_t *lengths,
                           uint8_t *out);
int uparc_huffman_code_table(const uint8_t *data, size_t len,
                             uint64_t *codes, uint8_t *lengths);
int64_t uparc_xmatch_tokens(const uint8_t *data, size_t word_count,
                            int capacity, uint64_t *values,
                            uint8_t *widths);
int64_t uparc_lz77_tokens(const uint8_t *data, size_t len,
                          int window_bits, int length_bits,
                          int min_match, int max_chain,
                          uint64_t *values, uint8_t *widths,
                          int32_t *head, int32_t *prev);
void uparc_seed_mixture(const uint8_t *key_bytes, size_t key_words,
                        uint32_t *state, size_t motif_count,
                        uint32_t *motifs, size_t pool_size,
                        uint8_t *byte_pool);
int64_t uparc_plan_frames(uint32_t *state, const uparc_mixture *mix,
                          size_t frame_count, uint32_t frame_words,
                          int have_previous, const uint32_t *motifs,
                          uint32_t motif_count, const uint8_t *byte_pool,
                          const double *cum_weights, size_t hi,
                          uint8_t *kinds, uint32_t *values,
                          uint32_t *lengths, size_t cap);
int64_t uparc_synthesize_payload(const uint8_t *kinds,
                                 const uint32_t *values,
                                 const uint32_t *lengths, size_t op_count,
                                 size_t frame_words, uint8_t *out,
                                 size_t cap_words);
int64_t uparc_rle_records(const uint8_t *data, size_t word_count,
                          uint8_t *out);
int uparc_xmatch_decode(const uint8_t *body, size_t body_len,
                        int64_t output_length, int capacity,
                        uint8_t **out_ptr, int64_t *out_len,
                        int64_t *detail);
int uparc_lz77_decode(const uint8_t *body, size_t body_len,
                      int64_t output_length, int window_bits,
                      int length_bits, int min_match,
                      uint8_t **out_ptr, int64_t *out_len,
                      int64_t *detail);
int uparc_huffman_decode(const uint8_t *body, size_t body_len,
                         int64_t output_length, const uint8_t *lengths,
                         uint8_t **out_ptr, int64_t *out_len);
int uparc_rle_decode(const uint8_t *records, size_t record_len,
                     int64_t output_length, uint8_t **out_ptr,
                     int64_t *out_len);
int uparc_lz78_pack(const uint8_t *data, size_t len, int64_t max_entries,
                    uint8_t **out_ptr, int64_t *out_len);
int uparc_lz78_decode(const uint8_t *body, size_t body_len,
                      int64_t output_length, int64_t max_entries,
                      uint8_t **out_ptr, int64_t *out_len, int64_t *detail);
int uparc_lzma_pack(const uint64_t *values, const uint8_t *widths,
                    size_t count, uint64_t match_mask,
                    uint8_t **out_ptr, int64_t *out_len);
int uparc_lzma_decode(const uint8_t *body, size_t body_len,
                      int64_t output_length,
                      uint8_t **out_ptr, int64_t *out_len);
int uparc_lzbytes_pack(const uint64_t *values, const uint8_t *widths,
                       size_t count, uint64_t match_mask,
                       uint8_t **out_ptr, int64_t *out_len);
int uparc_lzbytes_decode(const uint8_t *body, size_t body_len,
                         int64_t output_length,
                         uint8_t **out_ptr, int64_t *out_len);
void uparc_buffer_free(uint8_t *ptr);
""")

# -ffp-contract=off: the frame planner compares doubles exactly as
# CPython does, which a fused multiply-add could change.
_COMPILE_ARGS = ["-O2", "-ffp-contract=off"]
_LINK_ARGS: list = []
if os.environ.get(SANITIZE_ENV) == "1":
    # AddressSanitizer + UBSan build for CI.  Loading it into CPython
    # needs LD_PRELOAD=$(gcc -print-file-name=libasan.so) and
    # ASAN_OPTIONS=detect_leaks=0; UBSan findings abort instead of
    # printing and carrying on, so a test run cannot pass over one.
    _COMPILE_ARGS = ["-O1", "-g", "-ffp-contract=off",
                     "-fsanitize=address,undefined",
                     "-fno-sanitize-recover=undefined",
                     "-fno-omit-frame-pointer"]
    _LINK_ARGS = ["-fsanitize=address,undefined"]

ffibuilder.set_source(
    "repro.accel._native._uparc_native",
    _SOURCE,
    extra_compile_args=_COMPILE_ARGS,
    extra_link_args=_LINK_ARGS,
)

if __name__ == "__main__":
    ffibuilder.compile(verbose=True)
