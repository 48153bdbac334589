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

Importing it requires cffi; everything else in the package stays
importable without.
"""

from __future__ import annotations

import os

from cffi import FFI

_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "uparc_kernels.c"), "r",
          encoding="utf-8") as _handle:
    _SOURCE = _handle.read()

ffibuilder = FFI()

ffibuilder.cdef("""
void uparc_init(void);
uint32_t uparc_crc32c(const uint8_t *data, size_t len, uint32_t crc);
int64_t uparc_bitpack(const uint64_t *values, const uint8_t *widths,
                      size_t count, uint8_t *out);
int64_t uparc_huffman_pack(const uint8_t *data, size_t len,
                           const uint64_t *codes, const uint8_t *lengths,
                           uint8_t *out);
int64_t uparc_xmatch_tokens(const uint8_t *data, size_t word_count,
                            int capacity, uint64_t *values,
                            uint8_t *widths);
int64_t uparc_lz77_tokens(const uint8_t *data, size_t len,
                          int window_bits, int length_bits,
                          int min_match, int max_chain,
                          uint64_t *values, uint8_t *widths,
                          int32_t *head, int32_t *prev);
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
void uparc_buffer_free(uint8_t *ptr);
""")

ffibuilder.set_source(
    "repro.accel._native._uparc_native",
    _SOURCE,
    extra_compile_args=["-O2"],
)

if __name__ == "__main__":
    ffibuilder.compile(verbose=True)
