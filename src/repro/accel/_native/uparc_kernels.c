/* Native (C) implementations of the sequential datapath kernels.
 *
 * Compiled behind the cffi out-of-line API module
 * ``repro.accel._native._uparc_native`` and wrapped by
 * ``repro.accel.native_backend``.  Every function here mirrors the
 * pure-Python reference in ``repro/accel/pure.py`` bit for bit:
 * same token layouts, same move-to-front update order, same error
 * detection points (decoders return a status code; the Python
 * wrapper raises the reference error message).  The kernels ported
 * here are the ones whose C form measurably beats the tuned pure form
 * on a real workload; every other kernel stays pure.
 *
 * Call ``uparc_init()`` once before any other function (the wrapper
 * does this at import): it builds the CRC slicing tables and the
 * X-MatchPRO mask-code lookup tables.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The frame planner's scalar inputs (repro.accel.plan.FrameMixture); */
/* declared identically in the cffi cdef.                             */
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
    int zero_geometric;   /* 0: run mean 1, the length draws nothing */
    int motif_geometric;
    int copy_geometric;
} uparc_mixture;

/* ------------------------------------------------------------------ */
/* Shared status codes (decoder errors; the wrapper maps them to the  */
/* reference CorruptStreamError messages).                            */

#define UPARC_OK             0
#define UPARC_ERR_EXHAUSTED  1   /* "bit stream exhausted"             */
#define UPARC_ERR_EMPTY_DICT 2   /* "match against empty dictionary"   */
#define UPARC_ERR_DICT_RANGE 3   /* "dictionary location N out of range" */
#define UPARC_ERR_MATCH_TYPE 4   /* "invalid match-type code N"        */
#define UPARC_ERR_ZERO_RUN   5   /* "zero-length zero run"             */
#define UPARC_ERR_BACKREF    6   /* "LZ77 back-reference beyond start" */
#define UPARC_ERR_CODEWORD   7   /* "invalid Huffman codeword"         */
#define UPARC_ERR_CODE_TABLE 8   /* "invalid Huffman code table"       */
#define UPARC_ERR_EMPTY_TABLE 9  /* "empty Huffman table ..."          */
#define UPARC_ERR_LITERAL    10  /* "truncated literal record"         */
#define UPARC_ERR_EXTENSION  11  /* "truncated run extension"          */
#define UPARC_ERR_RUN_WORD   12  /* "truncated run word"               */
#define UPARC_ERR_NOMEM      13  /* malloc failure                     */

/* ------------------------------------------------------------------ */
/* CRC-32C (Castagnoli), slicing-by-8 — same tables as the pure form. */

static uint32_t crc_tables[8][256];

static void build_crc_tables(void)
{
    for (int byte = 0; byte < 256; byte++) {
        uint32_t crc = (uint32_t)byte;
        for (int k = 0; k < 8; k++)
            crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
        crc_tables[0][byte] = crc;
    }
    for (int d = 1; d < 8; d++)
        for (int byte = 0; byte < 256; byte++)
            crc_tables[d][byte] = (crc_tables[d - 1][byte] >> 8)
                ^ crc_tables[0][crc_tables[d - 1][byte] & 0xFF];
}

uint32_t uparc_crc32c(const uint8_t *data, size_t len, uint32_t crc)
{
    crc ^= 0xFFFFFFFFu;
    size_t i = 0;
    size_t end8 = len - (len & 7);
    while (i < end8) {
        uint32_t low = crc ^ ((uint32_t)data[i]
                              | ((uint32_t)data[i + 1] << 8)
                              | ((uint32_t)data[i + 2] << 16)
                              | ((uint32_t)data[i + 3] << 24));
        uint32_t high = (uint32_t)data[i + 4]
            | ((uint32_t)data[i + 5] << 8)
            | ((uint32_t)data[i + 6] << 16)
            | ((uint32_t)data[i + 7] << 24);
        crc = crc_tables[7][low & 0xFF] ^ crc_tables[6][(low >> 8) & 0xFF]
            ^ crc_tables[5][(low >> 16) & 0xFF] ^ crc_tables[4][low >> 24]
            ^ crc_tables[3][high & 0xFF] ^ crc_tables[2][(high >> 8) & 0xFF]
            ^ crc_tables[1][(high >> 16) & 0xFF] ^ crc_tables[0][high >> 24];
        i += 8;
    }
    while (i < len) {
        crc = (crc >> 8) ^ crc_tables[0][(crc ^ data[i]) & 0xFF];
        i++;
    }
    return crc ^ 0xFFFFFFFFu;
}

/* ------------------------------------------------------------------ */
/* MSB-first bit packing.  Widths are at most 64 (the TokenStream     */
/* contract), so a 128-bit accumulator never overflows (7 carried     */
/* bits + 64 new ones).  Zero-padded final byte, exactly like the     */
/* reference BitWriter.                                               */

int64_t uparc_bitpack(const uint64_t *values, const uint8_t *widths,
                      size_t count, uint8_t *out)
{
    unsigned __int128 acc = 0;
    int bits = 0;
    uint8_t *p = out;
    for (size_t i = 0; i < count; i++) {
        int width = widths[i];
        if (width > 64)
            return -1;  /* caller falls back to the arbitrary-width pure form */
        acc = (acc << width) | values[i];
        bits += width;
        while (bits >= 8) {
            bits -= 8;
            *p++ = (uint8_t)(acc >> bits);
        }
        acc &= ((unsigned __int128)1 << bits) - 1;
    }
    if (bits)
        *p++ = (uint8_t)(acc << (8 - bits));
    return (int64_t)(p - out);
}

/* Per-byte table encode + pack fused, as in the pure huffman_pack.   */
int64_t uparc_huffman_pack(const uint8_t *data, size_t len,
                           const uint64_t *codes, const uint8_t *lengths,
                           uint8_t *out)
{
    unsigned __int128 acc = 0;
    int bits = 0;
    uint8_t *p = out;
    for (size_t i = 0; i < len; i++) {
        int byte = data[i];
        int width = lengths[byte];
        acc = (acc << width) | codes[byte];
        bits += width;
        while (bits >= 8) {
            bits -= 8;
            *p++ = (uint8_t)(acc >> bits);
        }
        acc &= ((unsigned __int128)1 << bits) - 1;
    }
    if (bits)
        *p++ = (uint8_t)(acc << (8 - bits));
    return (int64_t)(p - out);
}

/* ------------------------------------------------------------------ */
/* X-MatchPRO: shared mask-code tables.                               */
/* Mask bit i set => byte i matched, byte 0 = most-significant byte.  */
/* This is the same static prefix code as pure.XMATCH_MASK_CODES; the */
/* cross-backend equivalence tests pin the two copies together.       */

static const struct { uint8_t mask, code, len; } XM_MASK_CODES[11] = {
    {0xF, 0x00, 1},
    {0xE, 0x08, 4}, {0xD, 0x09, 4}, {0xB, 0x0A, 4}, {0x7, 0x0B, 4},
    {0xC, 0x18, 5}, {0xA, 0x19, 5}, {0x9, 0x1A, 5},
    {0x6, 0x1B, 5}, {0x5, 0x1C, 5}, {0x3, 0x1D, 5},
};

static int8_t xm_score[16];       /* matched*8 - code_len, -1 = no code */
static uint8_t xm_code[16];
static uint8_t xm_clen[16];
static int8_t xm_peek_mask[32];   /* 5-bit window -> mask, -1 unassigned */
static uint8_t xm_peek_len[32];

static void build_xmatch_tables(void)
{
    for (int m = 0; m < 16; m++)
        xm_score[m] = -1;
    for (int m = 0; m < 32; m++)
        xm_peek_mask[m] = -1;
    for (int k = 0; k < 11; k++) {
        int mask = XM_MASK_CODES[k].mask;
        int code = XM_MASK_CODES[k].code;
        int len = XM_MASK_CODES[k].len;
        int matched = __builtin_popcount(mask);
        if (matched >= 2) {
            xm_score[mask] = (int8_t)(matched * 8 - len);
            xm_code[mask] = (uint8_t)code;
            xm_clen[mask] = (uint8_t)len;
        }
        for (int pad = 0; pad < (1 << (5 - len)); pad++) {
            xm_peek_mask[(code << (5 - len)) | pad] = (int8_t)mask;
            xm_peek_len[(code << (5 - len)) | pad] = (uint8_t)len;
        }
    }
}

static inline int xm_index_bits(int size)
{
    int width = 1;
    while ((1 << width) < size)
        width++;
    return width;
}

static inline uint32_t load_be32(const uint8_t *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
        | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

/* The X-MatchPRO coding loop: zero-run tokens, equal-run collapse,
 * full/partial CAM matches with move-to-front update, misses.  Token
 * buffers must hold word_count + 8 entries.  Returns the token count.
 */
int64_t uparc_xmatch_tokens(const uint8_t *data, size_t word_count,
                            int capacity, uint64_t *values,
                            uint8_t *widths)
{
    uint32_t dict[64];
    int size = 0;
    int ibits = 1;
    int full0 = 3;              /* width of a full match at location 0 */
    int64_t previous = -1;      /* last non-zero word processed        */
    int64_t n = 0;
    size_t index = 0;
    while (index < word_count) {
        uint32_t word = load_be32(data + 4 * index);
        if (word == 0) {
            size_t run = 1;
            while (index + run < word_count
                   && load_be32(data + 4 * (index + run)) == 0)
                run++;
            index += run;
            uint64_t token = 2;
            int width = 2;
            while (run >= 255) {
                token = (token << 8) | 255;
                width += 8;
                if (width >= 56) {
                    values[n] = token;
                    widths[n] = (uint8_t)width;
                    n++;
                    token = 0;
                    width = 0;
                }
                run -= 255;
            }
            values[n] = (token << 8) | run;
            widths[n] = (uint8_t)(width + 8);
            n++;
            continue;
        }
        if ((int64_t)word == previous) {
            /* Equal run: each repeat is the all-zero-bit full-match-
             * at-location-0 token; emit the zero bits in bulk.       */
            size_t run = 1;
            while (index + run < word_count
                   && load_be32(data + 4 * (index + run)) == word)
                run++;
            index += run;
            int64_t total = (int64_t)run * full0;
            while (total >= 48) {
                values[n] = 0;
                widths[n] = 48;
                n++;
                total -= 48;
            }
            if (total) {
                values[n] = 0;
                widths[n] = (uint8_t)total;
                n++;
            }
            continue;
        }
        previous = (int64_t)word;
        index++;
        /* Full match: entries are distinct, first hit is the hit.    */
        int location = -1;
        for (int l = 0; l < size; l++) {
            if (dict[l] == word) {
                location = l;
                break;
            }
        }
        if (location >= 0) {
            values[n] = (uint64_t)location << 1;
            widths[n] = (uint8_t)(2 + ibits);
            n++;
            if (location) {
                memmove(&dict[1], &dict[0],
                        (size_t)location * sizeof(uint32_t));
                dict[0] = word;
            }
            continue;
        }
        /* Partial match: best score, lowest location on ties (the
         * scan ascends and the update is strictly greater).          */
        int best_location = -1;
        int best_score = -1;
        int best_mask = 0;
        for (int l = 0; l < size; l++) {
            uint32_t x = dict[l] ^ word;
            int mask = (!(x & 0xFF000000u))
                | ((!(x & 0x00FF0000u)) << 1)
                | ((!(x & 0x0000FF00u)) << 2)
                | ((!(x & 0x000000FFu)) << 3);
            int points = xm_score[mask];
            if (points > best_score) {
                best_score = points;
                best_location = l;
                best_mask = mask;
            }
        }
        if (best_score >= 0) {
            int mask = best_mask;
            int clen = xm_clen[mask];
            uint64_t token = ((uint64_t)best_location << clen)
                | xm_code[mask];
            int width = 1 + ibits + clen;
            if (!(mask & 1)) {
                token = (token << 8) | (word >> 24);
                width += 8;
            }
            if (!(mask & 2)) {
                token = (token << 8) | ((word >> 16) & 0xFF);
                width += 8;
            }
            if (!(mask & 4)) {
                token = (token << 8) | ((word >> 8) & 0xFF);
                width += 8;
            }
            if (!(mask & 8)) {
                token = (token << 8) | (word & 0xFF);
                width += 8;
            }
            values[n] = token;
            widths[n] = (uint8_t)width;
            n++;
            memmove(&dict[1], &dict[0],
                    (size_t)best_location * sizeof(uint32_t));
            dict[0] = word;
            continue;
        }
        /* Miss: raw 34-bit token, insert at the dictionary front.    */
        values[n] = (3ULL << 32) | word;
        widths[n] = 34;
        n++;
        if (size < capacity) {
            memmove(&dict[1], &dict[0], (size_t)size * sizeof(uint32_t));
            dict[0] = word;
            size++;
            if (size > 1) {
                ibits = xm_index_bits(size);
                full0 = 2 + ibits;
            }
        } else {
            memmove(&dict[1], &dict[0],
                    (size_t)(size - 1) * sizeof(uint32_t));
            dict[0] = word;
        }
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* LZ77 (LZSS) hash-chain token scan.                                 */
/*                                                                    */
/* head/prev replace the reference's per-prefix deque: walking        */
/* prev[] most-recent-first over *verified* prefix matches and        */
/* counting only those toward max_chain visits exactly the deque's    */
/* candidate set in the deque's order (all in-window occurrences are  */
/* more recent than any out-of-window one, so the window cut-off      */
/* never reorders).  head must hold 1 << 15 entries and prev must     */
/* hold len entries; both are initialised here.                       */

#define LZ_HASH_BITS 15

static inline uint64_t lz_key(const uint8_t *p, int min_match)
{
    uint64_t key = 0;
    for (int j = 0; j < min_match; j++)
        key = (key << 8) | p[j];
    return key;
}

static inline uint32_t lz_hash(uint64_t key)
{
    return (uint32_t)((key * 0x9E3779B97F4A7C15ULL)
                      >> (64 - LZ_HASH_BITS));
}

int64_t uparc_lz77_tokens(const uint8_t *data, size_t len,
                          int window_bits, int length_bits,
                          int min_match, int max_chain,
                          uint64_t *values, uint8_t *widths,
                          int32_t *head, int32_t *prev)
{
    memset(head, 0xFF, sizeof(int32_t) << LZ_HASH_BITS);  /* all -1 */
    int64_t window = (int64_t)1 << window_bits;
    size_t max_match = (size_t)min_match
        + ((size_t)1 << length_bits) - 1;
    uint64_t match_flag = 1ULL << (window_bits + length_bits);
    int match_width = 1 + window_bits + length_bits;
    int64_t n = 0;
    size_t position = 0;
    while (position < len) {
        size_t best_length = 0;
        size_t best_offset = 0;
        if (position + (size_t)min_match <= len) {
            uint64_t key = lz_key(data + position, min_match);
            int32_t candidate = head[lz_hash(key)];
            int64_t window_start = (int64_t)position - window;
            int seen = 0;
            size_t limit = len - position;
            if (limit > max_match)
                limit = max_match;
            while (candidate >= 0 && seen < max_chain) {
                if ((int64_t)candidate < window_start)
                    break;      /* chains only age: all older too */
                if (lz_key(data + candidate, min_match) == key) {
                    seen++;
                    const uint8_t *a = data + candidate;
                    const uint8_t *b = data + position;
                    size_t run = 0;
                    while (run < limit && a[run] == b[run])
                        run++;
                    if (run > best_length) {
                        best_length = run;
                        best_offset = position - (size_t)candidate;
                    }
                    if (run == limit)
                        break;  /* the reference's early-limit break */
                }
                candidate = prev[candidate];
            }
        }
        if (best_length >= (size_t)min_match) {
            values[n] = match_flag
                | ((uint64_t)(best_offset - 1) << length_bits)
                | (uint64_t)(best_length - (size_t)min_match);
            widths[n] = (uint8_t)match_width;
            n++;
            size_t end = position + best_length;
            while (position < end) {
                if (position + (size_t)min_match <= len) {
                    uint32_t h = lz_hash(lz_key(data + position,
                                                min_match));
                    prev[position] = head[h];
                    head[h] = (int32_t)position;
                }
                position++;
            }
        } else {
            values[n] = data[position];
            widths[n] = 9;
            n++;
            if (position + (size_t)min_match <= len) {
                uint32_t h = lz_hash(lz_key(data + position, min_match));
                prev[position] = head[h];
                head[h] = (int32_t)position;
            }
            position++;
        }
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* Frame planning: the generator's run-mixture planner, drawing from  */
/* CPython's MT19937 exactly as random.Random does.  key[0..623] is   */
/* the generator's key and key[624] its index, as getstate() lays     */
/* them out; the wrapper writes the advanced state back with          */
/* setstate().  mt_next, mt_random and mt_below are CPython 3.11's    */
/* genrand_uint32, random() and choice()'s _randbelow (mt_next reads  */
/* a pre-tempered copy of the key: the same values, in the same       */
/* order).  Every draw and every float comparison is the pure         */
/* planner's, in its order; the build disables FP contraction so no   */
/* comparison sees a fused multiply-add.                              */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t *key;
    uint32_t index;       /* a local copy, kept in a register */
    uint32_t out[MT_N];   /* the current key's tempered outputs */
} mt_state;

/* genrand_uint32's tempering, applied to the whole key at once (a    */
/* loop the compiler vectorises); out[i] is what the i-th draw from   */
/* this key returns.                                                  */
static void mt_temper(mt_state *mt)
{
    for (int i = 0; i < MT_N; i++) {
        uint32_t y = mt->key[i];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680u;
        y ^= (y << 15) & 0xefc60000u;
        y ^= y >> 18;
        mt->out[i] = y;
    }
}

/* genrand_uint32's regeneration of all N key words; -(y & 1) & A is  */
/* its mag01[y & 1] without the table lookup.                         */
static void mt_twist(uint32_t *key)
{
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (key[kk] & 0x80000000u) | (key[kk + 1] & 0x7fffffffu);
        key[kk] = key[kk + MT_M] ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (key[kk] & 0x80000000u) | (key[kk + 1] & 0x7fffffffu);
        key[kk] = key[kk + (MT_M - MT_N)] ^ (y >> 1)
            ^ (-(y & 1u) & 0x9908b0dfu);
    }
    y = (key[MT_N - 1] & 0x80000000u) | (key[0] & 0x7fffffffu);
    key[MT_N - 1] = key[MT_M - 1] ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
}

static void mt_refill(mt_state *mt)
{
    mt_twist(mt->key);
    mt_temper(mt);
    mt->index = 0;
}

static inline uint32_t mt_next(mt_state *mt)
{
    if (mt->index >= MT_N)
        mt_refill(mt);
    return mt->out[mt->index++];
}

/* random() from two outputs.  CPython computes a * 67108864.0 + b;   */
/* a * 2^26 + b < 2^53 is exact both ways, so one int64 conversion    */
/* gives the same double.                                             */
static inline double mt_double(uint32_t first, uint32_t second)
{
    int64_t bits = ((int64_t)(first >> 5) << 26) | (second >> 6);
    return (double)bits * (1.0 / 9007199254740992.0);
}

static inline double mt_random(mt_state *mt)
{
    uint32_t first = mt_next(mt);
    return mt_double(first, mt_next(mt));
}

/* _randbelow(n) for 1 <= n < 2^32: getrandbits(n.bit_length()),      */
/* redrawn while it is >= n.                                          */
static uint32_t mt_below(mt_state *mt, uint32_t n)
{
    int k = 0;
    for (uint32_t v = n; v; v >>= 1)
        k++;
    uint32_t r = mt_next(mt) >> (32 - k);
    while (r >= n)
        r = mt_next(mt) >> (32 - k);
    return r;
}

/* A geometric run length: 1, plus one per draw above success.  With  */
/* geometric == 0 (run mean 1) the length is 1 and nothing is drawn.  */
static inline uint64_t mt_run(mt_state *mt, int geometric, double success)
{
    uint64_t length = 1;
    if (geometric)
        while (mt_random(mt) > success)
            length++;
    return length;
}

/* bisect_right(cum, x, 0, n) over an ascending cum: x < cum[i] is    */
/* false up to one index and true after it, so the search returns     */
/* the number of cum[i] with !(x < cum[i]) (n for a NaN x).  This     */
/* counts them without bisect's chain of dependent loads.             */
#if defined(__GNUC__)
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2l __attribute__((vector_size(16)));
#endif

static inline size_t count_not_below(const double *cum, size_t n, double x)
{
    size_t i = 0, below = 0;
#if defined(__GNUC__)
    v2d xv = {x, x};
    v2l lanes = {0, 0};
    for (; i + 2 <= n; i += 2) {
        v2d pair;
        memcpy(&pair, cum + i, sizeof pair);
        lanes += (v2l)(xv < pair);    /* -1 per lane where x < cum */
    }
    below = (size_t)-(lanes[0] + lanes[1]);
#endif
    for (; i < n; i++)
        below += x < cum[i];
    return n - below;
}

/* One texture byte: 0 when random() < 0.45, else                     */
/* byte_pool[bisect_right(cum, random() * total, 0, hi)].  With four  */
/* tempered outputs at hand, both draws are read up front and the     */
/* 0.45 test selects without a branch; the index then advances by the */
/* two or four outputs the reference consumes.                        */
static inline uint32_t texture_byte(mt_state *mt, const uint8_t *byte_pool,
                                    const double *cum, size_t hi,
                                    double total)
{
    if (mt->index + 4 <= MT_N) {
        const uint32_t *out = mt->out + mt->index;
        uint32_t drawn = !(mt_double(out[0], out[1]) < 0.45);
        double x = mt_double(out[2], out[3]) * total;
        mt->index += 2 + 2 * drawn;
        return byte_pool[count_not_below(cum, hi, x)] & -drawn;
    }
    if (mt_random(mt) < 0.45)
        return 0;
    return byte_pool[count_not_below(cum, hi, mt_random(mt) * total)];
}

/* Plans frame_count frames into kinds/values/lengths (capacity cap,  */
/* which frame_count * frame_words always covers: every op holds at   */
/* least one word).  motifs must be non-empty and cum_weights must    */
/* hold hi ascending entries, hi = len(byte_pool) - 1.  Returns the   */
/* op count, or -1 on overflow (the wrapper then discards the state   */
/* and runs pure).                                                    */

int64_t uparc_plan_frames(uint32_t *key, const uparc_mixture *mix,
                          size_t frame_count, uint32_t frame_words,
                          int have_previous, const uint32_t *motifs,
                          uint32_t motif_count, const uint8_t *byte_pool,
                          const double *cum_weights, size_t hi,
                          uint8_t *kinds, uint32_t *values,
                          uint32_t *lengths, size_t cap)
{
    mt_state mt;
    mt.key = key;
    mt.index = key[MT_N];
    mt_temper(&mt);
    size_t n = 0;
    for (size_t frame = 0; frame < frame_count; frame++) {
        if (mt_random(&mt) >= mix->utilization) {
            /* Blank (unconfigured) frame. */
            if (n >= cap)
                return -1;
            kinds[n] = 0;
            values[n] = 0;
            lengths[n] = frame_words;
            n++;
            have_previous = 1;
            continue;
        }
        uint32_t position = 0;
        while (position < frame_words) {
            double draw = mt_random(&mt);
            uint8_t kind = 0;
            uint32_t value = 0;
            uint64_t length = 1;
            if (draw < mix->zero_threshold) {
                length = mt_run(&mt, mix->zero_geometric,
                                mix->zero_success);
            } else if (draw < mix->motif_threshold) {
                value = motifs[mt_below(&mt, motif_count)];
                length = mt_run(&mt, mix->motif_geometric,
                                mix->motif_success);
            } else if (draw < mix->copy_threshold && have_previous) {
                kind = 1;
                length = mt_run(&mt, mix->copy_geometric,
                                mix->copy_success);
            } else if (draw < mix->sparse_threshold || !have_previous) {
                /* Texture word: skewed-byte configuration content. */
                for (int byte = 0; byte < 4; byte++)
                    value = (value << 8)
                        | texture_byte(&mt, byte_pool, cum_weights, hi,
                                       mix->cum_total);
            } else {
                value = mt_next(&mt);  /* dense LUT word */
            }
            uint32_t remaining = frame_words - position;
            if (length > remaining)
                length = remaining;
            if (n >= cap)
                return -1;
            kinds[n] = kind;
            values[n] = value;
            lengths[n] = (uint32_t)length;
            n++;
            position += (uint32_t)length;
        }
        have_previous = 1;
    }
    key[MT_N] = mt.index;
    return (int64_t)n;
}

/* ------------------------------------------------------------------ */
/* Frame synthesis: FILL ops repeat a value, COPY ops (kind 1) copy   */
/* words from exactly frame_words behind the write position.  Like    */
/* the reference's list slice, a COPY takes at most frame_words words. */
/* Writes big-endian words into out (capacity cap_words) and returns  */
/* the word count, or -1 when a COPY would read before the start of   */
/* the output or the ops overflow out (the wrapper then runs pure).   */

int64_t uparc_synthesize_payload(const uint8_t *kinds,
                                 const uint32_t *values,
                                 const uint32_t *lengths, size_t op_count,
                                 size_t frame_words, uint8_t *out,
                                 size_t cap_words)
{
    size_t pos = 0;
    for (size_t i = 0; i < op_count; i++) {
        size_t length = lengths[i];
        if (kinds[i] == 1) {
            if (pos < frame_words)
                return -1;
            if (length > frame_words)
                length = frame_words;
        }
        if (length > cap_words - pos)
            return -1;
        uint8_t *dst = out + 4 * pos;
        if (kinds[i] == 1) {
            memcpy(dst, dst - 4 * frame_words, 4 * length);
        } else {
            uint32_t value = values[i];
            for (size_t k = 0; k < length; k++) {
                dst[4 * k] = (uint8_t)(value >> 24);
                dst[4 * k + 1] = (uint8_t)(value >> 16);
                dst[4 * k + 2] = (uint8_t)(value >> 8);
                dst[4 * k + 3] = (uint8_t)value;
            }
        }
        pos += length;
    }
    return (int64_t)pos;
}

/* ------------------------------------------------------------------ */
/* Word-RLE records: equal-word run scan plus record emission.  A run */
/* of >= 2 is one record (control 0x80 + run - 2, capped at 0xFF with */
/* 0xFF extension bytes for longer runs, then the word); lone words   */
/* gather into literal records of up to 128.  out must hold           */
/* 5 * word_count + 8 bytes.  Returns the record byte count.          */

int64_t uparc_rle_records(const uint8_t *data, size_t word_count,
                          uint8_t *out)
{
    uint8_t *p = out;
    size_t literal_start = 0;
    size_t literals = 0;
    size_t index = 0;
    while (index < word_count) {
        const uint8_t *word = data + 4 * index;
        size_t run = 1;
        while (index + run < word_count
               && memcmp(data + 4 * (index + run), word, 4) == 0)
            run++;
        if (run == 1) {
            if (!literals)
                literal_start = index;
            literals++;
            index++;
            if (literals == 128) {
                *p++ = 127;
                memcpy(p, data + 4 * literal_start, 512);
                p += 512;
                literals = 0;
            }
            continue;
        }
        if (literals) {
            *p++ = (uint8_t)(literals - 1);
            memcpy(p, data + 4 * literal_start, 4 * literals);
            p += 4 * literals;
            literals = 0;
        }
        index += run;
        if (run < 129) {
            *p++ = (uint8_t)(0x80 + run - 2);
        } else {
            *p++ = 0xFF;
            size_t remaining = run - 129;
            while (remaining >= 0xFF) {
                *p++ = 0xFF;
                remaining -= 0xFF;
            }
            *p++ = (uint8_t)remaining;
        }
        memcpy(p, word, 4);
        p += 4;
    }
    if (literals) {
        *p++ = (uint8_t)(literals - 1);
        memcpy(p, data + 4 * literal_start, 4 * literals);
        p += 4 * literals;
    }
    return (int64_t)(p - out);
}

/* ------------------------------------------------------------------ */
/* Growable output buffer for the decoders (a corrupt final run may   */
/* overshoot the declared length; the reference returns the overshoot */
/* for the codec's length policy to judge, so the buffer must grow).  */

typedef struct {
    uint8_t *p;
    int64_t len;
    int64_t cap;
} upbuf;

static int upbuf_reserve(upbuf *b, int64_t extra)
{
    if (b->len + extra <= b->cap)
        return 0;
    int64_t cap = b->cap ? b->cap : 64;
    while (cap < b->len + extra)
        cap <<= 1;
    uint8_t *p = (uint8_t *)realloc(b->p, (size_t)cap);
    if (!p)
        return -1;
    b->p = p;
    b->cap = cap;
    return 0;
}

void uparc_buffer_free(uint8_t *ptr)
{
    free(ptr);
}

/* Bit reader: low `bits` bits of `acc` are valid.  Exhaustion is     */
/* "field wider than every bit left in acc plus body", which is       */
/* exactly when the reference's cursor raises (its refill always      */
/* tops the accumulator past any fixed field when body remains).      */

typedef struct {
    const uint8_t *body;
    size_t len;
    size_t pos;
    uint64_t acc;
    int bits;
} bitreader;

static inline void br_fill(bitreader *br, int need)
{
    while (br->bits < need && br->pos < br->len) {
        br->acc = (br->acc << 8) | br->body[br->pos++];
        br->bits += 8;
    }
}

/* Returns nonzero when the stream is exhausted for this field.       */
static inline int br_read(bitreader *br, int width, uint64_t *out)
{
    br_fill(br, width);
    if (br->bits < width)
        return 1;
    br->bits -= width;
    *out = (br->acc >> br->bits)
        & (width == 64 ? ~0ULL : (1ULL << width) - 1);
    return 0;
}

/* ------------------------------------------------------------------ */
/* X-MatchPRO decode: inverse of the token scan above.                */

int uparc_xmatch_decode(const uint8_t *body, size_t body_len,
                        int64_t output_length, int capacity,
                        uint8_t **out_ptr, int64_t *out_len,
                        int64_t *detail)
{
    upbuf out = {0, 0, 0};
    uint32_t dict[65];
    int size = 0;
    bitreader br = {body, body_len, 0, 0, 0};
    int status = UPARC_OK;
    if (upbuf_reserve(&out, output_length + 8) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    while (out.len < output_length) {
        uint64_t bit;
        if (br_read(&br, 1, &bit)) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        }
        if (!bit) {             /* '0': dictionary match */
            if (!size) {
                status = UPARC_ERR_EMPTY_DICT;
                break;
            }
            uint64_t location;
            if (br_read(&br, xm_index_bits(size), &location)) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            if ((int)location >= size) {
                *detail = (int64_t)location;
                status = UPARC_ERR_DICT_RANGE;
                break;
            }
            br_fill(&br, 5);
            int avail = br.bits;
            uint64_t peek;
            if (avail >= 5)
                peek = (br.acc >> (avail - 5)) & 31;
            else
                peek = (br.acc & ((1ULL << avail) - 1)) << (5 - avail);
            int mask = xm_peek_mask[peek];
            if (mask < 0) {
                /* Both unassigned patterns start '11'; the decoder
                 * only reaches the 3-bit selector with 5 bits left. */
                if (avail < 5) {
                    status = UPARC_ERR_EXHAUSTED;
                    break;
                }
                *detail = (int64_t)(peek & 7);
                status = UPARC_ERR_MATCH_TYPE;
                break;
            }
            int width = xm_peek_len[peek];
            if (width > br.bits) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            br.bits -= width;
            uint32_t word = dict[location];
            if (mask != 0xF) {
                int failed = 0;
                for (int lane = 0; lane < 4; lane++) {
                    if (mask & (1 << lane))
                        continue;
                    uint64_t lit;
                    if (br_read(&br, 8, &lit)) {
                        failed = 1;
                        break;
                    }
                    int shift = 24 - 8 * lane;
                    word = (word & ~(0xFFu << shift))
                        | ((uint32_t)lit << shift);
                }
                if (failed) {
                    status = UPARC_ERR_EXHAUSTED;
                    break;
                }
            }
            if (upbuf_reserve(&out, 4) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            out.p[out.len++] = (uint8_t)(word >> 24);
            out.p[out.len++] = (uint8_t)(word >> 16);
            out.p[out.len++] = (uint8_t)(word >> 8);
            out.p[out.len++] = (uint8_t)word;
            memmove(&dict[1], &dict[0],
                    (size_t)location * sizeof(uint32_t));
            dict[0] = word;
        } else {
            if (br_read(&br, 1, &bit)) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            if (!bit) {         /* '10': zero run */
                int64_t run = 0;
                int failed = 0;
                for (;;) {
                    uint64_t chunk;
                    if (br_read(&br, 8, &chunk)) {
                        failed = 1;
                        break;
                    }
                    run += (int64_t)chunk;
                    if (chunk != 255)
                        break;
                }
                if (failed) {
                    status = UPARC_ERR_EXHAUSTED;
                    break;
                }
                if (!run) {
                    status = UPARC_ERR_ZERO_RUN;
                    break;
                }
                if (upbuf_reserve(&out, 4 * run) != 0) {
                    status = UPARC_ERR_NOMEM;
                    break;
                }
                memset(out.p + out.len, 0, (size_t)(4 * run));
                out.len += 4 * run;
            } else {            /* '11': miss */
                uint64_t word;
                if (br_read(&br, 32, &word)) {
                    status = UPARC_ERR_EXHAUSTED;
                    break;
                }
                if (upbuf_reserve(&out, 4) != 0) {
                    status = UPARC_ERR_NOMEM;
                    break;
                }
                out.p[out.len++] = (uint8_t)(word >> 24);
                out.p[out.len++] = (uint8_t)(word >> 16);
                out.p[out.len++] = (uint8_t)(word >> 8);
                out.p[out.len++] = (uint8_t)word;
                if (size < capacity) {
                    memmove(&dict[1], &dict[0],
                            (size_t)size * sizeof(uint32_t));
                    size++;
                } else {
                    memmove(&dict[1], &dict[0],
                            (size_t)(capacity - 1) * sizeof(uint32_t));
                }
                dict[0] = (uint32_t)word;
            }
        }
    }
    if (status != UPARC_OK) {
        free(out.p);
        *out_ptr = 0;
        return status;
    }
    *out_ptr = out.p;
    *out_len = out.len;
    return UPARC_OK;
}

/* ------------------------------------------------------------------ */
/* LZ77 decode.                                                       */

int uparc_lz77_decode(const uint8_t *body, size_t body_len,
                      int64_t output_length, int window_bits,
                      int length_bits, int min_match,
                      uint8_t **out_ptr, int64_t *out_len,
                      int64_t *detail)
{
    upbuf out = {0, 0, 0};
    bitreader br = {body, body_len, 0, 0, 0};
    int status = UPARC_OK;
    if (upbuf_reserve(&out, output_length + 8) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    while (out.len < output_length) {
        uint64_t bit;
        if (br_read(&br, 1, &bit)) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        }
        if (bit) {              /* match token */
            uint64_t offset_raw, length_raw;
            if (br_read(&br, window_bits, &offset_raw)
                || br_read(&br, length_bits, &length_raw)) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            int64_t offset = (int64_t)offset_raw + 1;
            int64_t run = (int64_t)length_raw + min_match;
            int64_t start = out.len - offset;
            if (start < 0) {
                *detail = offset;
                status = UPARC_ERR_BACKREF;
                break;
            }
            if (upbuf_reserve(&out, run) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            if (offset >= run) {
                memcpy(out.p + out.len, out.p + start, (size_t)run);
                out.len += run;
            } else {
                for (int64_t step = 0; step < run; step++) {
                    out.p[out.len] = out.p[start + step];
                    out.len++;  /* self-overlapping copy */
                }
            }
        } else {
            uint64_t literal;
            if (br_read(&br, 8, &literal)) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            if (upbuf_reserve(&out, 1) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            out.p[out.len++] = (uint8_t)literal;
        }
    }
    if (status != UPARC_OK) {
        free(out.p);
        *out_ptr = 0;
        return status;
    }
    *out_ptr = out.p;
    *out_len = out.len;
    return UPARC_OK;
}

/* ------------------------------------------------------------------ */
/* Canonical-Huffman decode.                                          */
/*                                                                    */
/* Codewords are reassigned canonically in (length, symbol) order, so */
/* at each length the codes form one consecutive range — the per-     */
/* length (first, count, symbols) tables below are exactly the        */
/* reference's (length, code) -> symbol map for every reachable code. */
/* Declared lengths above 32 are never reachable (the walk rejects    */
/* codes past 32 bits first), so table construction stops there.      */

#define HUF_MAX_CODE_LENGTH 32
#define HUF_PEEK_BITS 12

int uparc_huffman_decode(const uint8_t *body, size_t body_len,
                         int64_t output_length, const uint8_t *lengths,
                         uint8_t **out_ptr, int64_t *out_len)
{
    int max_length = 0;
    int present = 0;
    for (int symbol = 0; symbol < 256; symbol++) {
        if (lengths[symbol]) {
            present++;
            if (lengths[symbol] > max_length)
                max_length = lengths[symbol];
        }
    }
    if (!present) {
        *out_ptr = 0;
        return UPARC_ERR_EMPTY_TABLE;
    }
    int peek = max_length < HUF_PEEK_BITS ? max_length : HUF_PEEK_BITS;
    uint16_t ptable[1 << HUF_PEEK_BITS];
    memset(ptable, 0, sizeof(uint16_t) << peek);
    uint64_t first[HUF_MAX_CODE_LENGTH + 1] = {0};
    int count[HUF_MAX_CODE_LENGTH + 1] = {0};
    int base[HUF_MAX_CODE_LENGTH + 1] = {0};
    uint8_t syms[256];
    /* Walk symbols in (length, symbol) order, assigning canonical
     * codes; stop past 32 bits (unreachable, and the running code no
     * longer fits plain integers — the reference uses bigints).      */
    uint64_t code = 0;
    int previous_length = 0;
    int si = 0;
    for (int length = 1; length <= HUF_MAX_CODE_LENGTH && length <= 255;
         length++) {
        for (int symbol = 0; symbol < 256; symbol++) {
            if (lengths[symbol] != length)
                continue;
            code <<= (length - previous_length);
            previous_length = length;
            if (!count[length]) {
                first[length] = code;
                base[length] = si;
            }
            count[length]++;
            syms[si++] = (uint8_t)symbol;
            if (length <= peek) {
                if (code >> length) {
                    /* Over-subscribed short codes: corrupt table.    */
                    *out_ptr = 0;
                    return UPARC_ERR_CODE_TABLE;
                }
                uint32_t entry_base = (uint32_t)(code << (peek - length));
                uint16_t entry = (uint16_t)((length << 8) | symbol);
                for (uint32_t pad = 0;
                     pad < (1u << (peek - length)); pad++)
                    ptable[entry_base + pad] = entry;
            }
            code++;
        }
    }
    upbuf out = {0, 0, 0};
    bitreader br = {body, body_len, 0, 0, 0};
    int status = UPARC_OK;
    if (upbuf_reserve(&out, output_length) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    while (out.len < output_length) {
        br_fill(&br, peek);
        int avail = br.bits;
        uint32_t index;
        if (avail >= peek)
            index = (uint32_t)((br.acc >> (avail - peek))
                               & ((1u << peek) - 1));
        else
            index = (uint32_t)(((br.acc & ((1ULL << avail) - 1))
                                << (peek - avail)) & ((1u << peek) - 1));
        uint16_t entry = ptable[index];
        int elen = entry >> 8;
        if (entry && elen <= avail) {
            br.bits -= elen;
            out.p[out.len++] = (uint8_t)entry;
            continue;
        }
        /* Long code, or the stream ran dry mid-codeword: bit-by-bit
         * walk for exact error parity with the reference.            */
        uint64_t codeval = 0;
        int length = 0;
        for (;;) {
            uint64_t bit;
            if (br_read(&br, 1, &bit)) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            codeval = (codeval << 1) | bit;
            length++;
            if (length > HUF_MAX_CODE_LENGTH) {
                status = UPARC_ERR_CODEWORD;
                break;
            }
            if (count[length] && codeval >= first[length]
                && codeval < first[length] + (uint64_t)count[length]) {
                if (upbuf_reserve(&out, 1) != 0) {
                    status = UPARC_ERR_NOMEM;
                    break;
                }
                out.p[out.len++] =
                    syms[base[length] + (int)(codeval - first[length])];
                break;
            }
        }
        if (status != UPARC_OK)
            break;
    }
    if (status != UPARC_OK) {
        free(out.p);
        *out_ptr = 0;
        return status;
    }
    *out_ptr = out.p;
    *out_len = out.len;
    return UPARC_OK;
}

/* ------------------------------------------------------------------ */
/* Word-RLE decode.                                                   */

int uparc_rle_decode(const uint8_t *records, size_t record_len,
                     int64_t output_length, uint8_t **out_ptr,
                     int64_t *out_len)
{
    upbuf out = {0, 0, 0};
    size_t position = 0;
    int status = UPARC_OK;
    if (upbuf_reserve(&out, output_length + 8) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    while (position < record_len && out.len < output_length) {
        int control = records[position++];
        if (control < 0x80) {
            size_t need = ((size_t)control + 1) * 4;
            if (record_len - position < need) {
                status = UPARC_ERR_LITERAL;
                break;
            }
            if (upbuf_reserve(&out, (int64_t)need) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            memcpy(out.p + out.len, records + position, need);
            out.len += (int64_t)need;
            position += need;
        } else {
            int64_t run = (control - 0x80) + 2;
            if (run == 129) {
                for (;;) {
                    if (position >= record_len) {
                        status = UPARC_ERR_EXTENSION;
                        break;
                    }
                    int extension = records[position++];
                    run += extension;
                    if (extension != 0xFF)
                        break;
                }
                if (status != UPARC_OK)
                    break;
            }
            if (record_len - position < 4) {
                status = UPARC_ERR_RUN_WORD;
                break;
            }
            if (upbuf_reserve(&out, 4 * run) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            const uint8_t *word = records + position;
            position += 4;
            for (int64_t k = 0; k < run; k++) {
                memcpy(out.p + out.len, word, 4);
                out.len += 4;
            }
        }
    }
    if (status != UPARC_OK) {
        free(out.p);
        *out_ptr = 0;
        return status;
    }
    *out_ptr = out.p;
    *out_len = out.len;
    return UPARC_OK;
}

/* ------------------------------------------------------------------ */

void uparc_init(void)
{
    build_crc_tables();
    build_xmatch_tables();
}
