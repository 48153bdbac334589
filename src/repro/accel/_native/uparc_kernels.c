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
#define UPARC_ERR_LZ78_INDEX 14  /* "LZ78 index N out of range"        */
#define UPARC_ERR_AC_RANGE   15  /* "arithmetic decoder out of range"  */
#define UPARC_ERR_AC_EXHAUSTED 16 /* "arithmetic code stream exhausted" */
#define UPARC_ERR_LZMA_BACKREF 17 /* "back-reference before start"     */
                                  /* (7-zip and Zip byte-LZ streams)   */
#define UPARC_ERR_LZMA_OVERRUN 18 /* "LZMA-like stream overran length" */
#define UPARC_ERR_SYMBOL     19  /* encoder symbol outside its model:  */
                                 /* the wrapper lets pure raise        */
#define UPARC_ERR_CONTROL_BYTE 20 /* "missing control byte"            */
#define UPARC_ERR_MATCH_TOKEN  21 /* "truncated match token"           */
#define UPARC_ERR_LITERAL_TOKEN 22 /* "truncated literal token"        */

/* ------------------------------------------------------------------ */
/* CRC-32C (Castagnoli), the pure form's polynomial.  crc_tables[d]  */
/* is byte x followed by d zero bytes: tables 0-7 slice uparc_crc32c  */
/* by 8 bytes, tables 0-19 slice uparc_crc32c_words by four words.    */

static uint32_t crc_tables[20][256];

static void build_crc_tables(void)
{
    for (int byte = 0; byte < 256; byte++) {
        uint32_t crc = (uint32_t)byte;
        for (int k = 0; k < 8; k++)
            crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
        crc_tables[0][byte] = crc;
    }
    for (int d = 1; d < 20; d++)
        for (int byte = 0; byte < 256; byte++)
            crc_tables[d][byte] = (crc_tables[d - 1][byte] >> 8)
                ^ crc_tables[0][crc_tables[d - 1][byte] & 0xFF];
}

static inline uint32_t load_le32(const uint8_t *p)
{
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8)
        | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
}

uint32_t uparc_crc32c(const uint8_t *data, size_t len, uint32_t crc)
{
    crc ^= 0xFFFFFFFFu;
    size_t i = 0;
    size_t end8 = len - (len & 7);
    while (i < end8) {
        uint32_t low = crc ^ load_le32(data + i);
        uint32_t high = load_le32(data + i + 4);
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

/* CRC-32C over word_count big-endian words, each followed by the     */
/* byte `address`: uparc_crc32c over the interleaved                  */
/* [4 data bytes][address] blob, without building the blob.  Each     */
/* step folds four words (a 20-byte block, slicing by 20): the four   */
/* address bytes sit at block offsets 4, 9, 14 and 19, so their terms */
/* are one constant per call and a step costs 16 table lookups.  The  */
/* last 0-3 words fold one at a time (slicing by 5).                  */
uint32_t uparc_crc32c_words(const uint8_t *data, size_t word_count,
                            uint8_t address, uint32_t crc)
{
    const uint32_t block_term = crc_tables[15][address]
        ^ crc_tables[10][address] ^ crc_tables[5][address]
        ^ crc_tables[0][address];
    const uint32_t word_term = crc_tables[0][address];
    crc ^= 0xFFFFFFFFu;
    for (; word_count >= 4; word_count -= 4, data += 16) {
        uint32_t w0 = crc ^ load_le32(data);
        uint32_t w1 = load_le32(data + 4);
        uint32_t w2 = load_le32(data + 8);
        uint32_t w3 = load_le32(data + 12);
        crc = crc_tables[19][w0 & 0xFF] ^ crc_tables[18][(w0 >> 8) & 0xFF]
            ^ crc_tables[17][(w0 >> 16) & 0xFF] ^ crc_tables[16][w0 >> 24]
            ^ crc_tables[14][w1 & 0xFF] ^ crc_tables[13][(w1 >> 8) & 0xFF]
            ^ crc_tables[12][(w1 >> 16) & 0xFF] ^ crc_tables[11][w1 >> 24]
            ^ crc_tables[9][w2 & 0xFF] ^ crc_tables[8][(w2 >> 8) & 0xFF]
            ^ crc_tables[7][(w2 >> 16) & 0xFF] ^ crc_tables[6][w2 >> 24]
            ^ crc_tables[4][w3 & 0xFF] ^ crc_tables[3][(w3 >> 8) & 0xFF]
            ^ crc_tables[2][(w3 >> 16) & 0xFF] ^ crc_tables[1][w3 >> 24]
            ^ block_term;
    }
    for (; word_count > 0; word_count--, data += 4) {
        uint32_t low = crc ^ load_le32(data);
        crc = crc_tables[4][low & 0xFF] ^ crc_tables[3][(low >> 8) & 0xFF]
            ^ crc_tables[2][(low >> 16) & 0xFF] ^ crc_tables[1][low >> 24]
            ^ word_term;
    }
    return crc ^ 0xFFFFFFFFu;
}

/* ------------------------------------------------------------------ */
/* Big-endian 8-byte loads and stores, for the bit writer and reader. */

#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
static inline uint64_t load_be64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
    return __builtin_bswap64(v);
}

static inline void store_be64(uint8_t *p, uint64_t v)
{
    v = __builtin_bswap64(v);
    memcpy(p, &v, sizeof v);
}
#else
static inline uint64_t load_be64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int k = 0; k < 8; k++)
        v = (v << 8) | p[k];
    return v;
}

static inline void store_be64(uint8_t *p, uint64_t v)
{
    for (int k = 0; k < 8; k++)
        p[k] = (uint8_t)(v >> (56 - 8 * k));
}
#endif

/* ------------------------------------------------------------------ */
/* MSB-first bit writer for the packers (bitpack, huffman_pack and    */
/* lz78_pack).  The low `bits` (< 8) bits of `acc` are pending, so a  */
/* put of up to 56 bits fits the 64-bit accumulator.  Every put       */
/* stores all pending bits, left-aligned and zero-padded, as 8 big-   */
/* endian bytes at p and advances p past the whole bytes: the partial */
/* byte is rewritten by the next store, and after the last put it     */
/* already is the reference BitWriter's zero-padded final byte.  No   */
/* branch per byte; the output needs 8 bytes of slack past the packed */
/* length.                                                            */

typedef struct {
    uint8_t *p;
    uint64_t acc;
    unsigned bits;
} bitsink;

static inline void bs_put(bitsink *w, uint64_t value, unsigned width)
{
    w->acc = (w->acc << width) | value;
    w->bits += width;
    /* Two shifts: a plain << (64 - bits) is undefined at bits == 0.  */
    store_be64(w->p, (w->acc << (63 - w->bits)) << 1);
    w->p += w->bits >> 3;
    w->bits &= 7;
}

/* Any width up to 64: above 56 the field goes in as two puts.        */
static inline void bs_put_wide(bitsink *w, uint64_t value, unsigned width)
{
    if (width > 56) {
        bs_put(w, value >> 32, width - 32);
        value &= 0xFFFFFFFFu;
        width = 32;
    }
    bs_put(w, value, width);
}

/* Bytes written, counting the zero-padded final byte.                */
static inline int64_t bs_length(const bitsink *w, const uint8_t *out)
{
    return (int64_t)(w->p - out) + (w->bits != 0);
}

/* Widths are at most 64 (the TokenStream contract).                  */
int64_t uparc_bitpack(const uint64_t *values, const uint8_t *widths,
                      size_t count, uint8_t *out)
{
    bitsink w = {out, 0, 0};
    for (size_t i = 0; i < count; i++) {
        if (widths[i] > 64)
            return -1;  /* caller falls back to the arbitrary-width pure form */
        bs_put_wide(&w, values[i], widths[i]);
    }
    return bs_length(&w, out);
}

/* Per-byte table encode + pack fused, as in the pure huffman_pack.   */
/* Code lengths are at most 64; the split only runs past 56 bits.     */
int64_t uparc_huffman_pack(const uint8_t *data, size_t len,
                           const uint64_t *codes, const uint8_t *lengths,
                           uint8_t *out)
{
    bitsink w = {out, 0, 0};
    int longest = 0;
    for (int symbol = 0; symbol < 256; symbol++)
        if (lengths[symbol] > longest)
            longest = lengths[symbol];
    if (longest > 56) {
        for (size_t i = 0; i < len; i++)
            bs_put_wide(&w, codes[data[i]], lengths[data[i]]);
    } else {
        for (size_t i = 0; i < len; i++)
            bs_put(&w, codes[data[i]], lengths[data[i]]);
    }
    return bs_length(&w, out);
}

/* ------------------------------------------------------------------ */
/* Canonical Huffman code table from the bytes themselves: histogram, */
/* two-least-weights merge, canonical codes in (length, symbol) order.*/
/*                                                                    */
/* The reference merges through a heap keyed (weight, insertion       */
/* order), a total order: leaves take orders 0..n-1 in symbol order,  */
/* merged nodes n, n+1, ...  Merged weights come out non-decreasing,  */
/* so two queues sorted by that key (the leaves, and the merged nodes */
/* in creation order) pop exactly the heap's sequence; on equal       */
/* weights a leaf wins, as its order is lower.  Returns the longest   */
/* code length, or -1 past 64 bits, where the caller lets the bigint  */
/* pure form answer (no input under 2^32 bytes gets past 46 bits).    */

int uparc_huffman_code_table(const uint8_t *data, size_t len,
                             uint64_t *codes, uint8_t *lengths)
{
    uint64_t counts[4][256];
    memset(counts, 0, sizeof counts);
    size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        counts[0][data[i]]++;
        counts[1][data[i + 1]]++;
        counts[2][data[i + 2]]++;
        counts[3][data[i + 3]]++;
    }
    for (; i < len; i++)
        counts[0][data[i]]++;
    memset(codes, 0, 256 * sizeof(uint64_t));
    memset(lengths, 0, 256);

    uint64_t weight[511];
    int16_t parent[511];
    uint8_t leaf_symbol[256];
    int n = 0;
    for (int symbol = 0; symbol < 256; symbol++) {
        uint64_t count = counts[0][symbol] + counts[1][symbol]
            + counts[2][symbol] + counts[3][symbol];
        if (!count)
            continue;
        /* Insertion sort by (weight, symbol): symbols arrive in      */
        /* order, so equal weights keep symbol order.                 */
        int at = n++;
        while (at > 0 && weight[at - 1] > count) {
            weight[at] = weight[at - 1];
            leaf_symbol[at] = leaf_symbol[at - 1];
            at--;
        }
        weight[at] = count;
        leaf_symbol[at] = (uint8_t)symbol;
    }
    if (n == 0)
        return 0;
    if (n == 1) {
        lengths[leaf_symbol[0]] = 1;
        return 1;
    }
    int next_leaf = 0, next_merged = n, created = n;
    while (created < 2 * n - 1) {
        int pair[2];
        for (int k = 0; k < 2; k++) {
            if (next_leaf < n && (next_merged == created
                                  || weight[next_leaf] <= weight[next_merged]))
                pair[k] = next_leaf++;
            else
                pair[k] = next_merged++;
        }
        weight[created] = weight[pair[0]] + weight[pair[1]];
        parent[pair[0]] = parent[pair[1]] = (int16_t)created;
        created++;
    }
    /* A parent is created after its children, so one backward pass   */
    /* sets every depth from its parent's.                            */
    uint8_t depth[511];
    int root = created - 1;
    depth[root] = 0;
    int max_length = 0;
    for (int node = root - 1; node >= 0; node--) {
        depth[node] = (uint8_t)(depth[parent[node]] + 1);
        if (node < n && depth[node] > max_length)
            max_length = depth[node];
    }
    if (max_length > 64)
        return -1;
    for (int leaf = 0; leaf < n; leaf++)
        lengths[leaf_symbol[leaf]] = depth[leaf];
    uint64_t code = 0;
    int previous_length = 0;
    for (int length = 1; length <= max_length; length++) {
        for (int symbol = 0; symbol < 256; symbol++) {
            if (lengths[symbol] != length)
                continue;
            code <<= length - previous_length;
            codes[symbol] = code++;
            previous_length = length;
        }
    }
    return max_length;
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
static int xm_ranks_by_count;     /* the one-pass scan's premise holds   */

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
    /* The scan ranks entries by matched-byte count, not by score.    */
    /* That is the same order only if every mask with at least two   */
    /* matched bytes has a code, all masks of one count share a code  */
    /* length (so a count has one score), and scores rise with the    */
    /* count.  Otherwise uparc_xmatch_tokens declines (returns -1).   */
    int count_score[5] = {-1, -1, -1, -1, -1};
    int ranks = 1;
    for (int m = 0; m < 16; m++) {
        int matched = __builtin_popcount(m);
        if (matched < 2)
            continue;
        if (xm_score[m] < 0 || (count_score[matched] >= 0
                                && count_score[matched] != xm_score[m]))
            ranks = 0;
        count_score[matched] = xm_score[m];
    }
    for (int matched = 2; matched < 4; matched++)
        if (count_score[matched] >= count_score[matched + 1])
            ranks = 0;
    xm_ranks_by_count = ranks;
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

/* Mask bit i set => byte i of x is zero (byte 0 = MSB).              */
static inline int xm_zero_bytes(uint32_t x)
{
    return (!(x & 0xFF000000u)) | ((!(x & 0x00FF0000u)) << 1)
        | ((!(x & 0x0000FF00u)) << 2) | ((!(x & 0x000000FFu)) << 3);
}

/* The encoder's CAM.  Entries never move: slot k holds a word and    */
/* its location, i.e. its move-to-front rank in the reference's list. */
/* A slot past size keeps rank k, so every update is one rule: each   */
/* rank below r moves back one and the slot ranked r takes the word   */
/* at rank 0, where r is the matched location, or for a miss size (a  */
/* fresh slot) or, when full, size - 1 (the oldest entry, evicted).   */
/* Slots are scanned in groups of four, up to the capacity rounded up.*/
typedef struct {
    int32_t word[64];
    int32_t rank[64];
} xm_cam;

#if defined(__GNUC__)
typedef int32_t v4i __attribute__((vector_size(16)));
#endif

/* The CAM search in one pass: the max over the entries (rank < size) */
/* of matched_bytes << 10 | (63 - location) << 4 | zero-byte mask.    */
/* The winner has the most matching bytes and the lowest location     */
/* among those (locations are distinct, so the mask only rides        */
/* along).  Entries are distinct too: four bytes is the full match,   */
/* fewer than two a miss.  With xm_ranks_by_count this is the         */
/* reference's rule (a full match first, then the best score, lowest  */
/* location).                                                         */
static inline int xm_best(const xm_cam *cam, int slots, int size,
                          uint32_t word)
{
    int k = 0, best = 0;
#if defined(__GNUC__)
    const v4i w = {(int32_t)word, (int32_t)word, (int32_t)word,
                   (int32_t)word};
    const v4i limit = {size, size, size, size};
    const v4i zero = {0, 0, 0, 0};
    v4i keys = zero;
    for (; k + 4 <= slots; k += 4) {
        v4i entry, rank;
        memcpy(&entry, cam->word + k, sizeof entry);
        memcpy(&rank, cam->rank + k, sizeof rank);
        v4i x = entry ^ w;
        /* -1 per lane where that byte matches (byte 0 = MSB).        */
        v4i b0 = (x & (int32_t)0xFF000000) == zero;
        v4i b1 = (x & 0x00FF0000) == zero;
        v4i b2 = (x & 0x0000FF00) == zero;
        v4i b3 = (x & 0x000000FF) == zero;
        v4i mask = (b0 & 1) | (b1 & 2) | (b2 & 4) | (b3 & 8);
        v4i matched = -(b0 + b1 + b2 + b3);
        v4i key = ((matched << 10) | ((63 - rank) << 4) | mask)
            & (rank < limit);
        v4i larger = key > keys;
        keys = (key & larger) | (keys & ~larger);
    }
    for (int lane = 0; lane < 4; lane++)
        best = keys[lane] > best ? keys[lane] : best;
#endif
    for (; k < slots; k++) {
        if (cam->rank[k] >= size)
            continue;
        int mask = xm_zero_bytes((uint32_t)cam->word[k] ^ word);
        int key = __builtin_popcount(mask) << 10
            | (63 - cam->rank[k]) << 4 | mask;
        best = key > best ? key : best;
    }
    return best;
}

static inline void xm_to_front(xm_cam *cam, int slots, int r,
                               uint32_t word)
{
    int k = 0;
#if defined(__GNUC__)
    const v4i w = {(int32_t)word, (int32_t)word, (int32_t)word,
                   (int32_t)word};
    const v4i at = {r, r, r, r};
    for (; k + 4 <= slots; k += 4) {
        v4i entry, rank;
        memcpy(&entry, cam->word + k, sizeof entry);
        memcpy(&rank, cam->rank + k, sizeof rank);
        v4i hit = rank == at;
        rank = (rank - (rank < at)) & ~hit;   /* -1 per lane: + 1 */
        entry = (entry & ~hit) | (w & hit);
        memcpy(cam->word + k, &entry, sizeof entry);
        memcpy(cam->rank + k, &rank, sizeof rank);
    }
#endif
    for (; k < slots; k++) {
        if (cam->rank[k] == r) {
            cam->rank[k] = 0;
            cam->word[k] = (int32_t)word;
        } else if (cam->rank[k] < r) {
            cam->rank[k]++;
        }
    }
}

/* The X-MatchPRO coding loop: zero-run tokens, equal-run collapse,
 * full/partial CAM matches with move-to-front update, misses.  Token
 * buffers must hold word_count + 8 entries.  Returns the token count,
 * or -1 when the mask code breaks the one-pass scan's premise.
 */
int64_t uparc_xmatch_tokens(const uint8_t *data, size_t word_count,
                            int capacity, uint64_t *values,
                            uint8_t *widths)
{
    if (!xm_ranks_by_count)
        return -1;
    xm_cam cam;
    for (int k = 0; k < 64; k++) {
        cam.word[k] = 0;
        cam.rank[k] = k;
    }
    int slots = (capacity + 3) & ~3;
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
        int best = xm_best(&cam, slots, size, word);
        if (best >> 10 >= 2) {
            /* Full or partial match: location, mask code, then the
             * unmatched bytes MSB first (a full match has none).     */
            int location = 63 - ((best >> 4) & 63);
            int mask = best & 15;
            int clen = xm_clen[mask];
            uint64_t token = ((uint64_t)location << clen) | xm_code[mask];
            int width = 1 + ibits + clen;
            for (int lane = 0; lane < 4; lane++) {
                int shift = ((mask >> lane) & 1) ? 0 : 8;
                token = (token << shift)
                    | (((word >> (24 - 8 * lane)) & 0xFF) & -(shift >> 3));
                width += shift;
            }
            values[n] = token;
            widths[n] = (uint8_t)width;
            n++;
            xm_to_front(&cam, slots, location, word);
            continue;
        }
        /* Miss: raw 34-bit token, insert at the dictionary front.    */
        values[n] = (3ULL << 32) | word;
        widths[n] = 34;
        n++;
        xm_to_front(&cam, slots, size < capacity ? size : size - 1, word);
        if (size < capacity) {
            size++;
            if (size > 1) {
                ibits = xm_index_bits(size);
                full0 = 2 + ibits;
            }
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
/* never reorders).  A position's key is its min_match-byte prefix    */
/* as a little-endian integer, read with one 8-byte load (from a      */
/* zero-padded copy of the last 8 bytes near the end); the hash of    */
/* the key only picks the bucket, so neither the hash nor the table   */
/* size decides which candidates are seen or in what order.  head     */
/* must hold 1 << 15 entries and prev len entries; neither needs      */
/* initialising: head is set to -1 here and prev[i] is written when   */
/* position i is inserted, before any read.                           */

#define LZ_HASH_BITS 15

#if defined(__GNUC__)
#define LZ_INLINE static inline __attribute__((always_inline))
#else
#define LZ_INLINE static inline
#endif

/* 8 bytes at p as a little-endian integer.                           */
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
static inline uint64_t load_le64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
    return v;
}
#elif defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
static inline uint64_t load_le64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
    return __builtin_bswap64(v);
}
#else
static inline uint64_t load_le64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int k = 7; k >= 0; k--)
        v = (v << 8) | p[k];
    return v;
}
#endif

/* Index of the lowest nonzero byte of x != 0.                        */
static inline size_t lz_first_diff(uint64_t x)
{
#if defined(__GNUC__)
    return (size_t)__builtin_ctzll(x) >> 3;
#else
    size_t k = 0;
    while (!(x & 0xFF)) {
        x >>= 8;
        k++;
    }
    return k;
#endif
}

/* Length of the common prefix of a and b, at most limit, given that  */
/* the first run bytes are equal: 8 bytes per step, and the last      */
/* 8 bytes before limit (bytes already compared match again); byte by */
/* byte only when limit < 8.  No load leaves a[0, limit) or b[0,      */
/* limit).                                                            */
static inline size_t lz_run(const uint8_t *a, const uint8_t *b,
                            size_t run, size_t limit)
{
    while (run + 8 <= limit) {
        uint64_t x = load_le64(a + run) ^ load_le64(b + run);
        if (x)
            return run + lz_first_diff(x);
        run += 8;
    }
    if (run == limit)
        return run;
    if (limit >= 8) {
        uint64_t x = load_le64(a + limit - 8) ^ load_le64(b + limit - 8);
        return x ? limit - 8 + lz_first_diff(x) : limit;
    }
    while (run < limit && a[run] == b[run])
        run++;
    return run;
}

/* The parse's inputs, outputs and derived constants.                 */
typedef struct {
    const uint8_t *data;
    size_t len;
    size_t base;            /* data[base, len): the last 8 bytes, or all */
    const uint8_t *tail;    /* data[base, len), then zeros: 16 bytes */
    size_t keyed_end;       /* positions below it have a key */
    size_t max_match;
    int64_t window;
    uint64_t key_mask;      /* the key's min_match low bytes */
    uint64_t match_flag;
    int shift;              /* 64 - the table's hash bits */
    int min_match;
    int max_chain;
    int length_bits;
    int match_width;
    uint64_t *values;
    uint8_t *widths;
    int32_t *head;
    int32_t *prev;
} lz_parse;

/* The key of position i (< keyed_end).  fast promises i < base, so   */
/* the 8 bytes lie inside data; otherwise they come from the tail.    */
LZ_INLINE uint64_t lz_key(const lz_parse *z, size_t i, int fast)
{
    const uint8_t *p = fast || i < z->base
        ? z->data + i : z->tail + (i - z->base);
    return load_le64(p) & z->key_mask;
}

static inline uint32_t lz_hash(const lz_parse *z, uint64_t key)
{
    return (uint32_t)((key * 0x9E3779B97F4A7C15ULL) >> z->shift);
}

/* Inserts positions [from, to) (below keyed_end) into their chains.  */
/* fast promises to <= base.                                          */
LZ_INLINE void lz_insert(const lz_parse *z, size_t from, size_t to,
                         int fast)
{
    for (size_t i = from; i < to; i++) {
        uint32_t g = lz_hash(z, lz_key(z, i, fast));
        z->prev[i] = z->head[g];
        z->head[g] = (int32_t)i;
    }
}

/* One token at position (< keyed_end): search the chain, emit the    */
/* token, insert every position it covers; returns the next position. */
/* fast promises position < base, so the search reads its own and its */
/* candidates' keys straight from data.                               */
LZ_INLINE size_t lz_token(const lz_parse *z, size_t position,
                          int64_t *n, int fast)
{
    const uint8_t *data = z->data;
    int32_t *head = z->head;
    int32_t *prev = z->prev;
    uint64_t key = lz_key(z, position, fast);
    uint32_t h = lz_hash(z, key);
    int32_t candidate = head[h];
    prev[position] = candidate;
    head[h] = (int32_t)position;
    int64_t window_start = (int64_t)position - z->window;
    if (window_start < 0)
        window_start = 0;   /* so an empty link (-1) ends the walk too */
    size_t limit = z->len - position;
    if (limit > z->max_match)
        limit = z->max_match;
    const uint8_t *b = data + position;
    size_t best_length = 0;
    size_t best_offset = 0;
    int seen = 0;
    while (seen < z->max_chain) {
        if ((int64_t)candidate < window_start)
            break;      /* chains only age: all older too */
        const uint8_t *a = data + candidate;
        if (lz_key(z, (size_t)candidate, fast) == key) {
            seen++;
            /* best_length < limit here.  A run that differs at       */
            /* best_length is at most best_length long: it can        */
            /* neither replace the best (only a longer run does) nor  */
            /* reach limit, so its compare is skipped.                */
            if (a[best_length] == b[best_length]) {
                size_t run = lz_run(a, b, (size_t)z->min_match, limit);
                if (run > best_length) {
                    best_length = run;
                    best_offset = position - (size_t)candidate;
                }
                if (run == limit)
                    break;  /* the reference's early-limit break */
            }
        }
        candidate = prev[candidate];
    }
    if (best_length < (size_t)z->min_match) {
        z->values[*n] = data[position];
        z->widths[*n] = 9;
        ++*n;
        return position + 1;
    }
    z->values[*n] = z->match_flag
        | ((uint64_t)(best_offset - 1) << z->length_bits)
        | (uint64_t)(best_length - (size_t)z->min_match);
    z->widths[*n] = (uint8_t)z->match_width;
    ++*n;
    size_t end = position + best_length;
    size_t insert_end = end < z->keyed_end ? end : z->keyed_end;
    size_t split = fast && insert_end > z->base ? z->base : insert_end;
    lz_insert(z, position + 1, split, fast);
    lz_insert(z, split, insert_end, 0);
    return end;
}

int64_t uparc_lz77_tokens(const uint8_t *data, size_t len,
                          int window_bits, int length_bits,
                          int min_match, int max_chain,
                          uint64_t *values, uint8_t *widths,
                          int32_t *head, int32_t *prev)
{
    /* A bucket per 16 window positions, up to 1 << LZ_HASH_BITS:     */
    /* LZ77's 256-byte window gets a table that stays in L1.          */
    int hash_bits = window_bits + 4 < LZ_HASH_BITS
        ? window_bits + 4 : LZ_HASH_BITS;
    uint8_t tail[16] = {0};
    lz_parse z;
    z.data = data;
    z.len = len;
    z.base = len >= 8 ? len - 8 : 0;
    if (len > z.base)
        memcpy(tail, data + z.base, len - z.base);
    z.tail = tail;
    z.keyed_end = len >= (size_t)min_match
        ? len - (size_t)min_match + 1 : 0;
    z.max_match = (size_t)min_match + ((size_t)1 << length_bits) - 1;
    z.window = (int64_t)1 << window_bits;
    z.key_mask = min_match >= 8
        ? ~0ULL : (1ULL << (8 * min_match)) - 1;
    z.match_flag = 1ULL << (window_bits + length_bits);
    z.shift = 64 - hash_bits;
    z.min_match = min_match;
    z.max_chain = max_chain;
    z.length_bits = length_bits;
    z.match_width = 1 + window_bits + length_bits;
    z.values = values;
    z.widths = widths;
    z.head = head;
    z.prev = prev;
    memset(head, 0xFF, sizeof(int32_t) << hash_bits);  /* all -1 */
    int64_t n = 0;
    size_t position = 0;
    size_t fast_end = z.base < z.keyed_end ? z.base : z.keyed_end;
    while (position < fast_end)
        position = lz_token(&z, position, &n, 1);
    while (position < z.keyed_end)
        position = lz_token(&z, position, &n, 0);
    for (; position < len; position++) {   /* too short for a key */
        values[n] = data[position];
        widths[n] = 9;
        n++;
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* Generator seeding and frame planning, drawing from CPython's       */
/* MT19937 exactly as random.Random does.  A state is 625 words:      */
/* key[0..623] is the generator's key and key[624] its index, as      */
/* getstate() lays them out.  The generator owns one such array; the  */
/* seeding kernel fills it and the planner advances it in place, so   */
/* no call converts it to or from a Python tuple.  mt_seed is         */
/* CPython's init_by_array; mt_next, mt_random and mt_below are       */
/* CPython 3.11's genrand_uint32, random() and the _randbelow behind  */
/* choice(), randint() and randrange() (mt_next reads a pre-tempered  */
/* copy of the key: the same values, in the same order).  Every draw  */
/* and every float comparison is the pure reference's, in its order; */
/* the build disables FP contraction so no comparison sees a fused    */
/* multiply-add.                                                      */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t *key;
    uint32_t index;       /* a local copy, kept in a register */
    uint32_t out[MT_N];   /* the current key's tempered outputs */
} mt_state;

/* genrand_uint32's tempering, applied to the whole key at once;      */
/* out[i] is what the i-th draw from this key returns.  The restrict  */
/* parameters tell the compiler key and out never overlap, which is   */
/* what lets it vectorise the loop (through the struct pointer it     */
/* could not rule the aliasing out and kept the loop scalar).         */
static void mt_temper(const uint32_t *restrict key,
                      uint32_t *restrict out)
{
    for (int i = 0; i < MT_N; i++) {
        uint32_t y = key[i];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680u;
        y ^= (y << 15) & 0xefc60000u;
        y ^= y >> 18;
        out[i] = y;
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
    mt_temper(mt->key, mt->out);
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

/* CPython's init_by_array over key_words 32-bit words, read little-  */
/* endian from key_bytes: random_seed's split of abs(seed), least     */
/* significant word first (key_words >= 1; seed 0 is one zero word).  */
/* Leaves the index at MT_N, so the first draw regenerates the key.   */
static void mt_seed(uint32_t *key, const uint8_t *key_bytes,
                    size_t key_words)
{
    key[0] = 19650218u;   /* init_genrand(19650218) */
    for (uint32_t i = 1; i < MT_N; i++)
        key[i] = 1812433253u * (key[i - 1] ^ (key[i - 1] >> 30)) + i;
    size_t i = 1, j = 0;
    for (size_t k = MT_N > key_words ? MT_N : key_words; k; k--) {
        const uint8_t *b = key_bytes + 4 * j;
        uint32_t word = (uint32_t)b[0] | (uint32_t)b[1] << 8
            | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
        key[i] = (key[i] ^ ((key[i - 1] ^ (key[i - 1] >> 30)) * 1664525u))
            + word + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            key[0] = key[MT_N - 1];
            i = 1;
        }
        if (j >= key_words)
            j = 0;
    }
    for (size_t k = MT_N - 1; k; k--) {
        key[i] = (key[i] ^ ((key[i - 1] ^ (key[i - 1] >> 30)) * 1566083941u))
            - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            key[0] = key[MT_N - 1];
            i = 1;
        }
    }
    key[0] = 0x80000000u;
    key[MT_N] = MT_N;
}

/* The generator's seeded state and vocabulary: Random(seed), then    */
/* motif_count routing motifs (randint(2, 10) bits, each set at       */
/* randrange(32)) and pool_size texture bytes (randrange(1, 256)),    */
/* drawn in the reference's order.  state receives all 625 words.     */

void uparc_seed_mixture(const uint8_t *key_bytes, size_t key_words,
                        uint32_t *state, size_t motif_count,
                        uint32_t *motifs, size_t pool_size,
                        uint8_t *byte_pool)
{
    mt_state mt;
    mt_seed(state, key_bytes, key_words);
    mt.key = state;
    mt.index = MT_N;
    for (size_t m = 0; m < motif_count; m++) {
        uint32_t bits = 2 + mt_below(&mt, 9);
        uint32_t word = 0;
        for (uint32_t bit = 0; bit < bits; bit++)
            word |= 1u << mt_below(&mt, 32);
        motifs[m] = word;
    }
    for (size_t p = 0; p < pool_size; p++)
        byte_pool[p] = (uint8_t)(1 + mt_below(&mt, 255));
    state[MT_N] = mt.index;
}

/* Plans frame_count frames into kinds/values/lengths (capacity cap,  */
/* which frame_count * frame_words always covers: every op holds at   */
/* least one word).  state[624] must be at most 624, motifs must be   */
/* non-empty and cum_weights must hold hi ascending entries,          */
/* hi = len(byte_pool) - 1.  The loop draws from a copy of the key,   */
/* so state advances only on success.  Returns the op count, or -1    */
/* on overflow (state untouched; the wrapper then runs pure).         */

int64_t uparc_plan_frames(uint32_t *state, const uparc_mixture *mix,
                          size_t frame_count, uint32_t frame_words,
                          int have_previous, const uint32_t *motifs,
                          uint32_t motif_count, const uint8_t *byte_pool,
                          const double *cum_weights, size_t hi,
                          uint8_t *kinds, uint32_t *values,
                          uint32_t *lengths, size_t cap)
{
    uint32_t key[MT_N];
    mt_state mt;
    memcpy(key, state, sizeof key);
    mt.key = key;
    mt.index = state[MT_N];
    mt_temper(mt.key, mt.out);
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
    memcpy(state, key, sizeof key);
    state[MT_N] = mt.index;
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

/* A decoder's first reservation: the declared length, capped at      */
/* 1 MiB.  A header may declare anything; past the cap the buffer     */
/* grows only as the body really decodes.                             */
static inline int64_t first_reservation(int64_t output_length)
{
    if (output_length < 0)
        return 0;
    return output_length < (1 << 20) ? output_length : (1 << 20);
}

void uparc_buffer_free(uint8_t *ptr)
{
    free(ptr);
}

/* Bit reader: a bit position into the body.  A read loads the 8      */
/* body bytes at the position's byte (assembled byte by byte, zero-   */
/* padded, within the last 7), so one window holds the next 57 bits   */
/* or all that remain.  Exhaustion is "field wider than the bits      */
/* left", which is exactly when the reference's cursor raises.  Fields */
/* are at most 57 bits wide.                                          */

typedef struct {
    const uint8_t *body;
    size_t len;
    uint64_t pos;    /* bits consumed */
    uint64_t end;    /* 8 * len       */
} bitreader;

static inline bitreader br_open(const uint8_t *body, size_t len)
{
    bitreader br = {body, len, 0, (uint64_t)len * 8};
    return br;
}

static inline uint64_t br_left(const bitreader *br)
{
    return br->end - br->pos;
}

/* The stream from pos, MSB-aligned, zeros past its end.              */
static inline uint64_t br_window(const bitreader *br)
{
    size_t byte = (size_t)(br->pos >> 3);
    uint64_t window;
    if (br->len - byte >= 8) {
        window = load_be64(br->body + byte);
    } else {
        window = 0;
        for (int k = 0; byte + (size_t)k < br->len; k++)
            window |= (uint64_t)br->body[byte + k] << (56 - 8 * k);
    }
    return window << (br->pos & 7);
}

/* The top `width` bits of a window (0 <= width <= 63).               */
static inline uint64_t win_bits(uint64_t window, int width)
{
    return (window >> 1) >> (63 - width);
}

/* Returns nonzero when the stream is exhausted for this field.       */
static inline int br_read(bitreader *br, int width, uint64_t *out)
{
    if ((uint64_t)width > br_left(br))
        return 1;
    *out = win_bits(br_window(br), width);
    br->pos += (uint64_t)width;
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
    int ibits = 1;
    bitreader br = br_open(body, body_len);
    int status = UPARC_OK;
    if (upbuf_reserve(&out, first_reservation(output_length) + 8) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    /* A token is at most 34 bits (a miss; a match is at most 1 + 6 + */
    /* 5 + 16), so one window holds it; the field checks below keep   */
    /* the reference's order of error points.                         */
    while (out.len < output_length) {
        uint64_t left = br_left(&br);
        if (!left) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        }
        uint64_t window = br_window(&br);
        if (!(window >> 63)) {  /* '0': dictionary match */
            if (!size) {
                status = UPARC_ERR_EMPTY_DICT;
                break;
            }
            int used = 1 + ibits;
            if ((uint64_t)used > left) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            int location = (int)win_bits(window << 1, ibits);
            if (location >= size) {
                *detail = location;
                status = UPARC_ERR_DICT_RANGE;
                break;
            }
            uint64_t peek = win_bits(window << used, 5);  /* zero-padded */
            int mask = xm_peek_mask[peek];
            if (mask < 0) {
                /* Both unassigned patterns start '11'; the decoder
                 * only reaches the 3-bit selector with 5 bits left. */
                if (left - (uint64_t)used < 5) {
                    status = UPARC_ERR_EXHAUSTED;
                    break;
                }
                *detail = (int64_t)(peek & 7);
                status = UPARC_ERR_MATCH_TYPE;
                break;
            }
            used += xm_peek_len[peek];
            /* The code, then one byte per unmatched lane.            */
            if ((uint64_t)(used + 8 * (4 - __builtin_popcount(mask)))
                    > left) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            uint32_t word = dict[location];
            for (int lane = 0; lane < 4; lane++) {
                if (mask & (1 << lane))
                    continue;
                int shift = 24 - 8 * lane;
                word = (word & ~(0xFFu << shift))
                    | ((uint32_t)win_bits(window << used, 8) << shift);
                used += 8;
            }
            br.pos += (uint64_t)used;
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
        } else if (left < 2) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        } else if (!((window >> 62) & 1)) {  /* '10': zero run */
            br.pos += 2;
            int64_t run = 0;
            uint64_t chunk;
            do {
                if (br_read(&br, 8, &chunk)) {
                    status = UPARC_ERR_EXHAUSTED;
                    break;
                }
                run += (int64_t)chunk;
            } while (chunk == 255);
            if (status != UPARC_OK)
                break;
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
        } else {                /* '11': miss */
            if (left < 34) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            uint32_t word = (uint32_t)win_bits(window << 2, 32);
            br.pos += 34;
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
                ibits = xm_index_bits(size);
            } else {
                memmove(&dict[1], &dict[0],
                        (size_t)(capacity - 1) * sizeof(uint32_t));
            }
            dict[0] = word;
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
    bitreader br = br_open(body, body_len);
    int status = UPARC_OK;
    /* A match token parses from one window: the wrapper keeps it     */
    /* within 48 bits, under the window's 57.                         */
    int match_bits = 1 + window_bits + length_bits;
    if (upbuf_reserve(&out, first_reservation(output_length) + 8) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    while (out.len < output_length) {
        uint64_t left = br_left(&br);
        if (!left) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        }
        uint64_t window = br_window(&br);
        if (window >> 63) {     /* match token */
            if ((uint64_t)match_bits > left) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            int64_t offset = (int64_t)win_bits(window << 1, window_bits) + 1;
            int64_t run = (int64_t)win_bits(window << (1 + window_bits),
                                            length_bits) + min_match;
            br.pos += (uint64_t)match_bits;
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
            if (left < 9) {
                status = UPARC_ERR_EXHAUSTED;
                break;
            }
            if (upbuf_reserve(&out, 1) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            out.p[out.len++] = (uint8_t)win_bits(window << 1, 8);
            br.pos += 9;
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
/*                                                                    */
/* A second table over the same peek holds, per window, the whole     */
/* codewords it begins with, up to 4: their symbols, count and total  */
/* bits.  The decode loop stores an entry's 4 symbol bytes at once    */
/* (past out.len, within the reserved stop) and advances by its       */
/* count, while the entry's bits are real stream bits and 4 more      */
/* bytes fit before stop; otherwise it decodes one symbol per lookup  */
/* as before, so every symbol comes from the same table entries and   */
/* every error from the same single-symbol and bit-by-bit paths.      */

#define HUF_MAX_CODE_LENGTH 32
#define HUF_PEEK_BITS 12
#define HUF_MULTI 4

typedef struct {
    uint8_t symbols[HUF_MULTI];
    uint8_t count;              /* whole codewords in the peek window  */
    uint8_t bits;               /* their total length                  */
    uint8_t pad[2];             /* 8 bytes: one move per copy          */
} huf_multi;

/* Fill mtable[base, base + 2^avail): the windows that begin with     */
/* `entry`'s codewords and have `avail` bits after them.  Each        */
/* codeword that fits in those bits owns an aligned block of them, so */
/* one walk of the blocks writes every entry once.                    */
static void huf_fill(huf_multi *mtable, const uint16_t *ptable, int peek,
                     uint32_t base, int avail, huf_multi entry)
{
    uint32_t span = 1u << avail;
    if (entry.count == HUF_MULTI) {
        for (uint32_t sub = 0; sub < span; sub++)
            mtable[base + sub] = entry;
        return;
    }
    for (uint32_t sub = 0; sub < span;) {
        uint16_t single = ptable[sub << (peek - avail)];
        int elen = single >> 8;
        if (!single || elen > avail) {
            mtable[base + sub++] = entry;
            continue;
        }
        huf_multi next = entry;
        next.symbols[next.count++] = (uint8_t)single;
        next.bits = (uint8_t)(next.bits + elen);
        huf_fill(mtable, ptable, peek, base + sub, avail - elen, next);
        sub += 1u << (avail - elen);
    }
}

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
    huf_multi mtable[1 << HUF_PEEK_BITS];
    huf_multi none = {{0, 0, 0, 0}, 0, 0, {0, 0}};
    huf_fill(mtable, ptable, peek, 0, peek, none);
    upbuf out = {0, 0, 0};
    bitreader br = br_open(body, body_len);
    int status = UPARC_OK;
    if (upbuf_reserve(&out, first_reservation(output_length)) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    while (out.len < output_length) {
        /* Table-decode symbols from one window while the next `peek` */
        /* bits (zero-padded near the end) lie in its first 57.       */
        int64_t stop = output_length - out.len < 57
            ? output_length : out.len + 57;
        if (upbuf_reserve(&out, stop - out.len) != 0) {
            status = UPARC_ERR_NOMEM;
            break;
        }
        uint64_t window = br_window(&br);
        uint64_t left = br_left(&br);
        int used = 0;
        while (out.len < stop && used <= 57 - peek) {
            uint64_t index = win_bits(window << used, peek);
            const huf_multi *multi = &mtable[index];
            if (out.len + HUF_MULTI <= stop && multi->count
                && (uint64_t)(used + multi->bits) <= left) {
                memcpy(out.p + out.len, multi->symbols, HUF_MULTI);
                out.len += multi->count;
                used += multi->bits;
                continue;
            }
            uint16_t entry = ptable[index];
            int elen = entry >> 8;
            if (!entry || (uint64_t)(used + elen) > left)
                break;
            used += elen;
            out.p[out.len++] = (uint8_t)entry;
        }
        br.pos += (uint64_t)used;
        if (used)
            continue;
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
    if (upbuf_reserve(&out, first_reservation(output_length) + 8) != 0) {
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
/* LZ78 dictionary coder.                                             */
/*                                                                    */
/* The dictionary never holds more phrases than there are input bytes */
/* (encoder) or 9-bit tokens in the body (decoder), so max_entries is */
/* clamped to that before sizing anything: beyond it no reset can     */
/* happen, and the clamp changes nothing the reference would do.      */

/* The smallest width >= 1 with size < 1 << width.                    */
static inline int lz78_index_width(int64_t size)
{
    return 64 - __builtin_clzll((uint64_t)size | 1);
}

/* The encoder's (index, byte) -> phrase map is an open-addressing    */
/* table at most half full; a reset empties just the slots it filled. */
int uparc_lz78_pack(const uint8_t *data, size_t len, int64_t max_entries,
                    uint8_t **out_ptr, int64_t *out_len)
{
    if (max_entries > (int64_t)len + 1)
        max_entries = (int64_t)len + 1;
    int64_t live = max_entries < 1 ? 1 : max_entries;
    int slot_bits = 4;
    while (((int64_t)1 << slot_bits) < 2 * live)
        slot_bits++;
    size_t slot_mask = ((size_t)1 << slot_bits) - 1;
    uint64_t *keys = (uint64_t *)calloc(slot_mask + 1, sizeof(uint64_t));
    int64_t *phrase = (int64_t *)malloc((slot_mask + 1) * sizeof(int64_t));
    size_t *filled = (size_t *)malloc((size_t)live * sizeof(size_t));
    /* One token per consumed byte at most, each index + 8 bits wide, */
    /* and the bit writer's 8 bytes of store slack.                   */
    int64_t bound = (int64_t)((len + 1)
                              * (size_t)(lz78_index_width(live) + 8) / 8) + 8;
    uint8_t *out = (uint8_t *)malloc((size_t)bound);
    bitsink bw = {out, 0, 0};
    if (!keys || !phrase || !filled || !out) {
        free(keys);
        free(phrase);
        free(filled);
        free(out);
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    int64_t count = 0;
    size_t position = 0;
    while (position < len) {
        int64_t index = 0;      /* empty phrase */
        uint64_t key = 0;
        size_t slot = 0;
        while (position < len) {
            key = (((uint64_t)index << 8) | data[position]) + 1;
            slot = (size_t)((key * 0x9E3779B97F4A7C15ULL)
                            >> (64 - slot_bits));
            while (keys[slot] && keys[slot] != key)
                slot = (slot + 1) & slot_mask;
            if (!keys[slot])
                break;          /* slot is where (index, byte) goes */
            index = phrase[slot];
            position++;
        }
        bs_put_wide(&bw, (uint64_t)index, lz78_index_width(count));
        if (position < len) {
            bs_put(&bw, data[position], 8);
            keys[slot] = key;
            phrase[slot] = count + 1;
            filled[count++] = slot;
            position++;
            if (count >= max_entries) {
                for (int64_t k = 0; k < count; k++)
                    keys[filled[k]] = 0;
                count = 0;
            }
        }
        /* else: the input ended exactly on a dictionary phrase; the  */
        /* index-only token is the last one and carries no byte.      */
    }
    free(keys);
    free(phrase);
    free(filled);
    *out_ptr = out;
    *out_len = bs_length(&bw, out);
    return UPARC_OK;
}

/* Phrase k is kept as (start, length) in the output already written: */
/* it is exactly what the token that created it emitted.              */
int uparc_lz78_decode(const uint8_t *body, size_t body_len,
                      int64_t output_length, int64_t max_entries,
                      uint8_t **out_ptr, int64_t *out_len, int64_t *detail)
{
    if (max_entries > (int64_t)body_len + 1)
        max_entries = (int64_t)body_len + 1;
    int64_t live = max_entries < 1 ? 1 : max_entries;
    int64_t *start = (int64_t *)malloc((size_t)(live + 1) * sizeof(int64_t));
    int64_t *length = (int64_t *)malloc((size_t)(live + 1) * sizeof(int64_t));
    upbuf out = {0, 0, 0};
    bitreader br = br_open(body, body_len);
    int status = UPARC_OK;
    if (!start || !length
        || upbuf_reserve(&out, first_reservation(output_length) + 8) != 0) {
        free(start);
        free(length);
        free(out.p);
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    start[0] = 0;
    length[0] = 0;
    int64_t count = 0;
    /* A token (index, byte) parses from one window: the index is     */
    /* under 49 bits for any body under 2^48 bytes.                   */
    while (out.len < output_length) {
        int width = lz78_index_width(count);
        uint64_t left = br_left(&br);
        if ((uint64_t)width > left) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        }
        uint64_t window = br_window(&br);
        uint64_t index = win_bits(window, width);
        if (index > (uint64_t)count) {
            *detail = (int64_t)index;
            status = UPARC_ERR_LZ78_INDEX;
            break;
        }
        int64_t run = length[index];
        if (upbuf_reserve(&out, run + 1) != 0) {
            status = UPARC_ERR_NOMEM;
            break;
        }
        memcpy(out.p + out.len, out.p + start[index], (size_t)run);
        if (out.len + run >= output_length) {
            out.len += run;
            break;
        }
        if ((uint64_t)width + 8 > left) {
            status = UPARC_ERR_EXHAUSTED;
            break;
        }
        br.pos += (uint64_t)width + 8;
        count++;
        start[count] = out.len;
        length[count] = run + 1;
        out.len += run;
        out.p[out.len++] = (uint8_t)win_bits(window << width, 8);
        if (count >= max_entries)
            count = 0;
    }
    free(start);
    free(length);
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
/* 7-zip entropy stage: Witten-Neal-Cleary arithmetic coding with     */
/* 32-bit precision over adaptive Fenwick-tree models, the same       */
/* arithmetic as the reference's AdaptiveModel / ArithmeticEncoder /  */
/* ArithmeticDecoder, renormalised once per symbol instead of once    */
/* per bit.                                                           */
/*                                                                    */
/* The reference's loop shifts out one bit per pass: a bit low and    */
/* high share (emitted after the pending complements of any earlier   */
/* underflows), then, once their top bits differ, an underflow bit    */
/* (low = 01..., high = 10...: count it pending, drop bit 30).  No    */
/* underflow pass can be followed by a shared-bit pass, since each    */
/* keeps bit 31 of low at 0 and of high at 1.  So the loop is n =     */
/* clz(low ^ high) shared bits, shifted out at once (the first one    */
/* followed by the pending run, the other n - 1 as they are), then k  */
/* underflow bits, the run of ones of low & ~high from bit 30 down,   */
/* shifted out at once by deleting bits 30..31-k and keeping bit 31.  */
/* The decoder's value takes both steps with low and high.  It lies   */
/* in [low, high] (a target within the model's total puts it in the   */
/* narrowed interval), where the reference's subtractions of HALF and */
/* QUARTER are exactly these bit deletions.  Each pass doubles high - */
/* low + 1, which a symbol's narrowing leaves at 2^14 or more (2^30   */
/* or more before it, a total under 2^16), so n + k <= 18: a symbol   */
/* reads at most 18 code bits.                                        */
/*                                                                    */
/* Each model also keeps its frequencies, so a symbol's upper bound   */
/* is its lower bound plus its frequency, and the decoder's tree      */
/* descent yields the lower bound as it finds the symbol: one Fenwick */
/* walk per coded symbol besides the update, not two or three.  A     */
/* decoder's value stays within [low, high], so every quantity fits   */
/* 64 bits (span * total < 2^49).                                     */

#define AC_HALF        0x80000000ULL
#define AC_QUARTER     0x40000000ULL
#define AC_TOP         0xFFFFFFFFULL
#define AC_MAX_TOTAL   65536
#define AC_INCREMENT   32
#define AC_MAX_IMPLICIT_BITS 32
#define BYTE_LZ_MIN_MATCH 4  /* the byte-LZ parse's shortest match */

typedef struct {
    int32_t tree[257];          /* Fenwick tree, 1-based               */
    int32_t freq[256];          /* the frequencies the tree sums       */
    int32_t total;
    int32_t size;
    int32_t top;                /* 1 << size.bit_length()              */
} acmodel;

/* Build the tree over freq[0, size): each node adds itself to its    */
/* parent, bottom-up.                                                 */
static void am_build(acmodel *m)
{
    int n = m->size;
    int32_t *t = m->tree;
    int32_t total = 0;
    t[0] = 0;
    for (int i = 1; i <= n; i++) {
        t[i] = m->freq[i - 1];
        total += t[i];
    }
    for (int i = 1; i <= n; i++) {
        int j = i + (i & -i);
        if (j <= n)
            t[j] += t[i];
    }
    m->total = total;
}

static void am_init(acmodel *m, int size)
{
    m->size = size;
    m->total = size;            /* every symbol starts at frequency 1  */
    m->tree[0] = 0;
    for (int i = 1; i <= size; i++) {
        m->freq[i - 1] = 1;
        m->tree[i] = i & -i;
    }
    int top = 1;
    while (top <= size)
        top <<= 1;
    m->top = top;
}

static inline int32_t am_cumulative(const acmodel *m, int symbol)
{
    int32_t total = 0;
    for (int i = symbol; i > 0; i -= i & -i)
        total += m->tree[i];
    return total;
}

/* The symbol whose [cumulative, cumulative + freq) holds target, and */
/* its cumulative frequency: the sum the descent takes out of target. */
static inline int am_find(const acmodel *m, int32_t target,
                          int32_t *cum_low)
{
    int index = 0;
    int32_t remaining = target;
    for (int mask = m->top; mask; mask >>= 1) {
        int probe = index + mask;
        if (probe <= m->size && m->tree[probe] <= remaining) {
            index = probe;
            remaining -= m->tree[probe];
        }
    }
    *cum_low = target - remaining;
    return index;
}

/* Halve every frequency (floor 1) and rebuild the tree.              */
static void am_halve(acmodel *m)
{
    for (int i = 0; i < m->size; i++)
        m->freq[i] = m->freq[i] / 2 > 1 ? m->freq[i] / 2 : 1;
    am_build(m);
}

static inline void am_update(acmodel *m, int symbol)
{
    m->freq[symbol] += AC_INCREMENT;
    for (int i = symbol + 1; i <= m->size; i += i & -i)
        m->tree[i] += AC_INCREMENT;
    m->total += AC_INCREMENT;
    if (m->total >= AC_MAX_TOTAL)
        am_halve(m);
}

/* The token coder's model set; literal contexts start on first use. */
typedef struct {
    acmodel kind;
    acmodel offset_high;
    acmodel offset_low;
    acmodel length;
    acmodel literals[256];
    uint8_t literal_ready[256];
} lzma_models;

static lzma_models *lzma_models_new(void)
{
    lzma_models *models = (lzma_models *)malloc(sizeof(lzma_models));
    if (!models)
        return 0;
    am_init(&models->kind, 3);
    am_init(&models->offset_high, 256);
    am_init(&models->offset_low, 256);
    am_init(&models->length, 256);
    memset(models->literal_ready, 0, sizeof(models->literal_ready));
    return models;
}

static inline acmodel *lzma_literal_model(lzma_models *models, int context)
{
    acmodel *model = &models->literals[context];
    if (!models->literal_ready[context]) {
        am_init(model, 256);
        models->literal_ready[context] = 1;
    }
    return model;
}

/* Shift the n bits low and high share out of a narrowed interval,    */
/* then its k underflow bits (bits 30..31-k go, bit 31 stays).        */
/* Returns n and sets *k.  low < high, so low ^ high has a set bit,   */
/* and bit 0 of the underflow complement is set, so k <= 31.          */
static inline int ac_renormalise(uint64_t *low, uint64_t *high, int *k)
{
    int n = __builtin_clz((uint32_t)(*low ^ *high));
    uint64_t l = (*low << n) & AC_TOP;
    uint64_t h = ((*high << n) | ((1ULL << n) - 1)) & AC_TOP;
    *k = __builtin_clz(~((uint32_t)(l << 1) & ~(uint32_t)(h << 1)));
    *low = (l << *k) & (AC_HALF - 1);
    *high = AC_HALF | ((h << *k) & (AC_HALF - 1)) | ((1ULL << *k) - 1);
    return n;
}

/* The encoder writes through the packers' bit sink into a growable   */
/* buffer with 16 bytes past the sink: a put stores 8 bytes there and */
/* advances at most 7.                                                */
typedef struct {
    uint64_t low;
    uint64_t high;
    int64_t pending;
    bitsink w;
    upbuf out;
} acencoder;

/* Put up to 56 bits.                                                 */
static inline int ace_put(acencoder *e, uint64_t value, unsigned width)
{
    int64_t at = e->w.p - e->out.p;
    if (at + 16 > e->out.cap) {
        e->out.len = at;
        if (upbuf_reserve(&e->out, 16) != 0)
            return -1;
        e->w.p = e->out.p + at;
    }
    bs_put(&e->w, value, width);
    return 0;
}

/* The top of `count` (1 to 32) shared bits, then the pending run of  */
/* its complement, then the other count - 1 bits.                     */
static int ace_put_shared(acencoder *e, uint64_t bits, int count)
{
    int rest = count - 1;
    uint64_t first = bits >> rest;
    uint64_t tail = bits & ((1ULL << rest) - 1);
    if (e->pending + count <= 56) {
        /* The common case: bit, run and rest in one put.              */
        int run = (int)e->pending;
        uint64_t ones = first ? 0 : (1ULL << run) - 1;
        e->pending = 0;
        return ace_put(e, (((first << run) | ones) << rest) | tail,
                       (unsigned)(run + count));
    }
    if (ace_put(e, first, 1) != 0)
        return -1;
    while (e->pending) {
        int run = e->pending < 32 ? (int)e->pending : 32;
        if (ace_put(e, first ? 0 : (1ULL << run) - 1, (unsigned)run) != 0)
            return -1;
        e->pending -= run;
    }
    return ace_put(e, tail, (unsigned)rest);
}

static int ace_encode(acencoder *e, acmodel *m, int symbol)
{
    uint64_t span = e->high - e->low + 1;
    uint64_t total = (uint64_t)m->total;
    uint64_t cum_low = (uint64_t)am_cumulative(m, symbol);
    uint64_t cum_high = cum_low + (uint64_t)m->freq[symbol];
    uint64_t high = e->low + span * cum_high / total - 1;
    uint64_t low = e->low + span * cum_low / total;
    uint64_t shared = low;
    int k;
    int n = ac_renormalise(&low, &high, &k);
    if (n && ace_put_shared(e, shared >> (32 - n), n) != 0)
        return -1;
    e->pending += k;
    e->low = low;
    e->high = high;
    am_update(m, symbol);
    return 0;
}

/* One more pending bit, the final bit and its run, then the sink's   */
/* zero-padded last byte.                                             */
static int ace_finish(acencoder *e)
{
    e->pending++;
    if (ace_put_shared(e, e->low < AC_QUARTER ? 0 : 1, 1) != 0)
        return -1;
    e->out.len = bs_length(&e->w, e->out.p);
    return 0;
}

/* Token stream -> code stream.  Width 9 is a literal, any other      */
/* width a match whose masked value is offset-1 << 8 | length-4.      */
int uparc_lzma_pack(const uint64_t *values, const uint8_t *widths,
                    size_t count, uint64_t match_mask,
                    uint8_t **out_ptr, int64_t *out_len)
{
    *out_ptr = 0;
    for (size_t i = 0; i < count; i++) {
        uint64_t symbol = widths[i] == 9 ? values[i]
            : (values[i] & match_mask) >> 16;
        if (symbol > 255)
            return UPARC_ERR_SYMBOL;
    }
    lzma_models *models = lzma_models_new();
    acencoder e = {0, AC_TOP, 0, {0, 0, 0}, {0, 0, 0}};
    /* The code stream is usually well under a byte per token.        */
    if (!models || upbuf_reserve(&e.out, (int64_t)count + 64) != 0) {
        free(models);
        free(e.out.p);
        return UPARC_ERR_NOMEM;
    }
    e.w.p = e.out.p;
    int failed = 0;
    int previous_byte = 0;
    for (size_t i = 0; i < count && !failed; i++) {
        if (widths[i] == 9) {
            int byte = (int)values[i];
            failed = ace_encode(&e, &models->kind, 0)
                || ace_encode(&e, lzma_literal_model(models, previous_byte),
                              byte);
            previous_byte = byte;
        } else {
            uint64_t fields = values[i] & match_mask;
            failed = ace_encode(&e, &models->kind, 1)
                || ace_encode(&e, &models->offset_high, (int)(fields >> 16))
                || ace_encode(&e, &models->offset_low,
                              (int)((fields >> 8) & 0xFF))
                || ace_encode(&e, &models->length, (int)(fields & 0xFF));
            previous_byte = 0;  /* context resets after a copy */
        }
    }
    if (!failed)
        failed = ace_encode(&e, &models->kind, 2) || ace_finish(&e);
    free(models);
    if (failed) {
        free(e.out.p);
        return UPARC_ERR_NOMEM;
    }
    *out_ptr = e.out.p;
    *out_len = e.out.len;
    return UPARC_OK;
}

typedef struct {
    bitreader br;
    int implicit_bits;          /* zeros read past the end so far      */
    uint64_t low;
    uint64_t high;
    uint64_t value;
} acdecoder;

/* The next `width` (<= 57) code bits; past the body the encoder's    */
/* implicit trailing zeros, until more than 32 of them mark the       */
/* stream corrupt.                                                    */
static inline int acd_take(acdecoder *d, int width, uint64_t *bits)
{
    uint64_t left = br_left(&d->br);
    *bits = win_bits(br_window(&d->br), width);
    if ((uint64_t)width <= left) {
        d->br.pos += (uint64_t)width;
        return UPARC_OK;
    }
    d->br.pos = d->br.end;
    d->implicit_bits += width - (int)left;
    return d->implicit_bits > AC_MAX_IMPLICIT_BITS
        ? UPARC_ERR_AC_EXHAUSTED : UPARC_OK;
}

static inline int acd_decode(acdecoder *d, acmodel *m, int *symbol)
{
    uint64_t span = d->high - d->low + 1;
    uint64_t total = (uint64_t)m->total;
    if (d->value < d->low)
        return UPARC_ERR_AC_RANGE;  /* the reference's negative target */
    uint64_t target = ((d->value - d->low + 1) * total - 1) / span;
    if (target >= total)
        return UPARC_ERR_AC_RANGE;
    int32_t cum;
    int found = am_find(m, (int32_t)target, &cum);
    uint64_t cum_low = (uint64_t)cum;
    uint64_t cum_high = cum_low + (uint64_t)m->freq[found];
    d->high = d->low + span * cum_high / total - 1;
    d->low = d->low + span * cum_low / total;
    int k;
    int n = ac_renormalise(&d->low, &d->high, &k);
    if (n + k) {
        uint64_t fresh;
        int status = acd_take(d, n + k, &fresh);
        if (status != UPARC_OK)
            return status;
        d->value = ((d->value << n) & AC_HALF)
            | (((d->value << (n + k)) | fresh) & (AC_HALF - 1));
    }
    am_update(m, found);
    *symbol = found;
    return UPARC_OK;
}

int uparc_lzma_decode(const uint8_t *body, size_t body_len,
                      int64_t output_length,
                      uint8_t **out_ptr, int64_t *out_len)
{
    acdecoder d = {br_open(body, body_len), 0, 0, AC_TOP, 0};
    /* At most 32 implicit zeros: the first read cannot fail.         */
    (void)acd_take(&d, 32, &d.value);
    lzma_models *models = lzma_models_new();
    upbuf out = {0, 0, 0};
    if (!models
        || upbuf_reserve(&out, first_reservation(output_length) + 8) != 0) {
        free(models);
        free(out.p);
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    int status = UPARC_OK;
    int previous_byte = 0;
    for (;;) {
        int kind;
        status = acd_decode(&d, &models->kind, &kind);
        if (status != UPARC_OK || kind == 2)
            break;
        if (kind == 0) {
            int byte;
            status = acd_decode(&d, lzma_literal_model(models, previous_byte),
                                &byte);
            if (status != UPARC_OK)
                break;
            if (upbuf_reserve(&out, 1) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            out.p[out.len++] = (uint8_t)byte;
            previous_byte = byte;
        } else {
            int high, low, length;
            if ((status = acd_decode(&d, &models->offset_high, &high))
                != UPARC_OK
                || (status = acd_decode(&d, &models->offset_low, &low))
                != UPARC_OK
                || (status = acd_decode(&d, &models->length, &length))
                != UPARC_OK)
                break;
            int64_t offset = (int64_t)((high << 8) | low) + 1;
            int64_t run = length + BYTE_LZ_MIN_MATCH;
            int64_t start = out.len - offset;
            if (start < 0) {
                status = UPARC_ERR_LZMA_BACKREF;
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
            previous_byte = 0;
        }
        if (out.len > output_length) {
            status = UPARC_ERR_LZMA_OVERRUN;
            break;
        }
    }
    free(models);
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
/* Zip's byte-token stage: a control byte of 8 flags (MSB first) per  */
/* 8 tokens, then a literal byte or a 3-byte match (offset - 1 in 16  */
/* bits, length - 4 in 8) per token.                                  */

int uparc_lzbytes_pack(const uint64_t *values, const uint8_t *widths,
                       size_t count, uint64_t match_mask,
                       uint8_t **out_ptr, int64_t *out_len)
{
    upbuf out = {0, 0, 0};
    if (upbuf_reserve(&out, (int64_t)(count / 8 + 1 + 3 * count)) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    for (size_t start = 0; start < count; start += 8) {
        size_t end = count - start < 8 ? count : start + 8;
        int64_t flags_position = out.len++;
        unsigned flags = 0;
        for (size_t index = start; index < end; index++) {
            flags <<= 1;
            if (widths[index] == 9) {
                if (values[index] > 0xFF)
                    goto symbol;    /* pure's bytearray.append raises */
                out.p[out.len++] = (uint8_t)values[index];
            } else {
                uint64_t fields = values[index] & match_mask;
                if (fields >> 24)
                    goto symbol;    /* pure's to_bytes(3) raises      */
                flags |= 1;
                out.p[out.len++] = (uint8_t)(fields >> 16);
                out.p[out.len++] = (uint8_t)(fields >> 8);
                out.p[out.len++] = (uint8_t)fields;
            }
        }
        out.p[flags_position] = (uint8_t)(flags << (8 - (end - start)));
    }
    *out_ptr = out.p;
    *out_len = out.len;
    return UPARC_OK;
symbol:
    free(out.p);
    *out_ptr = 0;
    return UPARC_ERR_SYMBOL;
}

int uparc_lzbytes_decode(const uint8_t *body, size_t body_len,
                         int64_t output_length,
                         uint8_t **out_ptr, int64_t *out_len)
{
    upbuf out = {0, 0, 0};
    if (upbuf_reserve(&out, first_reservation(output_length) + 8) != 0) {
        *out_ptr = 0;
        return UPARC_ERR_NOMEM;
    }
    int status = UPARC_OK;
    size_t position = 0;
    unsigned flags = 0;
    int flag_count = 0;
    while (out.len < output_length) {
        if (flag_count == 0) {
            if (position >= body_len) {
                status = UPARC_ERR_CONTROL_BYTE;
                break;
            }
            flags = body[position++];
            flag_count = 8;
        }
        unsigned flag = flags & 0x80;
        flags <<= 1;
        flag_count--;
        if (flag) {
            if (body_len - position < 3) {
                status = UPARC_ERR_MATCH_TOKEN;
                break;
            }
            int64_t offset = (int64_t)((body[position] << 8)
                                       | body[position + 1]) + 1;
            int64_t run = body[position + 2] + BYTE_LZ_MIN_MATCH;
            position += 3;
            int64_t start = out.len - offset;
            if (start < 0) {
                status = UPARC_ERR_LZMA_BACKREF;
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
            if (position >= body_len) {
                status = UPARC_ERR_LITERAL_TOKEN;
                break;
            }
            if (upbuf_reserve(&out, 1) != 0) {
                status = UPARC_ERR_NOMEM;
                break;
            }
            out.p[out.len++] = body[position++];
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
