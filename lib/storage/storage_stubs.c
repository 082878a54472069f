/* memcpy between Bigarray storage and OCaml bytes, for the block
 * device's blocks and the journal's log chunks, and the CRC-32 of the
 * checksum layer.
 *
 * Every stub is [@@noalloc]: they neither allocate nor raise, so the
 * OCaml side passes unboxed ints and checks every bound before the
 * call (see Mem and Checksum). A 2 KB block then copies at memcpy speed
 * instead of through an OCaml word loop.
 */

#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

value rikit_blit_ba_to_bytes(value src, value src_pos, value dst,
                             value dst_pos, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_pos),
         (const char *)Caml_ba_data_val(src) + Long_val(src_pos),
         (size_t)Long_val(len));
  return Val_unit;
}

value rikit_blit_bytes_to_ba(value src, value src_pos, value dst,
                             value dst_pos, value len)
{
  memcpy((char *)Caml_ba_data_val(dst) + Long_val(dst_pos),
         Bytes_val(src) + Long_val(src_pos), (size_t)Long_val(len));
  return Val_unit;
}

/* ---- CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) ----
 *
 * Two kernels compute the same function on the inverted running CRC:
 *
 * - slice-by-8, portable: crc_table[k] advances a byte through k
 *   further zero bytes, so one step folds eight input bytes with eight
 *   independent lookups;
 * - on x86-64 with PCLMULQDQ and SSE4.1, a carry-less-multiply fold
 *   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 *   PCLMULQDQ Instruction", Intel 2009) over the length-16-aligned
 *   prefix of any run of 64 bytes or more; slice-by-8 finishes the tail
 *   and every shorter run.
 *
 * The kernel is chosen once, in rikit_crc32_init, which Checksum calls
 * when the module initializes. */

static uint32_t crc_table[8][256];

static uint32_t crc32_slice8(uint32_t c, const unsigned char *p, size_t n)
{
  while (n >= 8) {
    uint32_t lo = c ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8 |
                       (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    uint32_t hi = (uint32_t)p[4] | (uint32_t)p[5] << 8 |
                  (uint32_t)p[6] << 16 | (uint32_t)p[7] << 24;
    c = crc_table[7][lo & 0xff] ^ crc_table[6][(lo >> 8) & 0xff] ^
        crc_table[5][(lo >> 16) & 0xff] ^ crc_table[4][lo >> 24] ^
        crc_table[3][hi & 0xff] ^ crc_table[2][(hi >> 8) & 0xff] ^
        crc_table[1][(hi >> 16) & 0xff] ^ crc_table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) c = crc_table[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define RIKIT_CRC_FOLD 1
#include <immintrin.h>

/* Bit-reflected fold constants: powers of x modulo P for the 4-lane
 * fold (k1k2), the 1-lane fold (k3k4) and the 128 → 64-bit step (k5),
 * then P and its Barrett quotient for the final reduction. */
static const uint64_t k1k2[2] __attribute__((aligned(16))) =
  { 0x154442bd4, 0x1c6e41596 };
static const uint64_t k3k4[2] __attribute__((aligned(16))) =
  { 0x1751997d0, 0x0ccaa009e };
static const uint64_t k5k0[2] __attribute__((aligned(16))) =
  { 0x163cd6124, 0 };
static const uint64_t poly[2] __attribute__((aligned(16))) =
  { 0x1db710641, 0x1f7011641 };

/* [n] is a multiple of 16 and at least 64. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_fold(uint32_t c, const unsigned char *p, size_t n)
{
  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
  x0 = _mm_load_si128((const __m128i *)k1k2);
  p += 64;
  n -= 64;

  /* four 128-bit lanes, 64 bytes a step */
  while (n >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                       _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                       _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                       _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    n -= 64;
  }

  /* the four lanes into one */
  x0 = _mm_load_si128((const __m128i *)k3k4);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  /* the remaining 16-byte blocks, one at a time */
  while (n >= 16) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)p));
    p += 16;
    n -= 16;
  }

  /* 128 → 64 bits */
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x0 = _mm_loadl_epi64((const __m128i *)k5k0);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  /* Barrett reduction to 32 bits */
  x0 = _mm_load_si128((const __m128i *)poly);
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}

static int crc_use_fold = 0;
#endif

value rikit_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_table[k - 1][n];
      crc_table[k][n] = (prev >> 8) ^ crc_table[0][prev & 0xff];
    }
#ifdef RIKIT_CRC_FOLD
  __builtin_cpu_init();
  crc_use_fold =
    __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

/* CRC of [len] bytes of [buf] from [pos], continuing from [crc] (the
 * finished CRC of the bytes before, 0 for none). */
value rikit_crc32(value crc, value buf, value pos, value len)
{
  const unsigned char *p = Bytes_val(buf) + Long_val(pos);
  size_t n = (size_t)Long_val(len);
  uint32_t c = ~(uint32_t)Long_val(crc);
#ifdef RIKIT_CRC_FOLD
  if (crc_use_fold && n >= 64) {
    size_t head = n & ~(size_t)15;
    c = crc32_fold(c, p, head);
    p += head;
    n -= head;
  }
#endif
  return Val_long(~crc32_slice8(c, p, n));
}
