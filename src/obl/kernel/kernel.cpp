// Raw comparator-kernel implementations and the startup ISA dispatch.
//
// Every implementation computes the same function as the scalar reference
// (tests/test_oswap.cpp cross-checks them byte-for-byte, including records
// whose size is not a multiple of any vector width): an arithmetic-mask
// swap/select over byte images. Vector bodies run over the largest chunks
// that fit, then fall through to an 8-byte word loop and a final byte loop
// — no implementation ever reads or writes past `bytes` on any operand.
//
// The AVX2 batch kernel also has fixed-size paths for the record shapes
// the sort pipeline moves most: 8 and 16 bytes at a contiguous stride,
// 32, 40 and 48 bytes at any stride. Other shapes take its generic loop.
//
// x86 AVX2 bodies are compiled with the `target` attribute so the library
// builds (and falls back cleanly) under plain -march=x86-64; the CI matrix
// exercises both that build and an explicit -mavx2 one.

#include "obl/kernel/dispatch.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DOPAR_KERNEL_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define DOPAR_KERNEL_NEON 1
#endif

namespace dopar::obl::kernel {

namespace {

// ---- scalar reference ---------------------------------------------------

inline void oswap_words(unsigned char* pa, unsigned char* pb, size_t bytes,
                        uint64_t m) {
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t wa, wb;
    std::memcpy(&wa, pa + i, 8);
    std::memcpy(&wb, pb + i, 8);
    const uint64_t t = (wa ^ wb) & m;
    wa ^= t;
    wb ^= t;
    std::memcpy(pa + i, &wa, 8);
    std::memcpy(pb + i, &wb, 8);
  }
  const unsigned char mb = static_cast<unsigned char>(m);
  for (; i < bytes; ++i) {
    const unsigned char t = static_cast<unsigned char>((pa[i] ^ pb[i]) & mb);
    pa[i] = static_cast<unsigned char>(pa[i] ^ t);
    pb[i] = static_cast<unsigned char>(pb[i] ^ t);
  }
}

void oswap_scalar(void* a, void* b, size_t bytes, bool do_swap) {
  oswap_words(static_cast<unsigned char*>(a), static_cast<unsigned char*>(b),
              bytes, 0 - static_cast<uint64_t>(do_swap));
}

void oselect_scalar(void* dst, const void* t, const void* f, size_t bytes,
                    bool cond) {
  unsigned char* pd = static_cast<unsigned char*>(dst);
  const unsigned char* pt = static_cast<const unsigned char*>(t);
  const unsigned char* pf = static_cast<const unsigned char*>(f);
  const uint64_t m = 0 - static_cast<uint64_t>(cond);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t wt, wf;
    std::memcpy(&wt, pt + i, 8);
    std::memcpy(&wf, pf + i, 8);
    const uint64_t out = (wt & m) | (wf & ~m);
    std::memcpy(pd + i, &out, 8);
  }
  const unsigned char mb = static_cast<unsigned char>(m);
  for (; i < bytes; ++i) {
    pd[i] = static_cast<unsigned char>((pt[i] & mb) |
                                       (pf[i] & static_cast<unsigned char>(~mb)));
  }
}

void oswap_batch_scalar(unsigned char* a, unsigned char* b, size_t bytes,
                        size_t stride, const unsigned char* mask,
                        size_t count) {
  for (size_t i = 0; i < count; ++i) {
    oswap_words(a + i * stride, b + i * stride, bytes,
                0 - static_cast<uint64_t>(mask[i] != 0));
  }
}

// ---- SSE2 (x86-64 baseline) ---------------------------------------------

#if DOPAR_KERNEL_X86

inline void oswap_sse2_one(unsigned char* pa, unsigned char* pb, size_t bytes,
                           __m128i vm, uint64_t m) {
  size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<__m128i*>(pa + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<__m128i*>(pb + i));
    const __m128i t = _mm_and_si128(_mm_xor_si128(va, vb), vm);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pa + i), _mm_xor_si128(va, t));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pb + i), _mm_xor_si128(vb, t));
  }
  if (i < bytes) oswap_words(pa + i, pb + i, bytes - i, m);
}

void oswap_sse2(void* a, void* b, size_t bytes, bool do_swap) {
  const uint64_t m = 0 - static_cast<uint64_t>(do_swap);
  oswap_sse2_one(static_cast<unsigned char*>(a),
                 static_cast<unsigned char*>(b), bytes,
                 _mm_set1_epi8(static_cast<char>(m)), m);
}

void oselect_sse2(void* dst, const void* t, const void* f, size_t bytes,
                  bool cond) {
  unsigned char* pd = static_cast<unsigned char*>(dst);
  const unsigned char* pt = static_cast<const unsigned char*>(t);
  const unsigned char* pf = static_cast<const unsigned char*>(f);
  const uint64_t m = 0 - static_cast<uint64_t>(cond);
  const __m128i vm = _mm_set1_epi8(static_cast<char>(m));
  size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const __m128i vt = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pt + i));
    const __m128i vf = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pf + i));
    const __m128i out = _mm_or_si128(_mm_and_si128(vt, vm),
                                     _mm_andnot_si128(vm, vf));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pd + i), out);
  }
  if (i < bytes) oselect_scalar(pd + i, pt + i, pf + i, bytes - i, cond);
}

void oswap_batch_sse2(unsigned char* a, unsigned char* b, size_t bytes,
                      size_t stride, const unsigned char* mask, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const uint64_t m = 0 - static_cast<uint64_t>(mask[i] != 0);
    oswap_sse2_one(a + i * stride, b + i * stride, bytes,
                   _mm_set1_epi8(static_cast<char>(m)), m);
  }
}

// ---- AVX2 (runtime-detected; `target` attribute, no -mavx2 needed) ------

__attribute__((target("avx2"))) inline void oswap_avx2_one(
    unsigned char* pa, unsigned char* pb, size_t bytes, __m256i vm,
    uint64_t m) {
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pa + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pb + i));
    const __m256i t = _mm256_and_si256(_mm256_xor_si256(va, vb), vm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pa + i),
                        _mm256_xor_si256(va, t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb + i),
                        _mm256_xor_si256(vb, t));
  }
  if (i + 16 <= bytes) {
    const __m128i vm128 = _mm256_castsi256_si128(vm);
    const __m128i va = _mm_loadu_si128(reinterpret_cast<__m128i*>(pa + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<__m128i*>(pb + i));
    const __m128i t = _mm_and_si128(_mm_xor_si128(va, vb), vm128);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pa + i), _mm_xor_si128(va, t));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pb + i), _mm_xor_si128(vb, t));
    i += 16;
  }
  if (i < bytes) oswap_words(pa + i, pb + i, bytes - i, m);
}

__attribute__((target("avx2"))) void oswap_avx2(void* a, void* b, size_t bytes,
                                                bool do_swap) {
  const uint64_t m = 0 - static_cast<uint64_t>(do_swap);
  oswap_avx2_one(static_cast<unsigned char*>(a),
                 static_cast<unsigned char*>(b), bytes,
                 _mm256_set1_epi8(static_cast<char>(m)), m);
}

__attribute__((target("avx2"))) void oselect_avx2(void* dst, const void* t,
                                                  const void* f, size_t bytes,
                                                  bool cond) {
  unsigned char* pd = static_cast<unsigned char*>(dst);
  const unsigned char* pt = static_cast<const unsigned char*>(t);
  const unsigned char* pf = static_cast<const unsigned char*>(f);
  const uint64_t m = 0 - static_cast<uint64_t>(cond);
  const __m256i vm = _mm256_set1_epi8(static_cast<char>(m));
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i vt =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pt + i));
    const __m256i vf =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pf + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pd + i),
                        _mm256_blendv_epi8(vf, vt, vm));
  }
  // The tail stays VEX-encoded: handing it to the legacy-SSE kernel with
  // the upper ymm halves dirty costs an AVX/SSE transition per call
  // (~216 ns per 40/48-byte select vs ~3 ns on an AVX2 Xeon VM).
  if (i + 16 <= bytes) {
    const __m128i vt = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pt + i));
    const __m128i vf = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pf + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pd + i),
                     _mm_blendv_epi8(vf, vt, _mm256_castsi256_si128(vm)));
    i += 16;
  }
  if (i < bytes) oselect_scalar(pd + i, pt + i, pf + i, bytes - i, cond);
}

// Batch swap of 32-, 40- or 48-byte records at any stride, so the round
// runner's stride-2d batches get it as well as its contiguous ones: the
// 32-byte Elem, the 40-byte Routed (ORP's per-bin label sorts) and
// BinItem<Elem>, and the 48-byte BinItem<Routed> (ORBA's bin placements).
// Each record is one 256-bit vector, then nothing (32 B), a 64-bit word
// (40 B) or a 128-bit vector (48 B).
template <size_t Bytes>
__attribute__((target("avx2"))) inline void oswap_batch_avx2_fixed(
    unsigned char* a, unsigned char* b, size_t stride,
    const unsigned char* mask, size_t count) {
  static_assert(Bytes == 32 || Bytes == 40 || Bytes == 48);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t m = 0 - static_cast<uint64_t>(mask[i] != 0);
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    unsigned char* pa = a + i * stride;
    unsigned char* pb = b + i * stride;
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pa));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pb));
    const __m256i t = _mm256_and_si256(_mm256_xor_si256(va, vb), vm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pa),
                        _mm256_xor_si256(va, t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb),
                        _mm256_xor_si256(vb, t));
    if constexpr (Bytes == 48) {
      const __m128i vm128 = _mm256_castsi256_si128(vm);
      const __m128i ta = _mm_loadu_si128(reinterpret_cast<__m128i*>(pa + 32));
      const __m128i tb = _mm_loadu_si128(reinterpret_cast<__m128i*>(pb + 32));
      const __m128i tt = _mm_and_si128(_mm_xor_si128(ta, tb), vm128);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pa + 32),
                       _mm_xor_si128(ta, tt));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pb + 32),
                       _mm_xor_si128(tb, tt));
    } else if constexpr (Bytes == 40) {
      oswap_words(pa + 32, pb + 32, 8, m);
    }
  }
}

__attribute__((target("avx2"))) void oswap_batch_avx2(
    unsigned char* a, unsigned char* b, size_t bytes, size_t stride,
    const unsigned char* mask, size_t count) {
  if (bytes == 32) {
    oswap_batch_avx2_fixed<32>(a, b, stride, mask, count);
    return;
  }
  if (bytes == 40) {
    oswap_batch_avx2_fixed<40>(a, b, stride, mask, count);
    return;
  }
  if (bytes == 48) {
    oswap_batch_avx2_fixed<48>(a, b, stride, mask, count);
    return;
  }
  if (bytes == 8 && stride == 8) {
    // Four 8-byte records per vector; the mask lanes broadcast per record.
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const __m256i vm = _mm256_set_epi64x(
          0 - static_cast<long long>(mask[i + 3] != 0),
          0 - static_cast<long long>(mask[i + 2] != 0),
          0 - static_cast<long long>(mask[i + 1] != 0),
          0 - static_cast<long long>(mask[i] != 0));
      unsigned char* pa = a + i * 8;
      unsigned char* pb = b + i * 8;
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pa));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pb));
      const __m256i t = _mm256_and_si256(_mm256_xor_si256(va, vb), vm);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pa),
                          _mm256_xor_si256(va, t));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb),
                          _mm256_xor_si256(vb, t));
    }
    for (; i < count; ++i) {
      oswap_words(a + i * 8, b + i * 8, 8,
                  0 - static_cast<uint64_t>(mask[i] != 0));
    }
    return;
  }
  if (bytes == 16 && stride == 16) {
    // Two 16-byte records per vector.
    size_t i = 0;
    for (; i + 2 <= count; i += 2) {
      const __m256i vm = _mm256_set_epi64x(
          0 - static_cast<long long>(mask[i + 1] != 0),
          0 - static_cast<long long>(mask[i + 1] != 0),
          0 - static_cast<long long>(mask[i] != 0),
          0 - static_cast<long long>(mask[i] != 0));
      unsigned char* pa = a + i * 16;
      unsigned char* pb = b + i * 16;
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pa));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<__m256i*>(pb));
      const __m256i t = _mm256_and_si256(_mm256_xor_si256(va, vb), vm);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pa),
                          _mm256_xor_si256(va, t));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb),
                          _mm256_xor_si256(vb, t));
    }
    for (; i < count; ++i) {
      oswap_words(a + i * 16, b + i * 16, 16,
                  0 - static_cast<uint64_t>(mask[i] != 0));
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const uint64_t m = 0 - static_cast<uint64_t>(mask[i] != 0);
    oswap_avx2_one(a + i * stride, b + i * stride, bytes,
                   _mm256_set1_epi8(static_cast<char>(m)), m);
  }
}

#endif  // DOPAR_KERNEL_X86

// ---- NEON (aarch64) -----------------------------------------------------

#if DOPAR_KERNEL_NEON

inline void oswap_neon_one(unsigned char* pa, unsigned char* pb, size_t bytes,
                           uint8x16_t vm, uint64_t m) {
  size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const uint8x16_t va = vld1q_u8(pa + i);
    const uint8x16_t vb = vld1q_u8(pb + i);
    const uint8x16_t t = vandq_u8(veorq_u8(va, vb), vm);
    vst1q_u8(pa + i, veorq_u8(va, t));
    vst1q_u8(pb + i, veorq_u8(vb, t));
  }
  if (i < bytes) oswap_words(pa + i, pb + i, bytes - i, m);
}

void oswap_neon(void* a, void* b, size_t bytes, bool do_swap) {
  const uint64_t m = 0 - static_cast<uint64_t>(do_swap);
  oswap_neon_one(static_cast<unsigned char*>(a),
                 static_cast<unsigned char*>(b), bytes,
                 vdupq_n_u8(do_swap ? 0xffu : 0u), m);
}

void oselect_neon(void* dst, const void* t, const void* f, size_t bytes,
                  bool cond) {
  unsigned char* pd = static_cast<unsigned char*>(dst);
  const unsigned char* pt = static_cast<const unsigned char*>(t);
  const unsigned char* pf = static_cast<const unsigned char*>(f);
  const uint8x16_t vm = vdupq_n_u8(cond ? 0xffu : 0u);
  size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const uint8x16_t vt = vld1q_u8(pt + i);
    const uint8x16_t vf = vld1q_u8(pf + i);
    vst1q_u8(pd + i, vbslq_u8(vm, vt, vf));
  }
  if (i < bytes) oselect_scalar(pd + i, pt + i, pf + i, bytes - i, cond);
}

void oswap_batch_neon(unsigned char* a, unsigned char* b, size_t bytes,
                      size_t stride, const unsigned char* mask, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    oswap_neon_one(a + i * stride, b + i * stride, bytes,
                   vdupq_n_u8(mask[i] != 0 ? 0xffu : 0u),
                   0 - static_cast<uint64_t>(mask[i] != 0));
  }
}

#endif  // DOPAR_KERNEL_NEON

std::atomic<Isa> g_isa{Isa::Scalar};

Isa best_supported() {
#if DOPAR_KERNEL_X86
  if (__builtin_cpu_supports("avx2")) return Isa::Avx2;
  return Isa::Sse2;
#elif DOPAR_KERNEL_NEON
  return Isa::Neon;
#else
  return Isa::Scalar;
#endif
}

Isa isa_from_env() {
  if (const char* name = std::getenv("DOPAR_ISA"); name && name[0] != '\0') {
    for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Neon}) {
      if (std::strcmp(name, isa_name(isa)) == 0 && isa_supported(isa)) {
        return isa;
      }
    }
  }
  return best_supported();
}

// Startup selection (before main; see dispatch.hpp). Code that runs during
// the dynamic initialization of other TUs may observe the constant-
// initialized scalar table instead — same results, just unvectorized.
const bool g_env_init = [] {
  select_isa(isa_from_env());
  return true;
}();

}  // namespace

namespace detail {

std::atomic<OswapFn> g_oswap{&oswap_scalar};
std::atomic<OselectFn> g_oselect{&oselect_scalar};
std::atomic<OswapBatchFn> g_oswap_batch{&oswap_batch_scalar};

}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Sse2: return "sse2";
    case Isa::Avx2: return "avx2";
    case Isa::Neon: return "neon";
  }
  return "unknown";
}

Isa active_isa() { return g_isa.load(std::memory_order_relaxed); }

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
#if DOPAR_KERNEL_X86
    case Isa::Sse2:
      return true;
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2");
#endif
#if DOPAR_KERNEL_NEON
    case Isa::Neon:
      return true;
#endif
    default:
      return false;
  }
}

bool select_isa(Isa isa) {
  if (!isa_supported(isa)) return false;
  detail::OswapFn os = &oswap_scalar;
  detail::OselectFn oe = &oselect_scalar;
  detail::OswapBatchFn ob = &oswap_batch_scalar;
  switch (isa) {
    case Isa::Scalar:
      break;
#if DOPAR_KERNEL_X86
    case Isa::Sse2:
      os = &oswap_sse2;
      oe = &oselect_sse2;
      ob = &oswap_batch_sse2;
      break;
    case Isa::Avx2:
      os = &oswap_avx2;
      oe = &oselect_avx2;
      ob = &oswap_batch_avx2;
      break;
#endif
#if DOPAR_KERNEL_NEON
    case Isa::Neon:
      os = &oswap_neon;
      oe = &oselect_neon;
      ob = &oswap_batch_neon;
      break;
#endif
    default:
      return false;
  }
  detail::g_oswap.store(os, std::memory_order_relaxed);
  detail::g_oselect.store(oe, std::memory_order_relaxed);
  detail::g_oswap_batch.store(ob, std::memory_order_relaxed);
  g_isa.store(isa, std::memory_order_relaxed);
  return true;
}

}  // namespace dopar::obl::kernel
