#pragma once
// Runtime-dispatched raw comparator kernels: the instruction-set seam of
// the obl/kernel layer.
//
// Every oblivious primitive bottoms out in branchless byte moves (oswap /
// oselect over fixed-size trivially-copyable records). This header exposes
// those moves as *raw* functions over (pointer, byte-count) — plus a batch
// variant that processes many independent record pairs per call — each
// backed by one of several instruction-set implementations selected once
// at startup:
//
//   * AVX2  (x86-64, when the CPU reports it; compiled via the `target`
//     attribute, so no special -m flags are required),
//   * SSE2  (x86-64 baseline),
//   * NEON  (aarch64),
//   * Scalar — the portable 8-byte-word loop, also the reference
//     implementation every vector kernel must agree with bit-for-bit.
//
// Selection: best supported ISA, unless the environment says otherwise:
//   DOPAR_ISA=name   pin a specific ISA if supported (scalar/sse2/avx2/
//                    neon), else fall back to the best one; DOPAR_ISA=scalar
//                    pins the scalar kernels (reproducible CI runs).
// Tests and benches may switch kernels in-process via select_isa(); that
// hook is for harness code — it is not synchronized against concurrently
// running kernels (the kernels all compute the same function, so the only
// hazard is a torn *measurement*, never a wrong result).
//
// Contract of every kernel: reads and writes exactly [p, p+bytes) on each
// operand — no tail over-read/over-write (ASan-clean for any byte count) —
// and the memory access pattern is independent of the mask/condition.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dopar::obl::kernel {

enum class Isa : uint8_t { Scalar, Sse2, Avx2, Neon };

/// Human-readable ISA name ("scalar", "sse2", "avx2", "neon").
const char* isa_name(Isa isa);

/// The ISA the raw kernels currently dispatch to.
Isa active_isa();

/// True iff `isa` has an implementation compiled in AND the CPU supports it.
bool isa_supported(Isa isa);

/// Switch the dispatch table (test/bench hook; see header comment).
/// Returns false — and changes nothing — if `isa` is unsupported.
bool select_isa(Isa isa);

/// Records at or below this size keep the inline word-loop fast path in
/// obl::oswap/oselect/oassign (and run_pairs swaps them pair by pair with
/// it); larger records dispatch to the raw kernels.
inline constexpr size_t kInlineBytes = 16;

namespace detail {

using OswapFn = void (*)(void* a, void* b, size_t bytes, bool do_swap);
using OselectFn = void (*)(void* dst, const void* t, const void* f,
                           size_t bytes, bool cond);
using OswapBatchFn = void (*)(unsigned char* a, unsigned char* b, size_t bytes,
                              size_t stride, const unsigned char* mask,
                              size_t count);

extern std::atomic<OswapFn> g_oswap;
extern std::atomic<OselectFn> g_oselect;
extern std::atomic<OswapBatchFn> g_oswap_batch;

}  // namespace detail

/// Swap the byte images at a and b iff do_swap (data-independent pattern).
inline void oswap_raw(void* a, void* b, size_t bytes, bool do_swap) {
  detail::g_oswap.load(std::memory_order_relaxed)(a, b, bytes, do_swap);
}

/// dst <- cond ? t : f, always writing all of dst. dst may alias t or f
/// exactly (same address); partial overlap is not supported.
inline void oselect_raw(void* dst, const void* t, const void* f, size_t bytes,
                        bool cond) {
  detail::g_oselect.load(std::memory_order_relaxed)(dst, t, f, bytes, cond);
}

/// Batch oswap: for i in [0, count), swap the `bytes`-byte records at
/// a + i*stride and b + i*stride iff mask[i] != 0. The two record arrays
/// must not overlap each other. The AVX2 kernel runs fixed-size paths for
/// 8- and 16-byte records at stride == bytes and for 32-, 40- and 48-byte
/// records (Elem, Routed and BinItem<Elem>, BinItem<Routed>) at any
/// stride; every other shape, and every shape on the other ISAs, runs the
/// generic loop.
inline void oswap_batch_raw(unsigned char* a, unsigned char* b, size_t bytes,
                            size_t stride, const unsigned char* mask,
                            size_t count) {
  detail::g_oswap_batch.load(std::memory_order_relaxed)(a, b, bytes, stride,
                                                        mask, count);
}

}  // namespace dopar::obl::kernel
