#pragma once
// Process heap policy for the native engines' per-call scratch.
//
// One Runtime::sort of 2^16 keys allocates ~60 MiB of scratch in buffers
// of 64 KiB to 5 MiB and frees all of it before returning. Under glibc's
// default policy much of that goes back to the kernel at every free
// (exact-size mmap chunks, heap-top trims), so each call faults up to
// ~32 MiB of fresh pages in again. How much depends on the malloc arena's
// history, which differs from process to process; on a 4-vCPU VM the
// faults cost up to ~15% of the sort and made its speed differ between
// processes.
// retain_freed_scratch() lets the heap keep that memory mapped: blocks
// below 32 MiB (glibc's ceiling for the mmap threshold) come from the
// arenas, and freed memory stays with them up to kTrimBytes per arena, so
// a steady call sequence reuses the pages it faulted in on its first call.
// The heap then holds what the largest call needed; in the repository
// benchmark peak RSS stayed within its run-to-run noise. Process-wide and
// applied once, by the first Runtime built; a no-op off glibc.

#include <cstddef>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dopar::util {

inline constexpr size_t kMmapThresholdBytes = size_t{32} << 20;
inline constexpr size_t kTrimBytes = size_t{1} << 30;

inline void retain_freed_scratch() {
#if defined(__GLIBC__)
  static const bool applied = [] {
    mallopt(M_MMAP_THRESHOLD, static_cast<int>(kMmapThresholdBytes));
    mallopt(M_TRIM_THRESHOLD, static_cast<int>(kTrimBytes));
    return true;
  }();
  (void)applied;
#endif
}

}  // namespace dopar::util
