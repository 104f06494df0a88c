// The benchmark's global operator new: every block starts on a 64-byte
// cache-line boundary.
//
// The library keeps its records (32-byte Elem and friends) in plain
// std::vectors, so with malloc's 16-byte alignment where a buffer starts
// within a cache line depends on the heap's history. On a 4-vCPU x86-64 VM
// that made Runtime::sort of 2^16 keys run at ~620 ms on some Runtime
// instances and ~900 ms on others, picked afresh per instance and per
// process. With every block line-aligned, instances run within ~10% of
// each other. The benchmark replaces only the allocator; src/ is unchanged.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

constexpr std::size_t kLine = 64;

void* alloc_line(std::size_t n) {
  const std::size_t bytes = (n + kLine - 1) / kLine * kLine;
  if (void* p = std::aligned_alloc(kLine, bytes == 0 ? kLine : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return alloc_line(n); }
void* operator new[](std::size_t n) { return alloc_line(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return alloc_line(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
