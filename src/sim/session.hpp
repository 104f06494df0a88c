#pragma once
// Measurement session: installs work/span accounting, optional cache
// simulation, and optional trace recording for the current thread.
//
// Usage:
//   sim::Session s = sim::Session::analytic()            // work/span only
//                      .with_cache(1 << 20, 64)          // + cache sim
//                      .with_trace();                     // + address trace
//   { sim::ScopedSession guard(s);  run_algorithm(); }
//   s.cost().work / s.cost().span / s.cache()->misses() ...
//
// Sessions force *serial* execution of the fork-join DAG (the analytic
// executor), which makes span computation exact and traces deterministic.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cachesim.hpp"
#include "sim/memlog.hpp"
#include "sim/ticks.hpp"

namespace dopar::sim {

inline constexpr uint32_t kNoBuf = 0xffffffffu;

class Session {
 public:
  Session() = default;

  static Session analytic() { return Session(); }

  Session&& with_cache(uint64_t m_bytes, uint64_t b_bytes) && {
    cache_ = std::make_unique<CacheSim>(m_bytes, b_bytes);
    line_ = b_bytes;
    return std::move(*this);
  }
  Session&& with_trace() && {
    log_ = std::make_unique<MemLog>();
    return std::move(*this);
  }

  /// Register a tracked buffer of `bytes` bytes; returns its id and assigns
  /// it a line-aligned base in the virtual address space.
  uint32_t register_buffer(uint64_t bytes) {
    const uint32_t id = static_cast<uint32_t>(bases_.size());
    bases_.push_back(next_base_);
    const uint64_t aligned = (bytes + line_ - 1) / line_ * line_;
    next_base_ += aligned + line_;  // one guard line between buffers
    return id;
  }

  void touch(uint32_t buf, uint64_t byte_off, uint32_t bytes) {
    cost_.work += 1;
    cost_.span += 1;
    if (buf == kNoBuf) return;
    if (cache_) cache_->access(bases_[buf] + byte_off, bytes);
    if (log_) log_->record(buf, byte_off, bytes);
  }

  void tick(uint64_t k) {
    cost_.work += k;
    cost_.span += k;
  }

  // --- fork/join cost combination (used by the analytic executor) ------
  Cost exchange_cost(Cost fresh) {
    Cost old = cost_;
    cost_ = fresh;
    return old;
  }
  Cost cost() const { return cost_; }
  void join2(Cost parent, Cost a, Cost b) {
    cost_.work = parent.work + a.work + b.work + 1;
    cost_.span = parent.span + (a.span > b.span ? a.span : b.span) + 1;
  }

  CacheSim* cache() { return cache_.get(); }
  MemLog* log() { return log_.get(); }

 private:
  Cost cost_{};
  uint64_t line_ = 64;
  uint64_t next_base_ = 0;
  std::vector<uint64_t> bases_;
  std::unique_ptr<CacheSim> cache_;
  std::unique_ptr<MemLog> log_;
};

/// RAII installer for the thread-local session pointer.
class ScopedSession {
 public:
  explicit ScopedSession(Session& s) : prev_(detail::tls_session()) {
    detail::tls_session() = &s;
  }
  ~ScopedSession() { detail::tls_session() = prev_; }
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;

 private:
  Session* prev_;
};

/// Straight-line cost: k units of work contributing k to the span.
inline void tick(uint64_t k = 1) {
  if (Session* s = current_session()) s->tick(k);
}

}  // namespace dopar::sim
