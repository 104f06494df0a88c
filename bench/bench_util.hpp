#pragma once
// Shared harness for the table/figure reproduction benches.
//
// Every bench runs its workload under an analytic measurement session
// (serial execution, exact fork-join work/span, ideal-cache LRU misses)
// and prints rows whose *normalized* columns should be flat if the paper's
// asymptotic claim holds; each bench's header names the claim its
// columns check.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/session.hpp"

namespace dopar::bench {

struct Measure {
  uint64_t work = 0;
  uint64_t span = 0;
  uint64_t misses = 0;  ///< 0 when cache simulation was off
};

/// Default cache parameters for cache-complexity measurements:
/// M = 256 KiB, B = 64 bytes (a typical L2 slice; the algorithms are
/// cache-agnostic, so any choice works).
inline constexpr uint64_t kM = 256 * 1024;
inline constexpr uint64_t kB = 64;

template <class F>
Measure measure(F&& f, bool with_cache = true, uint64_t m_bytes = kM,
                uint64_t b_bytes = kB) {
  sim::Session s = with_cache
                       ? sim::Session::analytic().with_cache(m_bytes, b_bytes)
                       : sim::Session::analytic();
  {
    sim::ScopedSession guard(s);
    f();
  }
  Measure out;
  out.work = s.cost().work;
  out.span = s.cost().span;
  out.misses = s.cache() ? s.cache()->misses() : 0;
  return out;
}

// ---- machine-readable measurement rows (the BENCH_*.json schema) --------
//
// Every table bench appends each measured configuration as a Row and
// writes them to BENCH_<bench>.json in the *current working directory*
// (array of {section, config, n, backend, work, span, misses}; rewritten
// per run). To refresh a committed snapshot, run the bench from the repo
// root — or copy the file there — and commit it, so the perf trajectory
// accumulates in the repo's history and regressions are diffable per PR.

/// One emitted measurement row (mirrors the JSON schema).
struct Row {
  std::string section;
  std::string config;
  size_t n = 0;
  std::string backend;
  Measure m;
};

inline std::vector<Row>& rows() {
  static std::vector<Row> r;
  return r;
}

inline void record(std::string section, std::string config, size_t n,
                   std::string backend, const Measure& m) {
  rows().push_back(
      Row{std::move(section), std::move(config), n, std::move(backend), m});
}

/// Wall-clock row: microseconds in the `work` column, span/misses zero.
/// Unlike the analytic counters these are machine- and load-dependent, so
/// the CI snapshot diff (scripts/check_bench_snapshots.py) reports them
/// without gating on them — list the section in its WALL_CLOCK_SECTIONS.
inline void record_wall(std::string section, std::string config, size_t n,
                        std::string backend, double micros) {
  Measure m;
  m.work = static_cast<uint64_t>(micros < 0 ? 0 : micros);
  rows().push_back(Row{std::move(section), std::move(config), n,
                       std::move(backend), m});
}

/// Minimal JSON string escaping: backend names come from the open
/// registry, so quotes/backslashes/control bytes must not break the file.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

/// Write every recorded row to `path` and report on stdout.
inline void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows().size(); ++i) {
    const Row& r = rows()[i];
    std::fprintf(f,
                 "  {\"section\": \"%s\", \"config\": \"%s\", \"n\": %zu, "
                 "\"backend\": \"%s\", \"work\": %llu, \"span\": %llu, "
                 "\"misses\": %llu}%s\n",
                 json_escape(r.section).c_str(), json_escape(r.config).c_str(),
                 r.n, json_escape(r.backend).c_str(),
                 (unsigned long long)r.m.work, (unsigned long long)r.m.span,
                 (unsigned long long)r.m.misses,
                 i + 1 < rows().size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu measurement rows to %s\n", rows().size(), path);
}

inline double lg(double x) { return std::log2(x < 2 ? 2 : x); }
inline double lglg(double x) { return lg(lg(x)); }

/// log_M(n) with the bench's default cache size in *elements* of 32 bytes.
inline double logM(double n, double m_bytes = kM) {
  const double m_elems = m_bytes / 32.0;
  return std::log(n < 2 ? 2 : n) / std::log(m_elems < 2 ? 2 : m_elems);
}

inline void print_header(const char* title, const char* cols) {
  std::printf("\n=== %s ===\n%s\n", title, cols);
}

}  // namespace dopar::bench
