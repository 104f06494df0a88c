// Table 2 reproduction: aggregation, propagation, send-receive, and
// oblivious PRAM-step simulation — our binary fork-join algorithms vs the
// "prior best" (the best oblivious PRAM algorithm with every PRAM step
// naively forked in a binary tree).
//
// The send-receive section sweeps EVERY sorter backend registered in the
// dopar backend registry (core/backend.hpp), so a Table 2 configuration is
// one registry name and a newly registered backend joins the bench with no
// code change here.
//
// Claims to check (spans; work is equal by construction):
//   * Aggr/Prop: ours O(log n) vs prior O(log^2 n) — the span ratio
//     prior/ours should GROW like log n;
//   * S-R: the cache-agnostic backend (sort-bound cache) vs the naive
//     parallelization (cache O((n/B) log^2 n)) — the cache ratio grows
//     like log n while spans differ by a loglog-ish factor;
//   * PRAM: per-step cost of the space-bounded simulation (s ~ p) and the
//     OPRAM-based large-space simulation (s >> p).
//
// Besides the human-readable table, every measured row of a run is
// written to BENCH_table2.json via the shared bench::record/write_json
// schema (see bench_util.hpp for the snapshot-refresh workflow).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/backend.hpp"
#include "forkjoin/api.hpp"
#include "obl/aggregate.hpp"
#include "obl/propagate.hpp"
#include "obl/sendrecv.hpp"
#include "pram/oblivious_ls.hpp"
#include "pram/oblivious_sb.hpp"
#include "pram/reference.hpp"
#include "pram/samples.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using bench::measure;
using bench::Measure;
using bench::record;
using bench::write_json;

std::vector<obl::Elem> grouped(size_t n, uint64_t groups, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<obl::Elem> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i].key = i * groups / n;  // sorted group layout
    v[i].payload = rng.below(100);
  }
  return v;
}

struct Add {
  uint64_t operator()(uint64_t a, uint64_t b) const { return a + b; }
};

// "Prior best" aggregation: the O(log n)-step PRAM doubling algorithm with
// every step forked naively — span O(log^2 n).
void naive_pram_aggregate(const slice<obl::Elem>& a) {
  const size_t n = a.size();
  vec<uint64_t> cur(n), nxt(n);
  vec<uint64_t> stop(n), stop2(n);
  const slice<uint64_t> C = cur.s(), N = nxt.s();
  const slice<uint64_t> S = stop.s(), S2 = stop2.s();
  fj::for_range(0, n, 1, [&](size_t i) {
    sim::tick(1);
    C[i] = a[i].payload;
    S[i] = (i + 1 == n) || (a[i + 1].key != a[i].key);
  });
  for (size_t d = 1; d < n; d *= 2) {  // O(log n) PRAM steps
    fj::for_range(0, n, 1, [&](size_t i) {  // each step: binary-tree fork
      sim::tick(1);
      const bool take = !S[i] && i + d < n;
      N[i] = C[i] + (take ? C[i + d] : 0);
      S2[i] = S[i] || (take ? S[i + d] : 1);
    });
    fj::for_range(0, n, 1, [&](size_t i) {
      C[i] = N[i];
      S[i] = S2[i];
    });
  }
  fj::for_range(0, n, 1, [&](size_t i) {
    obl::Elem e = a[i];
    e.payload = C[i];
    a[i] = e;
  });
}

}  // namespace
}  // namespace dopar

int main() {
  using namespace dopar;
  std::printf("Table 2 reproduction (W/S/Q as in Table 1; M=%llu B=%llu)\n",
              (unsigned long long)bench::kM, (unsigned long long)bench::kB);

  bench::print_header("Aggregation: ours vs naive PRAM forking",
                      "col: span ratio prior/ours should grow ~log n");
  for (size_t n : {1u << 10, 1u << 12, 1u << 14}) {
    auto data = grouped(n, 32, n);
    Measure ours = measure([&] {
      vec<obl::Elem> v(data);
      obl::aggregate_suffix(v.s(), Add{});
    });
    record("aggregate", "ours", n, "", ours);
    Measure prior = measure([&] {
      vec<obl::Elem> v(data);
      naive_pram_aggregate(v.s());
    });
    record("aggregate", "naive_pram", n, "", prior);
    std::printf(
        "Aggr n=%-7zu ours W=%-9llu S=%-6llu Q=%-8llu | prior W=%-9llu "
        "S=%-6llu Q=%-8llu | span prior/ours=%.2f\n",
        n, (unsigned long long)ours.work, (unsigned long long)ours.span,
        (unsigned long long)ours.misses, (unsigned long long)prior.work,
        (unsigned long long)prior.span, (unsigned long long)prior.misses,
        double(prior.span) / double(ours.span));
  }

  bench::print_header("Propagation: ours (segmented scan)",
                      "span/log2(n) should be ~flat (O(log n) claim)");
  for (size_t n : {1u << 10, 1u << 12, 1u << 14}) {
    auto data = grouped(n, 32, n + 1);
    Measure ours = measure([&] {
      vec<obl::Elem> v(data);
      obl::propagate_leftmost(v.s());
    });
    record("propagate", "ours", n, "", ours);
    std::printf("Prop n=%-7zu W=%-9llu S=%-6llu Q=%-8llu  S/lg(n)=%.1f  "
                "W/n=%.1f\n",
                n, (unsigned long long)ours.work,
                (unsigned long long)ours.span,
                (unsigned long long)ours.misses,
                double(ours.span) / bench::lg(double(n)),
                double(ours.work) / double(n));
  }

  bench::print_header(
      "Send-receive: every registered sorter backend",
      "rows per backend; Q naive_bitonic/bitonic_ca should grow ~log n "
      "(M = 16 KiB so the working set exceeds the cache); the full-sort "
      "backends run ORP + REC-SORT (osort) and ORP + SPMS under its "
      "practical tuning (spms)");
  for (size_t n : {1u << 11, 1u << 12}) {
    util::Rng rng(n);
    std::vector<obl::Elem> sources(n), dests(n);
    for (size_t i = 0; i < n; ++i) {
      sources[i].key = 2 * i;
      sources[i].payload = i;
      dests[i].key = rng.below(2 * n);
    }
    constexpr uint64_t kSmallM = 16 * 1024;
    Measure ca{};  // the cache-agnostic baseline of this n, for ratios
    Measure naive{};
    for (const std::string& name : backend_names()) {
      auto sorter =
          make_backend(name, BackendConfig{.seed = 7 * n, .params = {}});
      Measure m = measure(
          [&] {
            vec<obl::Elem> s(sources), d(dests), r(dests.size());
            obl::detail::send_receive(s.s(), d.s(), r.s(), *sorter);
          },
          true, kSmallM, bench::kB);
      // config "practical" names the full-sort backends' configuration
      // (REC-SORT, SPMS's practical tuning): snapshot rows must stay
      // self-describing, or a cross-PR diff would compare measurements
      // of different configurations under the same key.
      record("send_receive", "practical", n, name, m);
      if (name == "bitonic_ca") ca = m;
      if (name == "naive_bitonic") naive = m;
      std::printf(
          "S-R  n=%-7zu backend=%-14s W=%-10llu S=%-7llu Q=%-8llu\n", n,
          name.c_str(), (unsigned long long)m.work,
          (unsigned long long)m.span, (unsigned long long)m.misses);
    }
    if (ca.misses != 0 && ca.span != 0 && naive.misses != 0) {
      std::printf("     n=%-7zu Q naive/ca=%.2f S naive/ca=%.2f\n", n,
                  double(naive.misses) / double(ca.misses),
                  double(naive.span) / double(ca.span));
    }
  }

  bench::print_header("PRAM-step simulation",
                      "per-step cost; sb ~ sort(p+s), ls ~ p*log^2(s)");
  for (size_t p : {size_t{16}, size_t{32}}) {
    util::Rng rng(p);
    std::vector<uint64_t> vals(p);
    for (auto& v : vals) v = rng.below(1000);
    pram::RunStats st_sb, st_ls;
    Measure sb = measure([&] {
      pram::MaxReduceProgram prog(vals);
      (void)pram::run_oblivious_sb(prog, default_backend(), &st_sb);
    });
    record("pram_step", "sb", p, std::string(default_backend().name()), sb);
    Measure ls = measure([&] {
      pram::MaxReduceProgram prog(vals);
      (void)pram::run_oblivious_ls(prog, 5, &st_ls);
    });
    record("pram_step", "ls", p, "", ls);
    std::printf(
        "PRAM p=s=%-4zu steps=%-3zu | sb/step W=%-9llu S=%-6llu Q=%-7llu | "
        "ls/step W=%-9llu S=%-6llu Q=%-7llu\n",
        p, st_sb.steps, (unsigned long long)(sb.work / st_sb.steps),
        (unsigned long long)(sb.span / st_sb.steps),
        (unsigned long long)(sb.misses / st_sb.steps),
        (unsigned long long)(ls.work / st_ls.steps),
        (unsigned long long)(ls.span / st_ls.steps),
        (unsigned long long)(ls.misses / st_ls.steps));
  }
  // Large-space regime: s >> p — the OPRAM-based simulation's advantage.
  {
    const size_t p = 8, rounds = 4;
    pram::RunStats st_sb, st_ls;
    Measure sb = measure([&] {
      pram::WriteConflictProgram prog(p, rounds);
      (void)pram::run_oblivious_sb(prog, default_backend(), &st_sb);
    });
    record("pram_large_space", "sb", p,
           std::string(default_backend().name()), sb);
    Measure ls = measure([&] {
      pram::WriteConflictProgram prog(p, rounds);
      (void)pram::run_oblivious_ls(prog, 5, &st_ls);
    });
    record("pram_large_space", "ls", p, "", ls);
    std::printf(
        "PRAM p=%zu s=%zu (s~p regime for reference) sb W/step=%llu ls "
        "W/step=%llu\n",
        p, rounds + 1, (unsigned long long)(sb.work / st_sb.steps),
        (unsigned long long)(ls.work / st_ls.steps));
  }

  write_json("BENCH_table2.json");
  std::printf("Done.\n");
  return 0;
}
