// Layer probes and the analytic-count pass of the traced run.

#include <algorithm>
#include <cstring>
#include <random>
#include <span>

#include "oracles.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using dopar::Elem;
using dopar::Runtime;

/// Median wall time (ms) of `reps` calls of f, each inside a span `name`.
/// `prep` runs before each call, outside the timed region; `ok` checks
/// each call's output and counts failures into `failed`.
template <class Prep, class F, class Ok>
double time_calls(const char* name, int reps, Prep&& prep, F&& f, Ok&& ok,
                  uint64_t& failed) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    prep();
    const auto t0 = Clock::now();
    {
      Span s(name);
      f();
    }
    ms.push_back(ms_between(t0, Clock::now()));
    if (!ok()) ++failed;
  }
  return quantile(ms, 0.5);
}

std::vector<Elem> random_elems(size_t n, std::mt19937_64& rng) {
  std::vector<Elem> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i].key = rng() % (n / 4);
    v[i].payload = i;
  }
  return v;
}

/// ORP, ORBA and the network sort on one 2^16-key input (the sort_osort
/// shape).
void core_probes(const Params& p, Runtime& rt, Metrics& m, uint64_t& failed) {
  std::mt19937_64 rng(p.seed ^ 0xc0de);
  const size_t n = p.tiny ? size_t{1} << 10 : size_t{1} << 16;
  const std::vector<Elem> in = random_elems(n, rng);
  const int reps = p.tiny ? 1 : 3;
  dopar::vec<Elem> a, b;
  auto fresh = [&] {
    a = rt.make_vec(in);
    b = rt.make_vec<Elem>(n);
  };
  m["core.permute_ms"] = {
      time_calls("pb.permute", reps, fresh,
                 [&] { rt.permute(a.s(), b.s()); },
                 [&] {
                   // A permutation: every input position appears once.
                   std::vector<char> seen(n, 0);
                   for (const Elem& e : b.underlying()) {
                     if (e.payload >= n || seen[e.payload]++ ||
                         in[e.payload].key != e.key) {
                       return false;
                     }
                   }
                   return true;
                 },
                 failed),
      "ms"};
  size_t bins = 0;
  m["core.bin_assign_ms"] = {
      time_calls("pb.bin_assign", reps, fresh,
                 [&] { bins = rt.bin_assign(a.s()).bins.size(); },
                 [&] { return bins >= n; }, failed),
      "ms"};
  m["core.backend_sort_ms"] = {
      time_calls("pb.backend_sort", reps, fresh,
                 [&] { rt.backend_sort(a.s()); },
                 [&] { return sort_matches(in, a.underlying()); }, failed),
      "ms"};
}

/// 16-slot join and group-by batches shaped like svc_mixed_open's
/// requests, replayed through the batched serving hooks. Each slot's share
/// of the output frame is read back as the Service does (live rows in
/// frame order) and checked against that request's oracle.
void rel_batch_probes(const Params& p, Runtime& rt, Metrics& m,
                      uint64_t& failed) {
  const SvcPool pool = make_svc_pool(p);
  constexpr size_t kSlots = 16;
  const int reps = p.tiny ? 1 : 5;

  std::vector<uint64_t> lk, rk;
  std::vector<dopar::rel::JoinSlot> jslots;
  for (size_t s = 0; s < kSlots; ++s) {
    const JoinReq& q = pool.joins[s % pool.joins.size()];
    lk.insert(lk.end(), q.left.begin(), q.left.end());
    rk.insert(rk.end(), q.right.begin(), q.right.end());
    jslots.push_back(dopar::rel::JoinSlot{q.left.size(), q.right.size(),
                                          q.bound, q.band != 0, q.band});
  }
  std::vector<Elem> frame;
  std::vector<uint64_t> matched;
  m["rel.join_batched_ms"] = {
      time_calls("pb.join_batched", reps, [] {},
                 [&] { matched = rt.join_batched(lk, rk, jslots, frame); },
                 [&] {
                   size_t off = 0;
                   for (size_t s = 0; s < kSlots; ++s) {
                     const JoinReq& q = pool.joins[s % pool.joins.size()];
                     dopar::JoinResult<uint64_t, uint64_t> res;
                     res.matched = matched.at(s);
                     for (size_t j = 0; j < q.bound; ++j) {
                       const Elem& e = frame.at(off + j);
                       if (e.flags & Elem::kFiller) continue;
                       res.rows.emplace_back(q.left.at(e.payload),
                                             q.right.at(e.aux));
                     }
                     off += q.bound;
                     if (!join_pairs_match(res, q)) return false;
                   }
                   return off == frame.size();
                 },
                 failed),
      "ms"};

  std::vector<uint64_t> keys, values;
  std::vector<dopar::rel::GroupSlot> gslots;
  for (size_t s = 0; s < kSlots; ++s) {
    const GroupReq& q = pool.groups[s % pool.groups.size()];
    keys.insert(keys.end(), q.keys.begin(), q.keys.end());
    values.insert(values.end(), q.values.begin(), q.values.end());
    gslots.push_back(dopar::rel::GroupSlot{q.keys.size(), q.keys.size()});
  }
  std::vector<uint64_t> groups;
  m["rel.group_by_batched_ms"] = {
      time_calls("pb.group_by_batched", reps, [] {},
                 [&] {
                   groups = rt.group_by_batched(keys, values, gslots,
                                                dopar::Agg::Sum, frame);
                 },
                 [&] {
                   size_t off = 0;
                   for (size_t s = 0; s < kSlots; ++s) {
                     const GroupReq& q = pool.groups[s % pool.groups.size()];
                     dopar::GroupByResult res;
                     res.groups_total = groups.at(s);
                     for (size_t j = 0; j < q.keys.size(); ++j) {
                       const Elem& e = frame.at(off + j);
                       if (e.flags & Elem::kFiller) continue;
                       res.groups.push_back(
                           dopar::GroupRow{e.key, e.payload, e.aux});
                     }
                     off += q.keys.size();
                     if (!groups_match(res, q.expect)) return false;
                   }
                   return off == frame.size();
                 },
                 failed),
      "ms"};
}

/// Compaction and send-receive at the join_tpch frame size (|lineitems|).
void obl_probes(const Params& p, Runtime& rt, Metrics& m, uint64_t& failed) {
  std::mt19937_64 rng(p.seed ^ 0x0b1);
  const size_t n = p.tiny ? 1024 : 16384;
  const int reps = p.tiny ? 1 : 5;

  std::vector<Elem> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].key = i;
    rows[i].payload = i;
    if (rng() % 2) rows[i].flags = Elem::kFiller;
  }
  dopar::vec<Elem> a;
  m["obl.compact_ms"] = {
      time_calls("pb.compact", reps, [&] { a = rt.make_vec(rows); },
                 [&] { rt.compact(a.s()); },
                 [&] {
                   // Live rows first, in input order.
                   size_t j = 0;
                   for (const Elem& e : rows) {
                     if (e.flags & Elem::kFiller) continue;
                     if (a.underlying()[j++].payload != e.payload) {
                       return false;
                     }
                   }
                   return true;
                 },
                 failed),
      "ms"};

  // Sources hold the even keys below 2n; half the requests miss.
  std::vector<Elem> src(n), dst(n);
  for (size_t i = 0; i < n; ++i) {
    src[i].key = 2 * i;
    src[i].payload = 3 * i;
    dst[i].key = rng() % (2 * n);
  }
  std::shuffle(src.begin(), src.end(), rng);
  dopar::vec<Elem> sv, dv, res;
  m["obl.send_receive_ms"] = {
      time_calls("pb.send_receive", reps,
                 [&] {
                   sv = rt.make_vec(src);
                   dv = rt.make_vec(dst);
                   res = rt.make_vec<Elem>(n);
                 },
                 [&] { rt.send_receive(sv.s(), dv.s(), res.s()); },
                 [&] {
                   for (size_t i = 0; i < n; ++i) {
                     const Elem& r = res.underlying()[i];
                     const bool hit = dst[i].key % 2 == 0;
                     const bool found = !(r.flags & Elem::kNotFound);
                     if (found != hit ||
                         (hit && r.payload != 3 * (dst[i].key / 2))) {
                       return false;
                     }
                   }
                   return true;
                 },
                 failed),
      "ms"};
}

/// The dispatched raw swap kernel on 32-byte records, ns per record.
void oswap_probe(const Params& p, Metrics& m, uint64_t& failed) {
  constexpr size_t kRecs = 4096, kBytes = 32, kCalls = 64;
  std::mt19937_64 rng(p.seed ^ 0x05a9);
  std::vector<unsigned char> a(kRecs * kBytes), b(kRecs * kBytes),
      mask(kRecs);
  for (auto& x : a) x = static_cast<unsigned char>(rng());
  for (auto& x : b) x = static_cast<unsigned char>(rng());
  for (auto& x : mask) x = static_cast<unsigned char>(rng() % 2);
  const std::vector<unsigned char> a0 = a, b0 = b;
  std::vector<double> ns;
  for (int t = 0; t < (p.tiny ? 3 : 15); ++t) {
    const auto t0 = Clock::now();
    {
      Span s("pb.oswap_batch");
      for (size_t c = 0; c < kCalls; ++c) {
        dopar::obl::kernel::oswap_batch_raw(a.data(), b.data(), kBytes,
                                            kBytes, mask.data(), kRecs);
      }
    }
    ns.push_back(ms_between(t0, Clock::now()) * 1e6 / (kCalls * kRecs));
  }
  // An even number of identical swaps restores both arrays, unless the
  // trial count made it odd: then swapped records must have traded places.
  const bool odd = (ns.size() * kCalls) % 2 == 1;
  for (size_t r = 0; r < kRecs; ++r) {
    const bool swapped = odd && mask[r];
    const unsigned char* wa = (swapped ? b0 : a0).data() + r * kBytes;
    if (std::memcmp(a.data() + r * kBytes, wa, kBytes) != 0) {
      ++failed;
      break;
    }
  }
  m["obl.oswap_batch_ns_per_rec"] = {quantile(ns, 0.5), "ns"};
}

/// An empty fj::for_range over 2^16 on a standalone pool of nproc.
void forkjoin_probe(const Params& p, Metrics& m) {
  dopar::fj::WithPool pool(p.threads > 1 ? p.threads - 1 : 0);
  std::vector<double> us;
  for (int r = 0; r < (p.tiny ? 10 : 200); ++r) {
    const auto t0 = Clock::now();
    pool.run([] {
      dopar::fj::for_range(0, size_t{1} << 16, dopar::fj::kDefaultGrain,
                           [](size_t) {});
    });
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  m["fj.for_range_us"] = {quantile(us, 0.5), "us"};
}

}  // namespace

uint64_t run_layer_probes(const Params& p, Metrics& m) {
  uint64_t failed = 0;
  {
    auto rt = Runtime::builder().threads(p.threads).seed(p.seed).build();
    core_probes(p, rt, m, failed);
    rel_batch_probes(p, rt, m, failed);
    obl_probes(p, rt, m, failed);
  }
  oswap_probe(p, m, failed);
  forkjoin_probe(p, m);
  return failed;
}

// ---- analytic counts ---------------------------------------------------------

namespace {

constexpr uint64_t kSimM = 256 * 1024;  // ideal-cache size, bytes
constexpr uint64_t kSimB = 64;          // line size, bytes

struct Counts {
  uint64_t work = 0, span = 0, misses = 0;
  bool operator==(const Counts&) const = default;
};

Runtime sim_runtime(uint64_t seed) {
  return Runtime::builder().seed(seed).cache(kSimM, kSimB).build();
}

Counts counts_of(const Runtime& rt) {
  return Counts{rt.cost().work, rt.cost().span, rt.cache_misses()};
}

/// One pass: the three reduced-size calls on fresh analytic Runtimes.
std::array<Counts, 3> sim_once(const Params& p) {
  std::array<Counts, 3> out;
  std::mt19937_64 rng(p.seed ^ 0x5177);
  {
    auto rt = sim_runtime(p.seed);
    auto v = rt.make_vec(random_elems(p.tiny ? 256 : 4096, rng));
    rt.sort(v.s());
    out[0] = counts_of(rt);
  }
  {
    auto rt = sim_runtime(p.seed);
    const TpchTables t = make_tpch(p.tiny ? 64 : 256, p.tiny ? 256 : 1024,
                                   rng);
    (void)rt.equi_join(std::span<const Order>(t.orders), order_key,
                       std::span<const Item>(t.items), item_key,
                       dopar::JoinOptions{.output_bound = t.items.size(),
                                          .sort = {}});
    out[1] = counts_of(rt);
  }
  {
    auto rt = sim_runtime(p.seed);
    const size_t n = p.tiny ? 64 : 256;
    (void)rt.connected_components(n, two_communities(n, rng));
    out[2] = counts_of(rt);
  }
  return out;
}

}  // namespace

uint64_t run_sim_pass(const Params& p, Metrics& m) {
  const std::array<Counts, 3> a = sim_once(p);
  const std::array<Counts, 3> b = sim_once(p);
  static constexpr const char* kNames[3] = {"core.sort", "rel.equi_join",
                                            "apps.cc"};
  uint64_t differing = 0;
  for (size_t i = 0; i < 3; ++i) {
    const std::string base = kNames[i];
    m[base + "_work"] = {double(a[i].work), "count"};
    m[base + "_span"] = {double(a[i].span), "count"};
    m[base + "_misses"] = {double(a[i].misses), "count"};
    if (!(a[i] == b[i])) {
      std::fprintf(stderr, "%s: analytic counts differ between passes\n",
                   kNames[i]);
      ++differing;
    }
  }
  return differing;
}

}  // namespace pb
