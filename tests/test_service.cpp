// Serving-layer tests: coalescing determinism (byte-identical solo vs
// coalesced outputs, trace-digest replay), admission control and
// backpressure, a deep queue under sustained load, drain-on-destroy, and
// the configurable job-worker cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "dopar.hpp"

namespace {

using namespace std::chrono_literals;

dopar::Runtime make_rt(uint64_t seed = 42) {
  return dopar::Runtime::builder().threads(2).seed(seed).build();
}

std::vector<uint64_t> request_keys(uint64_t tag, size_t n,
                                   uint64_t bound = 1000) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = dopar::util::hash_rand(tag, i) % bound;
  }
  return keys;
}

struct Rec {
  uint64_t key;
  uint64_t tag;  // distinguishes records with equal keys
  bool operator==(const Rec&) const = default;
};

std::vector<Rec> request_recs(uint64_t tag, size_t n, uint64_t bound = 50) {
  // Small key bound: lots of duplicate keys, so the tie order is the
  // interesting (engine-visible) part of the output.
  std::vector<Rec> recs(n);
  for (size_t i = 0; i < n; ++i) {
    recs[i].key = dopar::util::hash_rand(tag, i) % bound;
    recs[i].tag = i;
  }
  return recs;
}

// ---- coalescing correctness & determinism -------------------------------

TEST(Service, CoalescedMatchesSoloByteForByte) {
  // The same request must produce the same bytes whether it is served
  // alone (a one-slot batch) or inside any coalesced batch (other slots,
  // so other network positions for its equal keys) — tie order included.
  constexpr uint64_t kSvcSeed = 99;
  constexpr size_t kN = 100;  // non-power-of-two exercises batch padding

  std::vector<std::vector<Rec>> solo_out;
  {
    auto rt = make_rt(1);
    dopar::svc::Options o;
    o.seed = kSvcSeed;
    o.window = 10min;  // only flush dispatches
    o.max_inflight_batches = 1;
    dopar::Service s(rt, o);
    for (uint64_t r = 0; r < 6; ++r) {
      auto f = s.sort_records(/*tenant=*/r, request_recs(r, kN),
                              [](const Rec& x) { return x.key; });
      s.flush();  // one request queued -> solo batch
      solo_out.push_back(f.get());
    }
  }

  // Same six requests, one coalesced batch, different runtime seed and a
  // batch of unrelated extra requests riding along.
  std::vector<std::vector<Rec>> coal_out;
  {
    auto rt = make_rt(2);
    dopar::svc::Options o;
    o.seed = kSvcSeed;
    o.window = 10min;
    o.max_inflight_batches = 1;
    dopar::Service s(rt, o);
    std::vector<dopar::Future<std::vector<Rec>>> futs;
    for (uint64_t r = 0; r < 6; ++r) {
      futs.push_back(s.sort_records(r, request_recs(r, kN),
                                    [](const Rec& x) { return x.key; }));
    }
    for (uint64_t r = 100; r < 103; ++r) {  // extra batch-mates
      futs.push_back(s.sort_records(r, request_recs(r, kN),
                                    [](const Rec& x) { return x.key; }));
    }
    s.flush();
    for (size_t r = 0; r < 6; ++r) coal_out.push_back(futs[r].get());
    for (size_t r = 6; r < futs.size(); ++r) (void)futs[r].get();
    EXPECT_GE(s.stats().coalesced_requests, 9u);
  }

  for (size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(solo_out[r], coal_out[r]) << "request " << r;
    EXPECT_TRUE(std::is_sorted(
        coal_out[r].begin(), coal_out[r].end(),
        [](const Rec& a, const Rec& b) { return a.key < b.key; }));
  }
}

TEST(Service, SortMatchesRuntimeSortKeys) {
  auto rt = make_rt();
  dopar::Service s(rt);
  const std::vector<uint64_t> keys = request_keys(7, 500);

  auto f = s.sort(0, keys);
  const std::vector<uint64_t> got = f.get();

  std::vector<uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(Service, TraceDigestReplays) {
  // Two instrumented Services with identical configuration and request
  // sequence replay the identical memory-address trace — the digest-level
  // proof that serving is deterministic end to end.
  auto run = [](uint64_t) {
    auto rt = dopar::Runtime::builder().trace().seed(5).build();
    dopar::svc::Options o;
    o.seed = 17;
    o.window = 10min;
    o.max_inflight_batches = 1;
    std::vector<std::vector<uint64_t>> results;
    {
      dopar::Service s(rt, o);
      std::vector<dopar::Future<std::vector<uint64_t>>> futs;
      for (uint64_t r = 0; r < 5; ++r) {
        futs.push_back(s.sort(r, request_keys(r, 64)));
      }
      s.flush();
      for (auto& f : futs) results.push_back(f.get());
    }
    return std::make_pair(rt.trace_digest(), std::move(results));
  };
  const auto [d1, r1] = run(0);
  const auto [d2, r2] = run(1);
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(r1, r2);
}

TEST(Service, MixedSizesAndTenantsInOneBatch) {
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = 10min;
  dopar::Service s(rt, o);

  const size_t sizes[] = {1, 3, 64, 100, 257, 1024};
  std::vector<std::vector<uint64_t>> inputs;
  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  for (size_t i = 0; i < std::size(sizes); ++i) {
    inputs.push_back(request_keys(i, sizes[i]));
    futs.push_back(s.sort(/*tenant=*/i % 3, inputs.back()));
  }
  s.flush();
  for (size_t i = 0; i < futs.size(); ++i) {
    std::vector<uint64_t> want = inputs[i];
    std::sort(want.begin(), want.end());
    EXPECT_EQ(futs[i].get(), want) << "request " << i;
  }
  EXPECT_GE(s.stats().coalesced_requests, std::size(sizes));
}

TEST(Service, LoneSortIsAOneSlotNetworkBatch) {
  // A lone sort runs the one sort plan as a one-slot batch: exactly
  // Runtime::backend_sort over the request's (key, index) rows, with the
  // same analytic cost and the same memory trace.
  constexpr size_t kN = 100;
  const std::vector<uint64_t> keys = request_keys(11, kN);
  const auto build = [] {
    return dopar::Runtime::builder().trace().seed(5).build();
  };

  auto rt = build();
  std::vector<uint64_t> got;
  {
    dopar::svc::Options o;
    o.window = 10min;  // only flush dispatches
    dopar::Service s(rt, o);
    auto f = s.sort(0, keys);
    s.flush();
    got = f.get();
    EXPECT_EQ(s.stats().solo_requests, 1u);
  }

  auto ref = build();
  std::vector<dopar::Elem> rows(kN);
  for (size_t i = 0; i < kN; ++i) {
    rows[i].key = keys[i];
    rows[i].payload = i;
  }
  auto v = ref.make_vec(std::move(rows));
  ref.backend_sort(v.s());

  std::vector<uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_NE(ref.cost().work, 0u);
  EXPECT_EQ(rt.cost().work, ref.cost().work);
  EXPECT_EQ(rt.cost().span, ref.cost().span);
  EXPECT_EQ(rt.trace_digest(), ref.trace_digest());
}

TEST(Service, LargeKeysRunAsOneSlotBatch) {
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = 10min;
  dopar::Service s(rt, o);

  // Keys >= 2^48 cannot carry a slot tag; the request must still be
  // served (as a one-slot batch, which needs no tag) even with
  // coalescible traffic queued around it — up to the largest legal key.
  std::vector<uint64_t> big(40);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = (uint64_t{1} << 48) + 1000 - i;
  }
  const std::vector<uint64_t> top = {5, ~uint64_t{1}, uint64_t{1} << 63,
                                     ~uint64_t{1}, 0};  // 2^64-2 twice
  auto f_small1 = s.sort(0, request_keys(1, 32));
  auto f_big = s.sort(1, big);
  auto f_top = s.sort(3, top);
  auto f_small2 = s.sort(2, request_keys(2, 32));
  s.flush();

  std::vector<uint64_t> want = big;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(f_big.get(), want);
  std::vector<uint64_t> want_top = top;
  std::sort(want_top.begin(), want_top.end());
  EXPECT_EQ(f_top.get(), want_top);
  (void)f_small1.get();
  (void)f_small2.get();
  const auto st = s.stats();
  EXPECT_GE(st.solo_requests, 1u);
  EXPECT_GE(st.coalesced_requests, 2u);
}

TEST(Service, EmptyRequestCompletesImmediately) {
  auto rt = make_rt();
  dopar::Service s(rt);
  auto f = s.sort(0, {});
  EXPECT_TRUE(f.get().empty());
}

TEST(Service, SentinelKeyRejected) {
  auto rt = make_rt();
  dopar::Service s(rt);
  EXPECT_THROW((void)s.sort(0, {1, ~uint64_t{0}, 2}), std::invalid_argument);
}

// ---- admission control & backpressure -----------------------------------

TEST(Service, TrySortRejectsWhenFullAndSubmitTimesOut) {
  auto rt = make_rt();
  dopar::svc::Options o;
  o.queue_limit = 2;
  o.window = 10min;  // nothing dispatches until flush
  o.max_inflight_batches = 1;
  o.submit_timeout = 50ms;
  dopar::Service s(rt, o);

  auto f1 = s.try_sort(0, request_keys(1, 16));
  auto f2 = s.try_sort(0, request_keys(2, 16));
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());

  // Queue full: non-blocking submit rejects...
  auto f3 = s.try_sort(0, request_keys(3, 16));
  EXPECT_FALSE(f3.has_value());
  // ...and the blocking submit times out.
  EXPECT_THROW((void)s.sort(0, request_keys(4, 16)), dopar::svc::SubmitTimeout);

  const auto st = s.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.timed_out, 1u);
  EXPECT_EQ(st.accepted, 2u);

  // Backpressure releases once the queue drains.
  s.flush();
  EXPECT_EQ(f1->get().size(), 16u);
  EXPECT_EQ(f2->get().size(), 16u);
  auto f5 = s.sort(0, request_keys(5, 16));
  s.flush();
  EXPECT_EQ(f5.get().size(), 16u);
}

// ---- serving-layer bug-sweep regressions --------------------------------

TEST(Service, OversizeRequestDoesNotTripThresholds) {
  // Regression: the elems threshold must count only COALESCIBLE rows. An
  // oversize (solo-bound) request parked mid-queue used to inflate the
  // shared counter and fire premature, undersized batches for the
  // coalescible traffic around it.
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = 10min;
  o.max_batch_elems = 1024;
  o.max_inflight_batches = 1;
  dopar::Service s(rt, o);

  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  for (uint64_t r = 0; r < 4; ++r) {
    futs.push_back(s.sort(r, request_keys(r, 64)));
  }
  // 1500 > max_batch_elems: uncoalescible, must not count toward ripeness.
  futs.push_back(s.sort(9, request_keys(9, 1500)));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(s.stats().batches, 0u) << "premature batch fired";

  for (uint64_t r = 4; r < 8; ++r) {
    futs.push_back(s.sort(r, request_keys(r, 64)));
  }
  s.flush();
  for (auto& f : futs) (void)f.get();

  const auto st = s.stats();
  // One batch of all 8 smalls (bucket 3: sizes 8..15), one solo batch for
  // the oversize request (bucket 0).
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.batch_size_hist[3], 1u);
  EXPECT_EQ(st.batch_size_hist[0], 1u);
  EXPECT_EQ(st.kinds[size_t(dopar::Service::Kind::Sort)].solo_requests, 1u);
  EXPECT_EQ(st.kinds[size_t(dopar::Service::Kind::Sort)].coalesced_requests,
            8u);
}

TEST(Service, FlushWhileInflightGateParkedIsNotLost) {
  // Regression: a flush() issued while the dispatcher was parked at the
  // inflight-slot gate could be eaten by a stale flush-flag reset,
  // leaving the flushed request to wait out the full window. With a
  // 10-minute window, a lost flush turns into a test timeout.
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = 10min;
  o.max_inflight_batches = 1;
  dopar::Service s(rt, o);

  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  for (uint64_t r = 0; r < 8; ++r) {
    // Each flush lands while the previous batch is likely still in
    // flight, i.e. while the dispatcher sits at the gate.
    futs.push_back(s.sort(r, request_keys(r, 2048)));
    s.flush();
  }
  for (auto& f : futs) {
    EXPECT_EQ(f.get().size(), 2048u);
  }
  EXPECT_GE(s.stats().batches, 1u);
}

// ---- deep queue under load -----------------------------------------------

TEST(Service, DeepQueueUnderLoadCompletesEveryFuture) {
  auto rt = dopar::Runtime::builder()
                .threads(2)
                .seed(3)
                .max_job_workers(4)
                .build();

  dopar::svc::Options o;
  o.window = 50ms;
  o.max_batch_requests = 4;  // small batches keep the queue deep
  o.max_inflight_batches = 2;
  // Oracles first: the submit loop below must stay tight to keep the
  // queue deep.
  std::vector<std::vector<uint64_t>> want;
  for (uint64_t r = 0; r < 64; ++r) {
    want.push_back(request_keys(r, 128));
    std::sort(want.back().begin(), want.back().end());
  }
  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  {
    dopar::Service s(rt, o);
    for (uint64_t r = 0; r < 64; ++r) {
      futs.push_back(s.sort(r % 4, request_keys(r, 128)));
    }
    for (size_t r = 0; r < futs.size(); ++r) {
      EXPECT_EQ(futs[r].get(), want[r]) << "request " << r;
    }
    const auto st = s.stats();
    // 64 requests in <= 4-request batches force a deep queue.
    EXPECT_GE(st.queue_depth_high_water, 16u);
    EXPECT_GE(st.batches, 16u);
  }
}

// ---- lifecycle ----------------------------------------------------------

TEST(Service, DrainOnDestroyCompletesEveryFuture) {
  auto rt = make_rt();
  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  {
    dopar::svc::Options o;
    o.window = 10min;  // destruction, not the window, must dispatch these
    dopar::Service s(rt, o);
    for (uint64_t r = 0; r < 8; ++r) {
      futs.push_back(s.sort(r, request_keys(r, 64)));
    }
  }  // ~Service: drain
  for (size_t r = 0; r < futs.size(); ++r) {
    std::vector<uint64_t> want = request_keys(r, 64);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(futs[r].get(), want);
  }
}

TEST(Service, StatsAccounting) {
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = 10min;
  dopar::Service s(rt, o);
  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  for (uint64_t r = 0; r < 5; ++r) {
    futs.push_back(s.sort(0, request_keys(r, 32)));
  }
  s.flush();
  for (auto& f : futs) (void)f.get();
  const auto st = s.stats();
  EXPECT_EQ(st.accepted, 5u);
  EXPECT_EQ(st.coalesced_requests + st.solo_requests, 5u);
  EXPECT_GE(st.queue_depth_high_water, 1u);
  EXPECT_GE(st.inflight_high_water, 1u);
  uint64_t hist_total = 0;
  for (uint64_t c : st.batch_size_hist) hist_total += c;
  EXPECT_EQ(hist_total, st.batches);
}

// ---- Runtime::Builder::max_job_workers (satellite) ----------------------

TEST(Runtime, MaxJobWorkersCapsConcurrency) {
  auto rt = dopar::Runtime::builder().threads(1).max_job_workers(1).build();
  EXPECT_EQ(rt.submit_workers(), 1u);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<dopar::Future<int>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(rt.submit([&] {
      const int now = running.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(20ms);
      running.fetch_sub(1);
      return now;
    }));
  }
  for (auto& f : futs) (void)f.get();
  EXPECT_EQ(peak.load(), 1);
}

TEST(Runtime, MaxJobWorkersWidensPool) {
  auto rt = dopar::Runtime::builder().threads(1).max_job_workers(6).build();
  EXPECT_EQ(rt.submit_workers(), 6u);

  // 6 jobs that rendezvous: only possible if all run concurrently.
  std::atomic<int> arrived{0};
  std::vector<dopar::Future<int>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(rt.submit([&] {
      arrived.fetch_add(1);
      while (arrived.load() < 6) std::this_thread::yield();
      return 1;
    }));
  }
  int total = 0;
  for (auto& f : futs) total += f.get();
  EXPECT_EQ(total, 6);
}

}  // namespace
