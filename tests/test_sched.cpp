// Unit tests: the dopar::sched scheduler subsystem — concurrent pipelines
// on one Runtime's shared fork-join arena.
//
// What is pinned here:
//   * per-pipeline determinism under contention: every submitted job draws
//     from its own seed stream (indexed by submission order), so a
//     pipeline's outputs replay bit-for-bit whether the pipelines run one
//     at a time or all at once, on 1 thread or 4;
//   * genuine primitive overlap: two pipelines' *sorts* (not just their
//     glue) are in flight simultaneously on a default-built Runtime —
//     probed with a rendezvous backend;
//   * the Future-blocking rule: waiting from inside a job on a job that
//     has not started throws std::logic_error instead of deadlocking;
//   * wall-clock: with >= 4 hardware threads, two pipelines submitted
//     together finish faster than the same pipelines submitted and
//     joined one at a time.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dopar.hpp"
#include "insecure/graph.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using obl::Elem;

uint64_t fnv1a(uint64_t h, uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One pipeline: M = 3 seed-sensitive primitives whose outputs are folded
// into a digest. permute() is the sharpest probe — its output IS the
// seed-derived permutation — and the distinct-key sort pins payload
// routing; list_rank pins a Section 5 app end-to-end.
uint64_t pipeline_digest(Runtime& rt, uint64_t which) {
  constexpr size_t n = 512;
  uint64_t h = 0xcbf29ce484222325ULL;

  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = which * 131 + i * 7;  // distinct keys per pipeline
    in[i].payload = i;
  }
  vec<Elem> pin(in), pout(n);
  rt.permute(pin.s(), pout.s());
  for (size_t i = 0; i < n; ++i) h = fnv1a(h, pout.underlying()[i].key);

  vec<Elem> sv(in);
  rt.sort(sv.s());
  EXPECT_TRUE(test::sorted_by_key(sv.underlying()));
  for (size_t i = 0; i < n; ++i) h = fnv1a(h, sv.underlying()[i].payload);

  std::vector<uint64_t> succ(n);
  for (size_t i = 0; i < n; ++i) succ[i] = i + 1 == n ? i : i + 1;
  const auto rank = rt.list_rank(succ);
  for (size_t i = 0; i < n; ++i) h = fnv1a(h, rank[i]);
  return h;
}

/// Digests of N pipelines submitted to one Runtime. `concurrent` submits
/// them all before joining any; otherwise each is submitted and joined in
/// turn (no contention). Submission order — and therefore each pipeline's
/// seed stream — is identical either way.
std::vector<uint64_t> run_pipelines(unsigned threads, size_t npipes,
                                    bool concurrent) {
  auto rt = Runtime::builder().threads(threads).seed(424242).build();
  std::vector<uint64_t> digests(npipes);
  if (concurrent) {
    std::vector<Future<uint64_t>> futs;
    futs.reserve(npipes);
    for (size_t k = 0; k < npipes; ++k) {
      futs.push_back(
          rt.submit([&rt, k] { return pipeline_digest(rt, k + 1); }));
    }
    for (size_t k = 0; k < npipes; ++k) digests[k] = futs[k].get();
  } else {
    for (size_t k = 0; k < npipes; ++k) {
      digests[k] =
          rt.submit([&rt, k] { return pipeline_digest(rt, k + 1); }).get();
    }
  }
  return digests;
}

// ---- per-pipeline determinism -------------------------------------------

TEST(SchedDeterminism, DigestReplayUnderContention) {
  constexpr size_t npipes = 3;
  // Golden: pipelines one at a time on a serial runtime.
  const auto golden = run_pipelines(1, npipes, false);
  for (size_t k = 0; k < npipes; ++k) {
    EXPECT_NE(golden[k], 0u);
    for (size_t j = k + 1; j < npipes; ++j) {
      EXPECT_NE(golden[k], golden[j]);  // distinct streams per pipeline
    }
  }
  for (unsigned threads : {1u, 4u}) {
    for (bool concurrent : {false, true}) {
      EXPECT_EQ(run_pipelines(threads, npipes, concurrent), golden)
          << "threads=" << threads << " concurrent=" << concurrent;
    }
  }
}

TEST(SchedDeterminism, JobStreamsDoNotDisturbTheSynchronousStream) {
  // A runtime that interleaves submitted jobs with synchronous calls must
  // replay the synchronous calls exactly like a runtime that never
  // submitted anything: job seeds come from their own streams.
  constexpr size_t n = 256;
  auto in = test::random_elems(n, 9);
  auto sync_only = [&] {
    auto rt = Runtime::builder().seed(77).build();
    vec<Elem> a(in), b(n);
    rt.permute(a.s(), b.s());
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = b.underlying()[i].key;
    return keys;
  };
  auto with_jobs = [&] {
    auto rt = Runtime::builder().seed(77).build();
    // Draw plenty of job-stream seeds before the synchronous call.
    std::vector<Elem> jin = in;
    rt.submit([&rt, &jin] {
        vec<Elem> a(jin), b(jin.size());
        rt.permute(a.s(), b.s());
      }).get();
    vec<Elem> a(in), b(n);
    rt.permute(a.s(), b.s());
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = b.underlying()[i].key;
    return std::make_pair(keys, rt.seeds_drawn());
  };
  const auto golden = sync_only();
  const auto [keys, drawn] = with_jobs();
  EXPECT_EQ(keys, golden);
  EXPECT_EQ(drawn, 1u);  // the job drew from its own stream, not seq_
}

// ---- genuine primitive overlap (the tentpole's acceptance) ---------------

/// Rendezvous probe: one backend whose canonical sort takes a ticket from
/// an atomic counter, flags that caller's arrival and waits (bounded) for
/// the other caller's. Each pipeline calls backend_sort once, so the two
/// tickets are the two pipelines. On the shared arena both sorts are in
/// flight together, so both flags are up while both sorts run; a
/// runtime-wide execution lock would make that impossible.
struct RendezvousState {
  std::atomic<unsigned> tickets{0};
  std::atomic<bool> arrived[2] = {false, false};
  std::atomic<bool> saw[2] = {false, false};  // caller i saw caller 1 - i
};
RendezvousState& rv() {
  static RendezvousState s;
  return s;
}

class RendezvousBackend final : public SorterBackend {
 public:
  std::string_view name() const override { return "rendezvous"; }
  void sort(const slice<Elem>& a) const override {
    RendezvousState& s = rv();
    const unsigned me = s.tickets.fetch_add(1, std::memory_order_relaxed);
    if (me < 2) {
      s.arrived[me].store(true, std::memory_order_release);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (std::chrono::steady_clock::now() < deadline) {
        if (s.arrived[1 - me].load(std::memory_order_acquire)) {
          s.saw[me].store(true, std::memory_order_release);
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    default_backend().sort(a);
  }
  void sort(const slice<Elem>& a, LessFn<Elem> less) const override {
    default_backend().sort(a, less);
  }
  void sort(const slice<obl::BinItem<Elem>>& a) const override {
    default_backend().sort(a);
  }
  void sort(const slice<obl::BinItem<core::Routed>>& a) const override {
    default_backend().sort(a);
  }
};

TEST(SchedOverlap, ConcurrentPipelinesSortSimultaneously) {
  register_backend("rendezvous", [](const BackendConfig&) {
    return std::make_shared<const RendezvousBackend>();
  });
  auto rt =
      Runtime::builder().threads(4).seed(3).backend("rendezvous").build();
  auto run_sort = [&rt] {
    auto in = test::random_elems(512, 5);
    vec<Elem> v(in);
    rt.backend_sort(v.s());
    return test::sorted_by_key(v.underlying());
  };
  auto fa = rt.submit(run_sort);
  auto fb = rt.submit(run_sort);
  EXPECT_TRUE(fa.get());
  EXPECT_TRUE(fb.get());
  EXPECT_EQ(rv().tickets.load(), 2u);
  EXPECT_TRUE(rv().saw[0].load())
      << "the first pipeline never observed the second sorting concurrently";
  EXPECT_TRUE(rv().saw[1].load())
      << "the second pipeline never observed the first sorting concurrently";
}

// ---- correctness under sustained contention ------------------------------

TEST(SchedStress, ManyMixedPipelinesAndDirectCallsStayCorrect) {
  // A second Runtime on another backend, called from rt's jobs (declared
  // first so that it outlives them).
  auto odd_even =
      Runtime::builder().threads(2).seed(11).backend("odd_even").build();
  auto rt = Runtime::builder().threads(4).seed(11).build();

  // A small graph with a known answer for the CC/MSF pipelines.
  constexpr size_t gn = 64;
  std::vector<GEdge> edges;
  for (uint32_t v = 0; v < gn; ++v) {
    edges.push_back(GEdge{v, static_cast<uint32_t>((v + 1) % gn),
                          static_cast<uint64_t>(2 * v + 1)});
  }
  const auto cc_want = insecure::cc_oracle(gn, edges);
  const uint64_t msf_want = insecure::msf_weight_oracle(gn, edges);

  std::vector<Future<bool>> futs;
  for (int k = 0; k < 8; ++k) {
    if (k % 2 == 0) {
      futs.push_back(rt.submit([&, k] {
        auto labels = rt.connected_components(gn, edges);
        auto in = test::random_elems(700 + static_cast<size_t>(k), k);
        vec<Elem> v(in);
        rt.sort(v.s());
        return labels == cc_want && test::sorted_by_key(v.underlying()) &&
               test::same_keys(v.underlying(), in);
      }));
    } else {
      futs.push_back(rt.submit([&, k] {
        auto flags = rt.msf(gn, edges);
        uint64_t total = 0;
        for (size_t e = 0; e < edges.size(); ++e) {
          if (flags[e]) total += edges[e].w;
        }
        auto in = test::random_elems(400 + static_cast<size_t>(k), k);
        vec<Elem> v(in);
        odd_even.sort(v.s());
        return total == msf_want && test::sorted_by_key(v.underlying());
      }));
    }
  }
  // Direct calls from plain client threads race the submitted jobs.
  std::atomic<bool> direct_ok{true};
  std::thread t1([&] {
    auto in = test::random_elems(900, 77);
    vec<Elem> v(in);
    rt.sort(v.s());
    if (!test::sorted_by_key(v.underlying())) direct_ok = false;
  });
  std::thread t2([&] {
    vec<Elem> in(test::random_elems(600, 78)), out(600);
    rt.permute(in.s(), out.s());
    if (!test::same_keys(out.underlying(), test::random_elems(600, 78))) {
      direct_ok = false;
    }
  });
  for (auto& f : futs) EXPECT_TRUE(f.get());
  t1.join();
  t2.join();
  EXPECT_TRUE(direct_ok.load());
}

// ---- the Future-blocking rule --------------------------------------------

TEST(SchedFutureRule, WaitingOnAQueuedJobFromAJobThrows) {
  auto rt = Runtime::builder().seed(1).build();

  std::atomic<int> blockers_started{0};
  std::atomic<bool> release{false};
  std::atomic<bool> a_started{false};
  std::atomic<bool> fb_ready{false};
  std::atomic<Future<int>*> fb_ptr{nullptr};

  // Job A occupies one worker and will commit the forbidden wait.
  auto fa = rt.submit([&]() -> bool {
    a_started = true;
    while (!fb_ready.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
    try {
      (void)fb_ptr.load()->get();  // B is queued: must throw, not hang
      return false;
    } catch (const std::logic_error&) {
      return true;
    }
  });
  while (!a_started.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // Saturate the remaining job workers so B can only queue.
  std::vector<Future<int>> blockers;
  for (size_t k = 1; k < Runtime::kMaxSubmitWorkers; ++k) {
    blockers.push_back(rt.submit([&]() -> int {
      blockers_started.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
      return 0;
    }));
  }
  while (blockers_started.load() <
         static_cast<int>(Runtime::kMaxSubmitWorkers - 1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Future<int> fb = rt.submit([] { return 42; });  // queued: workers full
  fb_ptr = &fb;
  fb_ready = true;

  EXPECT_TRUE(fa.get()) << "wait on a queued job did not throw";
  release = true;
  for (auto& b : blockers) EXPECT_EQ(b.get(), 0);
  EXPECT_EQ(fb.get(), 42);  // the throw consumed nothing; B ran later

  // From outside any job the same wait is legal (and must not throw).
  auto fc = rt.submit([] { return 7; });
  EXPECT_EQ(fc.get(), 7);
}

TEST(SchedFutureRule, AwaitingAnEarlierSubmittedJobNeverThrows) {
  // The documented-legal pattern: a job may await a job submitted before
  // it (FIFO dequeue order guarantees the earlier job is running by the
  // time the later one is). Regression for the dequeue-to-mark race:
  // kRunning is stored under the queue lock, so this must never trip the
  // Future-blocking check — hammer the window to be sure.
  auto rt = Runtime::builder().seed(4).build();
  for (int iter = 0; iter < 200; ++iter) {
    auto fa = std::make_shared<Future<int>>(rt.submit([] { return 1; }));
    auto fb = rt.submit([fa] { return fa->get() + 1; });
    EXPECT_EQ(fb.get(), 2);
  }
}

// ---- drain-on-destroy touches live Runtime members -----------------------

TEST(SchedDrain, InstrumentedRuntimeDrainsQueuedJobsAgainstLiveMembers) {
  // Destroying a Runtime with jobs still queued drains them inside
  // ~Scheduler; the job bodies lock exec_m_ and use the session/backend,
  // so those members must outlive sched_ (regression for the member
  // declaration order — ASan flags the destroyed-mutex lock otherwise).
  std::atomic<int> ran{0};
  {
    auto rt = Runtime::builder().seed(2).trace().build();
    for (int k = 0; k < 6; ++k) {
      (void)rt.submit([&rt, &ran] {
        auto v = rt.make_vec<Elem>(test::random_elems(64, 1));
        rt.sort(v.s());
        ran.fetch_add(1);
      });
    }
  }  // most jobs are still queued here; the destructor runs them
  EXPECT_EQ(ran.load(), 6);
}

// ---- wall-clock: concurrent pipelines beat serialized ones ---------------

TEST(SchedWallClock, TwoPipelinesBeatSerializedExecution) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads for a meaningful overlap "
                    "measurement";
  }
  constexpr size_t n = 1 << 16;
  constexpr int sorts_per_pipe = 3;
  // Both pipelines submitted together, then joined (`concurrent`), or
  // each submitted and joined before the next (`serial`).
  auto wall_ms = [&](bool concurrent) {
    auto rt = Runtime::builder().threads(4).seed(5).build();
    auto pipeline = [&rt](uint64_t seed) {
      for (int s = 0; s < sorts_per_pipe; ++s) {
        auto in = test::random_elems(n, seed + static_cast<uint64_t>(s));
        vec<Elem> v(in);
        rt.sort(v.s());
      }
      return true;
    };
    const auto t0 = std::chrono::steady_clock::now();
    if (concurrent) {
      auto fa = rt.submit([&] { return pipeline(1); });
      auto fb = rt.submit([&] { return pipeline(2); });
      EXPECT_TRUE(fa.get());
      EXPECT_TRUE(fb.get());
    } else {
      EXPECT_TRUE(rt.submit([&] { return pipeline(1); }).get());
      EXPECT_TRUE(rt.submit([&] { return pipeline(2); }).get());
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Timing under load is noisy: give the overlap three chances to show
  // (it shows on the first on an idle machine).
  bool beat = false;
  double serial = 0, concurrent = 0;
  for (int attempt = 0; attempt < 3 && !beat; ++attempt) {
    serial = wall_ms(false);
    concurrent = wall_ms(true);
    beat = concurrent < serial;
  }
  EXPECT_TRUE(beat) << "concurrent " << concurrent << " ms vs serial "
                    << serial
                    << " ms: concurrent pipelines did not beat serialized "
                       "execution";
}

}  // namespace
}  // namespace dopar
