// Concurrency stress tests for the runtime layer: contended
// OperatorCache access, concurrent top-level ThreadPool submitters, and
// pool shutdown while a job is in flight. These are the cases the
// ThreadSanitizer preset (build-tsan) exists to instrument — each test
// creates real cross-thread contention on the mutex-guarded state that
// the thread-safety annotations describe statically. They also run
// under the plain and ASan presets (label: runtime).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace roarray::runtime {
namespace {

using linalg::index_t;

// Small grids so entry construction (power iteration + row gram) is
// cheap enough to hammer, but not trivial — a first-touch build still
// takes long enough for other threads to pile onto the lock.
dsp::Grid aoa_grid_for(int which) { return {0.0, 180.0, 9 + which}; }
dsp::Grid toa_grid_for(int which) { return {0.0, 400e-9, 4 + which}; }

TEST(ConcurrencyCache, ContendedGetYieldsOneInstancePerKey) {
  OperatorCache cache;
  const dsp::ArrayConfig arr;
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  constexpr int kKeys = 3;

  // Every thread records the entry pointer it saw for each key; all
  // threads must agree, and the cache must hold exactly kKeys entries.
  std::vector<std::vector<const CachedOperator*>> seen(
      kThreads, std::vector<const CachedOperator*>(kKeys, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int which = (t + i) % kKeys;
        const auto entry =
            cache.get(aoa_grid_for(which), toa_grid_for(which), arr);
        ASSERT_NE(entry, nullptr);
        // Entries are immutable once published: reading a derived field
        // from many threads at once must be race-free.
        ASSERT_GT(entry->norm_sq, 0.0);
        if (seen[t][which] == nullptr) {
          seen[t][which] = entry.get();
        } else {
          ASSERT_EQ(seen[t][which], entry.get()) << "thread " << t;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][k], seen[0][k]) << "key " << k;
    }
  }
}

TEST(ConcurrencyCache, GetRacingClearKeepsHandedOutEntriesAlive) {
  OperatorCache cache;
  const dsp::ArrayConfig arr;
  std::atomic<bool> stop{false};
  std::atomic<int> gets{0};

  std::vector<std::thread> getters;
  for (int t = 0; t < 4; ++t) {
    getters.emplace_back([&] {
      while (!stop.load()) {
        const auto entry = cache.get(aoa_grid_for(0), toa_grid_for(0), arr);
        // The shared_ptr must keep the entry valid even if clear() just
        // dropped it from the map.
        ASSERT_GT(entry->norm_sq, 0.0);
        gets.fetch_add(1);
      }
    });
  }
  std::thread clearer([&] {
    while (gets.load() < 200) {
      cache.clear();
      std::this_thread::yield();
    }
  });
  clearer.join();
  stop.store(true);
  for (auto& th : getters) th.join();
  EXPECT_GE(gets.load(), 200);
}

TEST(ConcurrencyPool, ConcurrentTopLevelSubmittersEachRunEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr index_t kN = 300;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(static_cast<std::size_t>(kN));
  }
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < 5; ++round) {
        pool.parallel_for(kN, [&, s](index_t i) {
          hits[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]
              .fetch_add(1);
        });
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (int s = 0; s < kSubmitters; ++s) {
    for (index_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]
                    .load(),
                5)
          << "submitter " << s << " index " << i;
    }
  }
}

TEST(ConcurrencyPool, ExceptionUnderContentionPropagatesToItsSubmitterOnly) {
  ThreadPool pool(4);
  std::atomic<int> ok_done{0};
  std::thread ok_submitter([&] {
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(64, [&](index_t) { ok_done.fetch_add(1); });
    }
  });
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](index_t i) {
                                     if (i == 13) throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
  }
  ok_submitter.join();
  EXPECT_EQ(ok_done.load(), 20 * 64);
}

TEST(ConcurrencyPool, DestructorDrainsJobInFlight) {
  for (int round = 0; round < 10; ++round) {
    auto pool = std::make_unique<ThreadPool>(4);
    constexpr index_t kN = 64;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
    std::atomic<bool> started{false};
    std::thread submitter([&] {
      pool->parallel_for(kN, [&](index_t i) {
        started.store(true);
        // Slow bodies so destruction overlaps the job, not just its tail.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
    });
    while (!started.load()) std::this_thread::yield();
    // Shutdown-while-busy: the destructor must block until the in-flight
    // parallel_for has finished (drain via call_mutex_), so the submitter
    // never touches freed pool state.
    pool.reset();
    submitter.join();
    for (index_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " index " << i;
    }
  }
}

TEST(ConcurrencyPool, RangeVariantUnderConcurrentSubmitters) {
  ThreadPool pool(3);
  std::vector<std::thread> submitters;
  std::vector<std::atomic<long>> sums(4);
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < 10; ++round) {
        pool.parallel_for_range(101, 7, [&, s](index_t begin, index_t end) {
          long acc = 0;
          for (index_t i = begin; i < end; ++i) acc += i;
          sums[static_cast<std::size_t>(s)].fetch_add(acc);
        });
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (auto& s : sums) EXPECT_EQ(s.load(), 10L * (100 * 101 / 2));
}

}  // namespace
}  // namespace roarray::runtime
