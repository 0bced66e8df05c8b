// Tests of the benchmark's own helpers: the percentile rule, span
// self-time arithmetic, and seed determinism of the schedules and the
// generated round set.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "helpers.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_FALSE(percentile_supported(1000, 0.995));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  // The highest reportable percentile of n samples is (n - 10) / n.
  for (std::size_t n : {11u, 57u, 100u, 250u, 1000u}) {
    const double q = static_cast<double>(n - 10) / static_cast<double>(n);
    EXPECT_TRUE(percentile_supported(n, q)) << n;
    EXPECT_FALSE(percentile_supported(n, q + 1.0 / static_cast<double>(n))) << n;
  }
  EXPECT_FALSE(percentile_supported(10, 0.0));
}

TEST(Spans, SelfTimeNested) {
  // root [0, 100] > child [10, 40] > grandchild [20, 30]; child [50, 60].
  std::vector<Span> s = {{"root", 0, 100, -1, 1},
                         {"a", 10, 40, 0, 1},
                         {"a.inner", 20, 30, 1, 1},
                         {"b", 50, 60, 0, 1}};
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - 30 - 10);  // the grandchild does not count twice
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(Spans, SelfTimeOverlappingChildren) {
  // Concurrent children [10, 50] and [30, 70] cover [10, 70] once; a
  // child sticking out of its parent is clipped.
  std::vector<Span> s = {{"batch", 0, 100, -1, 1},
                         {"est", 10, 50, 0, 1},
                         {"est", 30, 70, 0, 1},
                         {"late", 90, 130, 0, 1}};
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[3], 40);
  // Children covering the parent entirely leave zero, never negative.
  std::vector<Span> full = {{"p", 0, 10, -1, 1}, {"c", -5, 20, 0, 1}};
  EXPECT_EQ(self_times_ns(full)[0], 0);
}

TEST(Spans, LogAggregates) {
  SpanLog log;
  const auto root = log.add("core.estimate", 0, 4'000'000, -1, 7);
  log.add("sparse.solve", 1'000'000, 3'000'000, root, 7);
  EXPECT_EQ(log.durations_ms("core.estimate"), std::vector<double>{4.0});
  EXPECT_EQ(log.self_times_ms("core.estimate"), std::vector<double>{2.0});
  EXPECT_TRUE(log.durations_ms("missing").empty());
}

TEST(Schedule, OnOffBurstsStayInTheirWindows) {
  const auto a = onoff_schedule_us(3, 10'000'000, 400'000, 600'000, 25);
  EXPECT_EQ(a, onoff_schedule_us(3, 10'000'000, 400'000, 600'000, 25));
  EXPECT_NE(a, onoff_schedule_us(4, 10'000'000, 400'000, 600'000, 25));
  ASSERT_EQ(a.size(), 10u * 25u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t period = static_cast<std::int64_t>(i / 25);
    EXPECT_GE(a[i], period * 1'000'000);
    EXPECT_LT(a[i], period * 1'000'000 + 400'000);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(RoundPlan, SameSeedSameRounds) {
  const auto a = plan_rounds(5, 36);
  EXPECT_EQ(a, plan_rounds(5, 36));
  EXPECT_NE(a, plan_rounds(6, 36));
  std::set<std::uint64_t> seeds;
  int blocked = 0, wrong = 0, low = 0;
  for (const RoundSpec& r : a) {
    seeds.insert(r.seed);
    blocked += r.adversary == Adversary::kBlockedAp;
    wrong += r.adversary == Adversary::kWrongPeak;
    low += r.band == Band::kLow;
  }
  EXPECT_EQ(seeds.size(), a.size());  // distinct rounds
  EXPECT_EQ(blocked, 6);              // exact shares: 1/6, 1/6, 1/3
  EXPECT_EQ(wrong, 6);
  EXPECT_EQ(low, 12);
}

bool same_rounds(const WorkloadInput& a, const WorkloadInput& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.truth[r].x != b.truth[r].x || a.truth[r].y != b.truth[r].y) return false;
    const auto& x = a.rounds[r].bursts;
    const auto& y = b.rounds[r].bursts;
    if (x.size() != y.size()) return false;
    for (std::size_t ap = 0; ap < x.size(); ++ap) {
      if (x[ap].size() != y[ap].size()) return false;
      for (std::size_t p = 0; p < x[ap].size(); ++p) {
        const auto& m = x[ap][p];
        const auto& n = y[ap][p];
        if (m.rows() != n.rows() || m.cols() != n.cols()) return false;
        for (roarray::linalg::index_t i = 0; i < m.rows(); ++i) {
          for (roarray::linalg::index_t j = 0; j < m.cols(); ++j) {
            if (m(i, j) != n(i, j)) return false;
          }
        }
      }
    }
  }
  return true;
}

TEST(RoundPlan, SameSeedSameGeneratedCsi) {
  // 40 rounds span two trace chunks.
  const auto plan = plan_rounds(9, 40);
  const WorkloadInput a = make_input(plan, 3);
  ASSERT_EQ(a.rounds.size(), 40u);
  ASSERT_EQ(a.truth.size(), 40u);
  EXPECT_TRUE(same_rounds(a, make_input(plan, 3)));
  EXPECT_FALSE(same_rounds(a, make_input(plan_rounds(10, 40), 3)));
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].client_id, r);
    EXPECT_EQ(a.rounds[r].bursts.size(), 6u);
    EXPECT_EQ(a.rounds[r].bursts[0].size(), 3u);
  }
}

}  // namespace
}  // namespace perfbench
