#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  const double pos = std::ceil(q * static_cast<double>(n));
  const std::size_t rank = pos < 1.0 ? 1 : static_cast<std::size_t>(pos);
  return values[std::min(rank, n) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double pos = std::ceil(q * static_cast<double>(n));
  const std::size_t rank =
      pos < 1.0 ? 1 : std::min(n, static_cast<std::size_t>(pos));
  return n - rank;
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::int32_t SpanLog::add(std::string name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::uint64_t request) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) * 1e-6);
  }
  return out;
}

std::vector<double> SpanLog::self_times_ms(const std::string& name) const {
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(static_cast<double>(self[i]) * 1e-6);
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%d,%llu\n", s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Direct children's intervals, clipped to their parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].duration_ns() - union_ns);
  }
  return self;
}

namespace {

std::vector<std::int64_t> sorted_uniform_us(std::mt19937_64& rng, std::size_t n,
                                            std::int64_t lo, std::int64_t len) {
  std::uniform_real_distribution<double> u(0.0, static_cast<double>(len));
  std::vector<std::int64_t> out(n);
  for (auto& t : out) t = lo + static_cast<std::int64_t>(u(rng));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<std::int64_t> onoff_schedule_us(std::uint64_t seed,
                                            std::int64_t duration_us,
                                            std::int64_t on_us,
                                            std::int64_t off_us,
                                            std::size_t per_burst) {
  std::mt19937_64 rng(stream_seed(seed, 0x5c4e0002));
  std::vector<std::int64_t> out;
  const std::int64_t period = on_us + off_us;
  if (period <= 0 || on_us <= 0) return out;
  for (std::int64_t start = 0; start + period <= duration_us; start += period) {
    const auto burst = sorted_uniform_us(rng, per_burst, start, on_us);
    out.insert(out.end(), burst.begin(), burst.end());
  }
  return out;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<RoundSpec> plan_rounds(std::uint64_t seed, std::size_t n) {
  std::vector<RoundSpec> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    RoundSpec& r = out[i];
    r.band = static_cast<Band>(i % 3);
    const std::size_t kind = (i / 3) % 6;
    r.adversary = kind == 4   ? Adversary::kBlockedAp
                  : kind == 5 ? Adversary::kWrongPeak
                              : Adversary::kNone;
  }
  std::mt19937_64 rng(stream_seed(seed, 0x5c4e0003));
  std::shuffle(out.begin(), out.end(), rng);
  for (std::size_t i = 0; i < n; ++i) out[i].seed = stream_seed(seed, i);
  return out;
}

}  // namespace perfbench
