// Pure helpers of the repo benchmark: the percentile rule, span
// self-time arithmetic, the seeded on/off arrival schedule, and the
// seeded plan of distinct measurement rounds. Nothing here touches the
// ROArray libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- stats

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample (the
/// smallest for q <= 0). Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The percentile rule: q is reportable from n samples when at least
/// kMinTailSamples lie beyond it (p90 needs n >= 100).
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);

// ---------------------------------------------------------------- spans

/// One timed interval recorded by bench code around a public call.
/// parent < 0 marks a root; request ties a span to one request or
/// round (spans of the same request share it).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store. Not thread-safe: worker threads time into
/// their own slots and the submitting thread appends the spans.
class SpanLog {
 public:
  /// Appends a span and returns its index (the handle children name
  /// as their parent).
  std::int32_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t request);

  /// Durations of every span with this name, in ms.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Self times of every span with this name, in ms.
  [[nodiscard]] std::vector<double> self_times_ms(const std::string& name) const;

  /// Writes one CSV line per span (name,start_ns,end_ns,parent,request).
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it covered
/// by its direct children. Children are clipped to the parent's
/// interval and overlapping children (concurrent work) count once, so
/// self time is never negative. Grandchildren only reduce their own
/// parent's self time.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

// ------------------------------------------------------------ schedules

/// On/off bursts: every period of (on_us + off_us) opens with an
/// on-window holding `per_burst` arrivals drawn as sorted uniforms on
/// the window (Poisson conditioned on its count), then stays silent. Whole periods only; the count is periods * per_burst.
[[nodiscard]] std::vector<std::int64_t> onoff_schedule_us(
    std::uint64_t seed, std::int64_t duration_us, std::int64_t on_us,
    std::int64_t off_us, std::size_t per_burst);

// ---------------------------------------------------------- round plan

/// SNR band of a round, matching sim::SnrBand's order.
enum class Band : int { kHigh = 0, kMedium = 1, kLow = 2 };

/// Adversarial NLoS corruption carried by a round.
enum class Adversary : int { kNone = 0, kBlockedAp = 1, kWrongPeak = 2 };

/// One distinct measurement round: its own RNG seed (client location
/// and channel draws), SNR band and adversary.
struct RoundSpec {
  std::uint64_t seed = 0;
  Band band = Band::kMedium;
  Adversary adversary = Adversary::kNone;

  [[nodiscard]] bool operator==(const RoundSpec&) const = default;
};

/// splitmix64 of (seed, index): independent per-round streams.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index);

/// The seeded plan of n distinct rounds. The mix is exact: SNR bands
/// in equal thirds and, within each band, one round in six with a
/// blocked AP and one in six with a wrong peak (the kinds repeat in an
/// 18-round cycle). The seed shuffles their order and draws every
/// round's own seed.
[[nodiscard]] std::vector<RoundSpec> plan_rounds(std::uint64_t seed, std::size_t n);

}  // namespace perfbench
