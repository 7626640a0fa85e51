// Statistics the benchmark computes itself: sample quantiles and the self
// time of trace spans. Kept free of engine headers so stats_test.cc can
// check them in isolation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Latency histogram with fine, bounded-width buckets: values below
/// 2^kSubBits are counted exactly, and each higher power-of-two octave is
/// cut into 2^kSubBits equal buckets, so a bucket is at most 1/128 of its
/// values wide. Memory is fixed (the run's peak RSS must not depend on how
/// many samples it took), and Record is a few instructions.
class FineHistogram {
 public:
  static constexpr uint32_t kSubBits = 7;
  static constexpr uint32_t kSub = 1u << kSubBits;
  static constexpr uint32_t kBuckets = (64 - kSubBits + 1) * kSub;

  FineHistogram() : counts_(kBuckets, 0) {}

  static uint32_t Index(uint64_t v) {
    if (v < kSub) return static_cast<uint32_t>(v);
    const uint32_t k = 63 - static_cast<uint32_t>(__builtin_clzll(v));
    const uint32_t sub =
        static_cast<uint32_t>(v >> (k - kSubBits)) & (kSub - 1);
    return (k - kSubBits + 1) * kSub + sub;
  }
  static uint64_t LowerBound(uint32_t i) {
    if (i < kSub) return i;
    const uint32_t k = i / kSub + kSubBits - 1;
    return static_cast<uint64_t>(kSub + i % kSub) << (k - kSubBits);
  }
  static uint64_t Width(uint32_t i) {
    return i < kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
  }
  void Merge(const FineHistogram& other) {
    for (uint32_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  /// Nearest-rank quantile (q in (0, 1]): the bucket holding the smallest
  /// sample with at least q of the samples at or below it, reported as
  /// that bucket's midpoint (exact below 2^kSubBits). 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    // ceil(q * n), less a hair so that 0.07 * 100, which comes out a hair
    // above 7 in binary floating point, still ranks 7th.
    const double target = q * static_cast<double>(count_) - 1e-9;
    uint64_t rank = static_cast<uint64_t>(target);
    if (static_cast<double>(rank) < target) ++rank;
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return static_cast<double>(LowerBound(i)) +
               static_cast<double>(Width(i) - 1) / 2.0;
      }
    }
    return 0;  // unreachable: rank <= count_
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Median of a small set of values (the mean of the middle two for even
/// counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Mean of the values less the highest and the lowest (of all of them
/// when there are fewer than three): robust to one outlier on either side,
/// and steadier than the median for the same number of values.
inline double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

/// One traced interval. `parent` indexes the same per-thread buffer; spans
/// of one transaction share `txn`.
struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t txn = 0;
  uint32_t parent = kNoParent;
  uint16_t name = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and
/// any part of a child outside the parent is ignored).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      const Span& p = spans[s.parent];
      uint64_t lo = std::max(s.start, p.start);
      uint64_t hi = std::min(s.end, p.end);
      if (lo < hi) children[s.parent].emplace_back(lo, hi);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t duration =
        spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    for (const auto& [lo, hi] : kids) {
      if (run_hi <= lo) {
        covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += run_hi - run_lo;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

}  // namespace perfbench
