// Tests of the benchmark's own statistics (stats.h). perfbench/run.py runs
// this before every benchmark run and refuses to report if it fails.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using perfbench::kNoParent;
using perfbench::FineHistogram;
using perfbench::Median;
using perfbench::SelfTimes;
using perfbench::TrimmedMean;
using perfbench::Span;

/// Nearest-rank quantile of raw samples: the oracle the histogram must
/// match.
uint64_t OracleQuantile(std::vector<uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size() - 1e-9));
  return v[std::max<size_t>(rank, 1) - 1];
}

FineHistogram Of(const std::vector<uint64_t>& values) {
  FineHistogram h;
  for (uint64_t v : values) h.Record(v);
  return h;
}

void TestQuantileExactForSmallValues() {
  // Below 2^kSubBits every value has its own bucket: nearest rank, exact.
  std::vector<uint64_t> v;
  for (uint64_t i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  FineHistogram h = Of(v);
  EXPECT(h.count() == 100);
  EXPECT(h.Quantile(0.5) == 50);
  EXPECT(h.Quantile(0.99) == 99);
  EXPECT(h.Quantile(0.07) == 7);  // 0.07 * 100 is a hair above 7
  EXPECT(h.Quantile(0.999) == 100);
  EXPECT(h.Quantile(1.0) == 100);
  EXPECT(h.Quantile(0.001) == 1);
  EXPECT(Of({7, 1, 5}).Quantile(0.5) == 5);
  EXPECT(Of({42}).Quantile(0.99) == 42);
  EXPECT(FineHistogram().Quantile(0.5) == 0);
  // Ties and exact boundaries: 0.25 * 8 = 2 exactly -> 2nd smallest.
  FineHistogram ties = Of({3, 3, 1, 1, 2, 2, 4, 4});
  EXPECT(ties.Quantile(0.25) == 1);
  EXPECT(ties.Quantile(0.26) == 2);
}

void TestQuantileWithinBucketWidth() {
  // Larger values: the reported quantile lies in the oracle's bucket, so
  // within 1/128 of it, whatever the spread of the samples.
  std::vector<uint64_t> v;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v.push_back(1000 + x % (1u << (i % 24)));  // 1e3 .. 1.7e7
  }
  FineHistogram h = Of(v);
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double want = static_cast<double>(OracleQuantile(v, q));
    const double got = h.Quantile(q);
    EXPECT(std::fabs(got - want) <= want / 128.0);
    EXPECT(FineHistogram::Index(static_cast<uint64_t>(got)) ==
           FineHistogram::Index(static_cast<uint64_t>(want)));
  }
  // Merging per-thread histograms equals recording everything in one.
  FineHistogram a = Of(std::vector<uint64_t>(v.begin(), v.begin() + 7000));
  a.Merge(Of(std::vector<uint64_t>(v.begin() + 7000, v.end())));
  EXPECT(a.count() == h.count());
  EXPECT(a.Quantile(0.99) == h.Quantile(0.99));
}

void TestBucketsTileTheRange() {
  // Buckets are contiguous and never wider than 1/128 of their values.
  for (uint32_t i = 0; i + 1 < FineHistogram::kBuckets; ++i) {
    const uint64_t lo = FineHistogram::LowerBound(i);
    const uint64_t width = FineHistogram::Width(i);
    EXPECT(FineHistogram::LowerBound(i + 1) == lo + width);
    EXPECT(FineHistogram::Index(lo) == i);
    EXPECT(FineHistogram::Index(lo + width - 1) == i);
    EXPECT(lo < FineHistogram::kSub || width * 128 <= lo);
  }
  EXPECT(FineHistogram::Index(~uint64_t{0}) == FineHistogram::kBuckets - 1);
}

void TestMedian() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3.0}) == 3.0);
  EXPECT(Median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestTrimmedMean() {
  EXPECT(TrimmedMean({}) == 0.0);
  EXPECT(TrimmedMean({4.0}) == 4.0);
  EXPECT(TrimmedMean({4.0, 2.0}) == 3.0);
  EXPECT(TrimmedMean({9.0, 1.0, 5.0}) == 5.0);
  // One outlier on each side is dropped; the rest are averaged.
  EXPECT(TrimmedMean({100.0, 10.0, 12.0, 0.0, 14.0}) == 12.0);
  EXPECT(TrimmedMean({3.0, 3.0, 3.0, 3.0}) == 3.0);
}

void TestSelfTimeSubtractsChildren() {
  // txn [0,100) with children begin [0,10), read [20,30), commit [80,100).
  std::vector<Span> s(4);
  s[0] = Span{0, 100, 7, kNoParent, 0};
  s[1] = Span{0, 10, 7, 0, 1};
  s[2] = Span{20, 30, 7, 0, 2};
  s[3] = Span{80, 100, 7, 0, 3};
  std::vector<uint64_t> self = SelfTimes(s);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 10);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 20);
}

void TestSelfTimeOverlapAndClipping() {
  // Overlapping children count once; a child sticking out of its parent
  // only subtracts the part inside; grandchildren do not subtract from the
  // grandparent twice.
  std::vector<Span> s(5);
  s[0] = Span{100, 200, 1, kNoParent, 0};
  s[1] = Span{110, 150, 1, 0, 1};
  s[2] = Span{140, 160, 1, 0, 1};  // overlaps s[1]: union [110,160)
  s[3] = Span{190, 250, 1, 0, 1};  // clipped to [190,200)
  s[4] = Span{115, 125, 1, 1, 2};  // child of s[1]
  std::vector<uint64_t> self = SelfTimes(s);
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 40 - 10);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 60);
  EXPECT(self[4] == 10);
}

void TestSelfTimeEdgeCases() {
  // No children; zero-length and inverted spans never underflow; children
  // entirely outside the parent subtract nothing; children that cover the
  // parent leave zero.
  std::vector<Span> s(5);
  s[0] = Span{10, 20, 1, kNoParent, 0};
  s[1] = Span{30, 30, 2, kNoParent, 0};
  s[2] = Span{50, 40, 3, kNoParent, 0};
  s[3] = Span{25, 35, 1, 0, 1};
  s[4] = Span{0, 100, 1, 0, 1};
  std::vector<uint64_t> self = SelfTimes(s);
  EXPECT(self[0] == 0);
  EXPECT(self[1] == 0);
  EXPECT(self[2] == 0);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 100);

  std::vector<Span> lone{Span{5, 9, 1, kNoParent, 0},
                         Span{40, 50, 1, 0, 1}};
  EXPECT(SelfTimes(lone)[0] == 4);
}

}  // namespace

int main() {
  TestQuantileExactForSmallValues();
  TestQuantileWithinBucketWidth();
  TestBucketsTileTheRange();
  TestMedian();
  TestTrimmedMean();
  TestSelfTimeSubtractsChildren();
  TestSelfTimeOverlapAndClipping();
  TestSelfTimeEdgeCases();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
