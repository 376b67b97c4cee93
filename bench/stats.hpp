// Streaming statistics accumulator for the benches (and util_test, which checks it).
//
// Accumulates count/min/max and mean/variance with Welford's method, so bench harnesses can
// report distributions without storing samples.

#ifndef FSUP_BENCH_STATS_HPP_
#define FSUP_BENCH_STATS_HPP_

#include <cmath>
#include <cstdint>

namespace fsup {

class Stats {
 public:
  void Add(double x) {
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      if (x < min_) {
        min_ = x;
      }
      if (x > max_) {
        max_ = x;
      }
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  int64_t count() const { return count_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const { return count_ > 0 ? mean_ : 0; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0; }
  double stddev() const { return std::sqrt(variance()); }

 private:
  int64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

}  // namespace fsup

#endif  // FSUP_BENCH_STATS_HPP_
