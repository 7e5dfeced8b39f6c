#include "util/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace cpd {

double Log1pExp(double x) {
  if (x > 0.0) return x + std::log1p(std::exp(-x));
  return std::log1p(std::exp(x));
}

double LogSumExp(std::span<const double> values) {
  if (values.empty()) return -std::numeric_limits<double>::infinity();
  const double max_value = *std::max_element(values.begin(), values.end());
  if (!std::isfinite(max_value)) return max_value;
  double sum = 0.0;
  for (double v : values) sum += std::exp(v - max_value);
  return max_value + std::log(sum);
}

void SoftmaxInPlace(std::vector<double>* values) {
  if (values->empty()) return;
  const double lse = LogSumExp(*values);
  for (double& v : *values) v = std::exp(v - lse);
}

void NormalizeInPlace(std::vector<double>* values) {
  if (values->empty()) return;
  double sum = 0.0;
  for (double v : *values) sum += v;
  if (sum <= 0.0 || !std::isfinite(sum)) {
    const double uniform = 1.0 / static_cast<double>(values->size());
    std::fill(values->begin(), values->end(), uniform);
    return;
  }
  for (double& v : *values) v /= sum;
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return StableSum(values) / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  const size_t n = values.size();
  if (n < 2) return 0.0;
  const double mean = Mean(values);
  double accum = 0.0;
  for (double v : values) {
    const double d = v - mean;
    accum += d * d;
  }
  return accum / static_cast<double>(n - 1);
}

double StdDev(std::span<const double> values) { return std::sqrt(Variance(values)); }

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  CPD_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;
  const double mean_x = Mean(x);
  const double mean_y = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit FitLine(std::span<const double> x, std::span<const double> y) {
  CPD_CHECK_EQ(x.size(), y.size());
  CPD_CHECK_GE(x.size(), 2u);
  const size_t n = x.size();
  const double mean_x = Mean(x);
  const double mean_y = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  LinearFit fit;
  if (sxx <= 0.0) {
    fit.intercept = mean_y;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  if (syy > 0.0) {
    double ss_res = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double r = y[i] - (fit.slope * x[i] + fit.intercept);
      ss_res += r * r;
    }
    fit.r_squared = 1.0 - ss_res / syy;
  } else {
    fit.r_squared = 1.0;
  }
  return fit;
}

size_t ArgMax(std::span<const double> values) {
  CPD_CHECK(!values.empty());
  return static_cast<size_t>(
      std::distance(values.begin(), std::max_element(values.begin(), values.end())));
}

std::vector<size_t> TopKIndices(std::span<const double> values, size_t k) {
  k = std::min(k, values.size());
  std::vector<size_t> indices(values.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  std::partial_sort(indices.begin(), indices.begin() + static_cast<long>(k),
                    indices.end(), [&values](size_t a, size_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  indices.resize(k);
  return indices;
}

double StableSum(std::span<const double> values) {
  double sum = 0.0;
  double compensation = 0.0;
  for (double v : values) {
    const double y = v - compensation;
    const double t = sum + y;
    compensation = (t - sum) - y;
    sum = t;
  }
  return sum;
}

}  // namespace cpd
