#ifndef CPD_UTIL_MATH_UTIL_H_
#define CPD_UTIL_MATH_UTIL_H_

/// \file math_util.h
/// Numeric helpers shared across the library: stable log-sum-exp, sigmoid,
/// simplex normalization, summary statistics, Pearson correlation and
/// ordinary-least-squares line fitting (used by the case-study and
/// scalability experiments).

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace cpd {

/// Numerically stable logistic function 1 / (1 + exp(-x)). Inline: the
/// M-step's logistic regression calls it once per example per iteration.
inline double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// log(1 + exp(x)) without overflow.
double Log1pExp(double x);

/// Stable log(sum_i exp(values[i])). Returns -inf for an empty span.
double LogSumExp(std::span<const double> values);

/// In-place: values[i] <- exp(values[i] - logsumexp) so they sum to 1.
/// No-op on empty input.
void SoftmaxInPlace(std::vector<double>* values);

/// In-place normalization to the probability simplex. If the sum is not
/// positive, resets to the uniform distribution.
void NormalizeInPlace(std::vector<double>* values);

/// Arithmetic mean; 0 for empty input.
double Mean(std::span<const double> values);

/// Unbiased sample variance (n-1 denominator); 0 when n < 2.
double Variance(std::span<const double> values);

/// Sample standard deviation.
double StdDev(std::span<const double> values);

/// Pearson correlation coefficient in [-1, 1]; 0 when either side is
/// constant or the inputs are shorter than 2. Requires equal lengths.
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

/// Result of an ordinary-least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< Coefficient of determination.
};

/// Fits a line through (x, y) pairs. Requires equal lengths >= 2.
LinearFit FitLine(std::span<const double> x, std::span<const double> y);

/// Index of the maximum element; requires non-empty input.
size_t ArgMax(std::span<const double> values);

/// Indices of the top-k values, in descending value order. k is clamped to
/// the input size.
std::vector<size_t> TopKIndices(std::span<const double> values, size_t k);

/// Kahan-compensated sum, used where many small probabilities accumulate.
double StableSum(std::span<const double> values);

}  // namespace cpd

#endif  // CPD_UTIL_MATH_UTIL_H_
