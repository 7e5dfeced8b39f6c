#ifndef CPD_CORE_LOGISTIC_FIT_H_
#define CPD_CORE_LOGISTIC_FIT_H_

/// \file logistic_fit.h
/// The M-step's fit of Eq. 6's diffusion weights (§4.2): an L2-regularized
/// logistic regression over the observed links plus sampled negatives,
/// solved by Newton's method (IRLS) over the weights that are free to move.

#include <array>
#include <cstddef>
#include <functional>
#include <span>

#include "core/model_state.h"

namespace cpd {

/// Runs fn(begin, end) over ranges that partition [0, n), in any order and
/// possibly in parallel (EmTrainer passes its executor's shards).
using ExampleRangeRunner = std::function<void(
    size_t n, const std::function<void(size_t, size_t)>& fn)>;

/// Maximizes the regularized log-likelihood
///   (1/n) sum_i [y_i log s_i + (1 - y_i) log(1 - s_i)]
///     - (l2 / 2) sum_{k free} w_k^2,        s_i = sigmoid(w . x_i),
/// over the coordinates with is_free[k] set, starting from and writing back
/// `weights`; the other coordinates keep their bits. `x` is column-major,
/// x[k * n + i] = feature k of example i, and examples [0, num_pos) are the
/// positives (label 1), the rest the negatives (label 0).
///
/// Each step runs the per-example sigmoid pass through `run`, then sums the
/// gradient and the lower triangle of  sum_i s_i (1 - s_i) x_i x_i^T / n +
/// l2 I  sequentially in example order, then takes the Cholesky solve of
/// that system as the step. So the result does not depend on how `run`
/// splits the examples. Stops when max |step| < 1e-8, after
/// `max_steps` steps, or when the system is not numerically positive
/// definite or the step is not finite (that step is not applied). Returns
/// the number of steps applied.
int FitDiffusionWeights(std::span<const double> x, size_t num_pos,
                        const std::array<bool, kNumDiffusionWeights>& is_free,
                        double l2, int max_steps,
                        std::span<double, kNumDiffusionWeights> weights,
                        const ExampleRangeRunner& run);

}  // namespace cpd

#endif  // CPD_CORE_LOGISTIC_FIT_H_
