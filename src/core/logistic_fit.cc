#include "core/logistic_fit.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/math_util.h"

namespace cpd {

namespace {

constexpr int kW = kNumDiffusionWeights;

// The fit stops once no free weight moves by this much in a step.
constexpr double kNewtonTolerance = 1e-8;

// sigma[i] = Sigmoid(w . x_i) over [begin, end) of the column-major design
// matrix. The k loop is expanded at compile time so the dot stays in
// registers; it runs over k in order.
template <size_t... K>
void ComputeSigmoids(const double* weights, const double* x, size_t n,
                     size_t begin, size_t end, double* sigma,
                     std::index_sequence<K...>) {
  const double w_k[] = {weights[K]...};
  for (size_t i = begin; i < end; ++i) {
    double w = 0.0;
    ((w += w_k[K] * x[K * n + i]), ...);
    sigma[i] = Sigmoid(w);
  }
}

// Solves h * delta = g in place (g becomes delta) for the symmetric m x m
// system whose lower triangle is h[a * kW + b], b <= a. False when a pivot
// is not positive (including NaN).
bool CholeskySolve(double* h, double* g, int m) {
  for (int j = 0; j < m; ++j) {
    double d = h[j * kW + j];
    for (int k = 0; k < j; ++k) d -= h[j * kW + k] * h[j * kW + k];
    if (!(d > 0.0)) return false;
    d = std::sqrt(d);
    h[j * kW + j] = d;
    for (int i = j + 1; i < m; ++i) {
      double sum = h[i * kW + j];
      for (int k = 0; k < j; ++k) sum -= h[i * kW + k] * h[j * kW + k];
      h[i * kW + j] = sum / d;
    }
  }
  for (int i = 0; i < m; ++i) {  // L y = g
    double sum = g[i];
    for (int k = 0; k < i; ++k) sum -= h[i * kW + k] * g[k];
    g[i] = sum / h[i * kW + i];
  }
  for (int i = m - 1; i >= 0; --i) {  // L^T delta = y
    double sum = g[i];
    for (int k = i + 1; k < m; ++k) sum -= h[k * kW + i] * g[k];
    g[i] = sum / h[i * kW + i];
  }
  return true;
}

}  // namespace

int FitDiffusionWeights(std::span<const double> x, size_t num_pos,
                        const std::array<bool, kNumDiffusionWeights>& is_free,
                        double l2, int max_steps,
                        std::span<double, kNumDiffusionWeights> weights,
                        const ExampleRangeRunner& run) {
  const size_t n = x.size() / kW;
  int index[kW];  // The free coordinates, in order.
  int m = 0;
  for (int k = 0; k < kW; ++k) {
    if (is_free[static_cast<size_t>(k)]) index[m++] = k;
  }
  if (n == 0 || m == 0) return 0;
  const double* columns[kW];
  for (int a = 0; a < m; ++a) {
    columns[a] = x.data() + static_cast<size_t>(index[a]) * n;
  }

  std::vector<double> sigma(n);
  const double n_inv = 1.0 / static_cast<double>(n);
  int steps = 0;
  while (steps < max_steps) {
    run(n, [&](size_t begin, size_t end) {
      ComputeSigmoids(weights.data(), x.data(), n, begin, end, sigma.data(),
                      std::make_index_sequence<kW>());
    });

    // Gradient of the objective and Hessian of its negation over the free
    // coordinates, summed in example order.
    double grad[kW] = {};
    double hess[kW * kW] = {};
    for (size_t i = 0; i < n; ++i) {
      const double s = sigma[i];
      const double r = (i < num_pos ? 1.0 : 0.0) - s;
      const double h = s * (1.0 - s);
      double xi[kW];
      for (int a = 0; a < m; ++a) xi[a] = columns[a][i];
      for (int a = 0; a < m; ++a) {
        grad[a] += r * xi[a];
        const double hx = h * xi[a];
        for (int b = 0; b <= a; ++b) hess[a * kW + b] += hx * xi[b];
      }
    }
    for (int a = 0; a < m; ++a) {
      grad[a] = grad[a] * n_inv - l2 * weights[static_cast<size_t>(index[a])];
      for (int b = 0; b <= a; ++b) hess[a * kW + b] *= n_inv;
      hess[a * kW + a] += l2;
    }

    if (!CholeskySolve(hess, grad, m)) break;
    double max_step = 0.0;
    for (int a = 0; a < m; ++a) max_step = std::max(max_step, std::fabs(grad[a]));
    if (!std::isfinite(max_step)) break;
    for (int a = 0; a < m; ++a) {
      weights[static_cast<size_t>(index[a])] += grad[a];
    }
    ++steps;
    if (max_step < kNewtonTolerance) break;
  }
  return steps;
}

}  // namespace cpd
