#ifndef KEA_CORE_TREATMENT_H_
#define KEA_CORE_TREATMENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ml/stats.h"

namespace kea::core {

/// Treatment-effect estimate for one metric: the before/after (or
/// control/treatment) comparison the paper evaluates deployments with
/// (Section 5.2.2, Table 4).
struct TreatmentEffect {
  std::string metric;
  double control_mean = 0.0;
  double treatment_mean = 0.0;
  /// (treatment - control) / control.
  double percent_change = 0.0;
  double t_value = 0.0;
  double p_value = 1.0;
  bool significant = false;  ///< At the 0.05 level.
};

template <class Io>
void Transfer(Io& io, TreatmentEffect& e) {
  io(e.metric, e.control_mean, e.treatment_mean, e.percent_change, e.t_value,
     e.p_value, e.significant);
}

/// Computes the treatment effect on a metric from per-unit observations
/// (machine-hours, machine-days...). Uses Student's t-test, as the paper
/// does. Returns InvalidArgument when either sample has < 2 observations,
/// FailedPrecondition when the control mean is ~0 (percent change undefined).
StatusOr<TreatmentEffect> EstimateTreatmentEffect(const std::string& metric,
                                                  const std::vector<double>& control,
                                                  const std::vector<double>& treatment);

/// Welch variant for arms with clearly unequal variances.
StatusOr<TreatmentEffect> EstimateTreatmentEffectWelch(
    const std::string& metric, const std::vector<double>& control,
    const std::vector<double>& treatment);

/// Difference-in-differences estimate: isolates a deployment's effect when a
/// plain before/after comparison would be confounded by a cluster-wide shift
/// (workload growth, seasonality). The control group's before->after drift is
/// subtracted from the treated group's.
struct DifferenceInDifferences {
  std::string metric;
  double control_change = 0.0;    ///< mean(control_after) - mean(control_before).
  double treatment_change = 0.0;  ///< mean(treated_after) - mean(treated_before).
  /// treatment_change - control_change: the deployment's isolated effect.
  double effect = 0.0;
  /// Effect as a fraction of the treated group's before mean.
  double percent_effect = 0.0;
  /// Welch t-test on the per-unit deltas (requires equal sample pairing by
  /// index within each group).
  double t_value = 0.0;
  double p_value = 1.0;
  bool significant = false;
};

/// Computes DiD from per-unit (e.g., per-machine) paired observations:
/// sample i of `*_before` and `*_after` must be the same unit. Returns
/// InvalidArgument on size mismatches or samples of < 2 units,
/// FailedPrecondition when the treated before-mean is ~0.
StatusOr<DifferenceInDifferences> EstimateDifferenceInDifferences(
    const std::string& metric, const std::vector<double>& control_before,
    const std::vector<double>& control_after,
    const std::vector<double>& treated_before,
    const std::vector<double>& treated_after);

}  // namespace kea::core

#endif  // KEA_CORE_TREATMENT_H_
