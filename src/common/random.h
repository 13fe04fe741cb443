#ifndef KEA_COMMON_RANDOM_H_
#define KEA_COMMON_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"

namespace kea {

/// SplitMix64-style finalizer that derives an independent substream seed from
/// a (seed, stream id) pair. Pure function of its inputs, so substream i of a
/// given seed is the same on every call, on every thread, in every process.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream_id) {
  uint64_t z = seed ^ (0x9E3779B97F4A7C15ULL * (stream_id + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Deterministic pseudo-random generator used across the simulator and the
/// Monte-Carlo machinery. Wraps std::mt19937_64 with convenience samplers so
/// call sites don't instantiate distribution objects.
///
/// All KEA randomness flows through explicitly seeded Rng instances: runs are
/// reproducible given the seed, which the tests and benches rely on.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : seed_(seed), engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double Gaussian() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  /// Exponential draw with the given rate (lambda > 0).
  double Exponential(double rate) {
    assert(rate > 0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Log-normal draw parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto draw with scale x_m > 0 and shape alpha > 0 (heavy-tailed work).
  double Pareto(double x_m, double alpha) {
    assert(x_m > 0 && alpha > 0);
    double u = 1.0 - Uniform();  // in (0, 1]
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Poisson draw with the given mean.
  int64_t Poisson(double mean) {
    assert(mean >= 0);
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights) {
    return std::discrete_distribution<size_t>(weights.begin(), weights.end())(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator; used to give each simulated
  /// machine / worker its own stream. Consumes one draw from this stream, so
  /// successive Fork() calls yield different children.
  Rng Fork() { return Rng(engine_()); }

  /// Derives the substream identified by `stream_id`. Unlike Fork(), this is
  /// a pure function of (constructor seed, stream_id): it does not advance
  /// this generator, and the substream's draw sequence is independent of how
  /// many draws the parent has made. This is what makes parallel loops
  /// deterministic — each logical task splits off its own stream by index
  /// and gets the same draws no matter which thread runs it, or when.
  Rng Split(uint64_t stream_id) const { return Rng(MixSeed(seed_, stream_id)); }

  /// The seed this generator was constructed with (substream derivation key).
  uint64_t seed() const { return seed_; }

  std::mt19937_64& engine() { return engine_; }

  /// Serializes the full generator state — seed, engine position, AND the
  /// distribution objects (std::normal_distribution caches a spare Gaussian
  /// between draws, so engine state alone is not enough for bit-identical
  /// resume). Text format via the standard stream operators.
  std::string SerializeState() const {
    return Serialize(seed_, engine_, unit_, normal_);
  }

  /// Restores state written by SerializeState(). After a successful restore
  /// the draw sequence continues exactly where the serialized generator was.
  /// The stream operators skip whitespace and stop after the last field, so
  /// only text that re-serializes to itself is accepted: anything else would
  /// load a state that does not round-trip.
  Status RestoreState(const std::string& state) {
    std::istringstream in(state);
    uint64_t seed = 0;
    std::mt19937_64 engine;
    std::uniform_real_distribution<double> unit;
    std::normal_distribution<double> normal;
    in >> seed >> engine >> unit >> normal;
    if (in.fail() || Serialize(seed, engine, unit, normal) != state) {
      return Status::InvalidArgument("malformed Rng state blob");
    }
    seed_ = seed;
    engine_ = engine;
    unit_ = unit;
    normal_ = normal;
    return Status::OK();
  }

 private:
  static std::string Serialize(uint64_t seed, const std::mt19937_64& engine,
                               const std::uniform_real_distribution<double>& unit,
                               const std::normal_distribution<double>& normal) {
    std::ostringstream out;
    out << seed << '\n' << engine << '\n' << unit << '\n' << normal << '\n';
    return out.str();
  }

  uint64_t seed_;
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

/// The generator of one (entity, hour) cell of a seeded fault process:
/// substream `(entity << 32) | hour` of `seed ^ salt`. Only the low 32 bits
/// of `entity` and `hour` reach the stream. The telemetry and fleet fault
/// injectors draw every per-record and per-machine fault from it.
inline Rng EntityHourRng(uint64_t seed, uint64_t salt, uint64_t entity,
                         int64_t hour) {
  return Rng(MixSeed(seed ^ salt, (entity << 32) | static_cast<uint32_t>(hour)));
}

}  // namespace kea

#endif  // KEA_COMMON_RANDOM_H_
