// FaultInjector: deterministic seeded disk-fault schedule.
//
// The injector hands out one Outcome per simulated disk read request
// (BufferPool consults it from both its FetchPage and FetchRange miss
// paths). Decisions are a pure function of (seed, decision counter): a
// counter-based SplitMix64 stream, so the same seed over the same read
// sequence always yields the same fault schedule — which is what makes
// the fault axis of the differential fuzz harness reproducible, and,
// because scans issue identical page-fetch sequences whatever their pull
// size, independent of how far each pull reads.
//
// Threshold sampling (fault iff u < rate over a shared u stream) has a
// useful monotonicity property: the fault set at a higher rate is a
// superset of the fault set at a lower rate until the first divergence,
// so per-seed energy cost grows monotonically with the configured rate.

#ifndef ECODB_SIM_FAULT_INJECTION_H_
#define ECODB_SIM_FAULT_INJECTION_H_

#include <cstdint>

namespace ecodb {

struct FaultInjectorConfig {
  uint64_t seed = 0;

  /// Probability that one disk read request fails transiently (succeeds
  /// when retried, costing backoff wait time + a re-read). 0 disables.
  double transient_fault_rate = 0.0;

  /// Probability that one disk read request fails persistently — every
  /// retry fails too, and the read escalates to kHardwareFault.
  double persistent_fault_rate = 0.0;

  /// Bounded exponential backoff for transient faults: after attempt k
  /// fails, the machine idles initial_backoff_seconds * multiplier^k
  /// (energy-accounted wall time) before re-reading. After max_retries
  /// failed retries the read escalates to kHardwareFault.
  int max_retries = 4;
  double initial_backoff_seconds = 1e-3;
  double backoff_multiplier = 2.0;

  bool enabled() const {
    return transient_fault_rate > 0.0 || persistent_fault_rate > 0.0;
  }
};

class FaultInjector {
 public:
  enum class Outcome {
    kOk,
    kTransient,   ///< retry may succeed
    kPersistent,  ///< all retries fail
  };

  explicit FaultInjector(const FaultInjectorConfig& config);

  /// Outcome for the next disk read request. Advances the decision
  /// counter (each retry of a faulted read draws a fresh decision).
  Outcome NextReadOutcome();

  const FaultInjectorConfig& config() const { return config_; }
  uint64_t decisions() const { return counter_; }

  /// Rewinds the decision stream to the start (same seed).
  void Reset() { counter_ = 0; }

 private:
  FaultInjectorConfig config_;
  uint64_t counter_ = 0;
};

}  // namespace ecodb

#endif  // ECODB_SIM_FAULT_INJECTION_H_
