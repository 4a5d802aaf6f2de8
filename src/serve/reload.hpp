#pragma once

// Zero-downtime model reload: options, outcomes, and the per-reload
// report (docs/model-lifecycle.md). The reload state machine itself is
// implemented by ForestServer (serve/reload.cpp) over the versioned
// ModelStore (serve/model_store.hpp):
//
//   load -> validate -> shadow -> canary -> promote -> watch
//
// Any failing phase rejects (before promotion) or rolls back (after),
// and the previous generation keeps serving throughout — in-flight
// requests always finish on the model they started on, and a request
// never observes a half-loaded forest (each worker slot swaps to the one
// shared candidate via a mutex-guarded shared-pointer flip between
// requests).

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace hrf::serve {

struct ReloadOptions {
  /// Shadow validation: the candidate's predictions on a probe set must
  /// match the CPU reference oracle (Forest::classify_batch) exactly.
  /// `probe` supplies a held-out probe set; when null, a deterministic
  /// synthetic probe of `shadow_queries` rows (seed `shadow_seed`) is
  /// generated against the candidate's feature count.
  bool shadow_validation = true;
  std::size_t shadow_queries = 128;
  const Dataset* probe = nullptr;
  std::uint64_t shadow_seed = 1234;

  /// Staged rollout: the candidate is installed on worker 0 first and
  /// must complete this many requests with zero primary errors before
  /// the remaining workers flip. 0 skips the canary stage (immediate
  /// full promotion). No traffic within the timeout = rollback (a model
  /// that cannot demonstrate health is not promoted).
  std::uint64_t canary_success_requests = 4;
  double canary_timeout_seconds = 5.0;

  /// Post-promotion watch: after all workers flip, observe this many
  /// completed requests; `post_promotion_error_threshold` primary errors
  /// (or any circuit-breaker trip) within the window reverts every
  /// worker to the previous generation. 0 skips the watch. A quiet
  /// timeout (not enough traffic) counts as success — unlike the
  /// canary, the promotion already happened and silence is not failure.
  std::uint64_t post_promotion_watch_requests = 0;
  std::uint64_t post_promotion_error_threshold = 3;
  double post_promotion_timeout_seconds = 5.0;
};

enum class ReloadOutcome {
  Promoted,                 // candidate now serving on every worker
  NoOp,                     // already on the requested generation
  RejectedLoad,             // store/blob damage (CRC, framing, missing)
  RejectedValidation,       // candidate incompatible with serve config
  RejectedShadow,           // predictions diverge from the CPU oracle
  RolledBackCanary,         // canary worker errored or never proved health
  RolledBackPostPromotion,  // error spike / breaker trip after full flip
};

const char* to_string(ReloadOutcome outcome);

/// One timed phase of a reload attempt.
struct ReloadPhase {
  std::string name;
  double seconds = 0.0;
};

/// Everything one reload attempt did, kept in ForestServer's reload
/// history and printed by the CLI lifecycle demo.
struct ReloadReport {
  std::uint64_t from_generation = 0;
  std::uint64_t to_generation = 0;
  ReloadOutcome outcome = ReloadOutcome::NoOp;
  /// Human-readable cause for any non-Promoted outcome (validation
  /// error text, shadow mismatch counts, canary/watch trigger).
  std::string reason;
  std::vector<ReloadPhase> phases;  // in execution order
  std::size_t shadow_queries = 0;
  std::size_t shadow_mismatches = 0;
  double total_seconds = 0.0;

  bool promoted() const { return outcome == ReloadOutcome::Promoted; }
  bool rolled_back() const {
    return outcome == ReloadOutcome::RolledBackCanary ||
           outcome == ReloadOutcome::RolledBackPostPromotion;
  }
  /// One-paragraph summary ("reload gen 1 -> 2: promoted ...").
  std::string to_string() const;
};

}  // namespace hrf::serve
