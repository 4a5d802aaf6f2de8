#pragma once

// Fault-tolerant sharded serving (docs/cluster.md).
//
// A ClusterRouter fronts N ForestServer shards and keeps answering while
// individual shards die, stall, or reload:
//
//   routing    consistent-hash (rendezvous order on the query key) or
//              least-loaded (ascending queue depth); either policy skips
//              shards whose router-side breaker is not Closed
//   breakers   one CircuitBreaker per shard *in the router*, distinct
//              from each server's in-process breaker: the server breaker
//              guards its accelerator backend, the router breaker guards
//              the dispatch path to the whole shard (kill, partition,
//              overload) — fed by client outcomes and by the probe loop
//   probes     a background loop sends a 1-row synthetic request to every
//              shard each interval; successes close recovered breakers,
//              timeouts/failures keep sick shards quarantined
//   failover   a failed attempt moves to the next candidate shard, up to
//              max_failovers extra attempts per request
//   hedging    when a request outlives the hedge delay — derived from
//              the router's observed p95, floored at HedgeOptions::
//              min_seconds — a second attempt is launched on the next
//              candidate shard and the first answer wins
//   reload     rolling_reload() walks the fleet one shard at a time
//              through the serve/reload state machine and, if any shard
//              rejects or rolls back, halts the wave and reverts the
//              already-promoted shards to the generation they ran before
//   admission  an optional AIMD concurrency limiter (serve/qos.hpp) caps
//              in-flight query() calls: the limit grows by one per clean
//              epoch and multiplicatively shrinks when the observed route
//              p95 breaches the target or a deadline expires — overload
//              is refused at the door instead of queued into a collapse
//   scaling    the fleet is a fixed array of max_shards slots of which
//              the first num_shards start active; scale_up() activates
//              the lowest inactive slot with a freshly built server,
//              scale_down() deactivates the highest active slot and
//              drains it through DrainReport. Rendezvous scores are per
//              (key, slot) and independent of the active set, so a
//              combined add+remove only remaps keys that ranked a
//              changed slot first (minimal disruption).
//
// Multi-tenant QoS lives in the shards (serve/qos.hpp): the router only
// forwards QueryOptions::tenant and accounts quota rejections as
// cluster.quota_shed — a shed tenant is not shard sickness, so it never
// feeds the shard breaker.
//
// Chaos sites: `crash:route` (util/fault) fails a client dispatch at the
// router->shard link; `freeze:shard` stalls a shard worker mid-dispatch;
// `surge:tenant` inflates one tenant's service time (noisy neighbor);
// `stall:autoscaler` wedges the control loop (cluster/autoscaler.hpp).
// tools/chaos.sh and tests/cluster drive all four against the
// degraded-mode SLOs in docs/cluster.md. Shard-internal integrity faults
// (`corrupt:replica`, `hang:worker` — serve/integrity.hpp) fire inside
// individual shard servers; the router surfaces each shard's self-heal
// outcome (repairs, worker restarts) in ShardStatus / ShardHealth rows.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.hpp"
#include "serve/server.hpp"

namespace hrf::cluster {

enum class RoutingPolicy { ConsistentHash, LeastLoaded };

const char* to_string(RoutingPolicy p);
/// Parses "hash" / "consistent-hash" / "least-loaded"; throws ConfigError.
RoutingPolicy routing_policy_from_name(const std::string& name);

/// Rendezvous (highest-random-weight) candidate order for `key` over
/// `num_shards` shards: shards sorted by a per-(key, shard) hash score.
/// Deterministic given (key, salt), and removing one shard only remaps
/// the keys that ranked it first — the property that keeps cache-warm
/// shards warm across fleet resizes. Free function so tests can pin
/// stability, balance, and minimal-disruption directly.
std::vector<std::size_t> rendezvous_order(std::uint64_t key, std::size_t num_shards,
                                          std::uint64_t salt = 0);

/// Rendezvous order restricted to an arbitrary subset of shard ids. Each
/// (key, id) score is computed exactly as rendezvous_order computes it
/// for shard `id` — independent of which other ids are present — so any
/// combination of additions and removals only remaps the keys whose
/// top-ranked id changed. This is what lets the autoscaler grow and
/// shrink the active set with minimal cache disruption.
std::vector<std::size_t> rendezvous_order_subset(std::uint64_t key,
                                                 const std::vector<std::size_t>& shard_ids,
                                                 std::uint64_t salt = 0);

struct HedgeOptions {
  bool enabled = true;
  /// Hedge delay floor (CLI --hedge-ms); also used verbatim until the
  /// router has min_samples completed requests to derive a p95 from.
  double min_seconds = 0.01;
  /// Hedge once a request has been in flight p95_multiplier * p95.
  double p95_multiplier = 2.0;
  /// Completed requests before the observed p95 is trusted.
  std::uint64_t min_samples = 32;
};

struct ClusterOptions {
  /// Shards active at construction.
  std::size_t num_shards = 2;
  /// Upper bound for scale_up(): the fleet owns max_shards slots for its
  /// whole life (stable slot ids = stable rendezvous scores). 0 means
  /// "= num_shards" — a fixed fleet that cannot scale.
  std::size_t max_shards = 0;
  /// Router-level adaptive admission (AIMD on the observed route p95);
  /// disabled by default.
  serve::AdaptiveLimitOptions limit{};
  RoutingPolicy policy = RoutingPolicy::ConsistentHash;
  /// Extra shards tried after a failed attempt (bounded cross-shard
  /// retry); the hedge attempt draws from the same candidate list but
  /// has its own single-shot budget.
  int max_failovers = 2;
  HedgeOptions hedge{};
  /// Router-side per-shard breaker. Defaults trip faster and cool down
  /// quicker than the in-server breaker: a dead shard should be
  /// quarantined within a few requests, and the probe loop (not client
  /// traffic) pays for recovery checks.
  serve::CircuitBreakerOptions shard_breaker{.failure_threshold = 3, .open_seconds = 0.1};
  /// Health probe loop cadence and the probe request's deadline. The
  /// probe loop never blocks on a wedged shard longer than the deadline
  /// plus a small margin — it abandons the future and counts a failure.
  double probe_interval_seconds = 0.02;
  double probe_deadline_seconds = 0.25;
  /// Tests that need full determinism turn the probe loop off.
  bool start_probes = true;
  /// Salt folded into rendezvous hashing (fleet identity).
  std::uint64_t hash_salt = 0x9e3779b97f4a7c15ULL;
  /// Incident flight recorder (obs/flight_recorder.hpp): handed down to
  /// every shard server (scope "shard:N") and fed router-level events —
  /// router breaker transitions, failovers, hedges, scale ops, reload
  /// waves, kills. Not owned; must outlive the router. Null disables.
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// Per-request routing inputs.
struct QueryOptions {
  std::uint64_t key = 0;          // routing key (consistent-hash policy)
  double deadline_seconds = 0.0;  // per-attempt deadline; <= 0 = none
  /// Tenant charged for the shard's admission quota (serve/qos.hpp);
  /// empty = anonymous (spare-pool-only when quotas are configured).
  std::string tenant;
};

/// One routed request's outcome.
struct ClusterResult {
  serve::ServeResult result;
  std::size_t shard = 0;   // shard that answered
  int failovers = 0;       // attempts rerouted past a failed shard
  bool hedged = false;     // a hedge attempt was launched
  bool hedge_won = false;  // ... and it answered first
  /// Router-assigned id for this query, stamped as the "router_request"
  /// attribute on every shard-level root span the query touched — the
  /// correlation key for failover/hedge traces across shard tracers.
  std::uint64_t request_id = 0;
};

struct ShardStatus {
  std::size_t index = 0;
  bool active = true;  // slot is part of the serving fleet (autoscaling)
  bool alive = true;
  bool partitioned = false;
  serve::CircuitState breaker = serve::CircuitState::Closed;
  std::size_t queue_depth = 0;
  std::uint64_t generation = 0;
  std::uint64_t routed = 0;    // requests dispatched to this shard
  std::uint64_t failures = 0;  // dispatch failures the router observed
  std::uint64_t repairs = 0;   // replicas quarantined + rebuilt in the shard
  std::uint64_t worker_restarts = 0;  // watchdog thread replacements
};

struct ClusterStats {
  std::size_t shards = 0;     // active slots
  std::size_t available = 0;  // alive, reachable, breaker Closed
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;
  std::uint64_t hedged = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t no_shard_available = 0;
  std::uint64_t quota_shed = 0;  // attempts refused by a tenant quota
  std::uint64_t limited = 0;     // query() calls refused by the AIMD limiter
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t reload_waves = 0;
  std::uint64_t reload_waves_halted = 0;
  std::uint64_t shard_rollbacks = 0;
  /// Compiled models resident across every shard that holds a server,
  /// counted as in ServerStats: a model the shards share counts once.
  std::size_t resident_layouts = 0;
  std::size_t resident_model_bytes = 0;
  std::vector<ShardStatus> shard_status;
};

struct RollingReloadOptions {
  /// Per-shard reload options (shadow/canary/watch phases).
  serve::ReloadOptions reload{};
  /// Revert already-promoted shards to their wave-entry generation when
  /// the wave halts, most recently promoted first.
  bool rollback_wave = true;
};

struct ShardReload {
  std::size_t shard = 0;
  serve::ReloadReport report;
};

/// What one rolling-reload wave accomplished.
struct RollingReloadReport {
  std::uint64_t to_generation = 0;
  bool completed = false;  // every shard promoted (or was already current)
  std::string reason;      // why the wave halted; empty when completed
  std::vector<ShardReload> shards;     // reload attempts in wave order
  std::vector<ShardReload> rollbacks;  // wave-rollback reverts, reverse order
  double total_seconds = 0.0;

  std::string to_string() const;
};

/// Routes requests across a fleet of in-process ForestServer shards.
/// Thread-safe: query(), chaos controls, snapshots, and rolling_reload()
/// may be called concurrently from any thread.
class ClusterRouter {
 public:
  /// Compiles (forest, options) once; every shard serves that model.
  ClusterRouter(const Forest& forest, const ClassifierOptions& classifier_options,
                const serve::ServerOptions& shard_options, const ClusterOptions& options);
  /// Compiles the store's current generation once; every shard serves it
  /// and stays reload()-able (what rolling_reload() requires for
  /// rollback).
  ClusterRouter(const serve::ModelStore& store, const ClassifierOptions& classifier_options,
                const serve::ServerOptions& shard_options, const ClusterOptions& options);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Routes one request: candidate order by policy, bounded failover,
  /// one hedge attempt after the hedge delay. Throws the last shard
  /// error when every attempt failed, OverloadError when no shard was
  /// routable at all or the AIMD limiter refused admission (counted as
  /// cluster.limited), QuotaError when every attempt was shed by the
  /// request's tenant quota, ShutdownError after shutdown().
  ClusterResult query(const Dataset& queries, const QueryOptions& qopt = {});

  // --- Elastic fleet (cluster/autoscaler.hpp drives these) -------------

  /// Activates the lowest-index inactive slot with a freshly built
  /// server and a fresh breaker. Returns false when every slot is
  /// already active. Serialized against scale_down().
  bool scale_up();
  /// Deactivates the highest-index active slot — new candidate orders
  /// stop listing it immediately — then drains it gracefully. In-flight
  /// requests finish (or fail over); the slot can be reused by a later
  /// scale_up(). Returns the drain report, or nullopt when only one
  /// active shard remains (a cluster never scales to zero).
  std::optional<serve::DrainReport> scale_down();
  /// Slots currently serving (num_shards() counts the same thing; the
  /// fleet owns options().max_shards slots in total).
  std::size_t active_shards() const;
  /// Autoscaler hook: folds a control-loop counter (autoscaler.*) into
  /// the router registry so it exports with the cluster families.
  void add_counter(const std::string& name, std::uint64_t delta = 1);
  /// The flight recorder the fleet shares (options().flight_recorder);
  /// null when none was configured. The autoscaler records through this.
  obs::FlightRecorder* flight_recorder() const { return options_.flight_recorder; }
  /// Adaptive admission observability (0 / 0 when the limiter is off).
  std::size_t concurrency_limit() const;
  std::size_t limiter_in_flight() const;

  /// Walks shards in index order through the reload state machine; halts
  /// on the first non-promoted outcome and (by default) reverts the
  /// already-promoted prefix. Waves are serialized against each other.
  RollingReloadReport rolling_reload(const serve::ModelStore& store, std::uint64_t gen,
                                     const RollingReloadOptions& opts = {});

  // --- Chaos controls (tests/cluster, tools/chaos.sh) ------------------

  /// Abrupt shard death: immediate shutdown with zero drain budget.
  /// The router is told nothing — its breaker must discover the loss.
  void kill_shard(std::size_t shard);
  /// Cuts (or heals) the router->shard link: dispatches and probes fail
  /// with ResourceError while partitioned. The shard process keeps
  /// running untouched.
  void set_partitioned(std::size_t shard, bool partitioned);

  /// Active slots (equals the constructed num_shards until a scale op).
  std::size_t num_shards() const { return active_shards(); }
  /// Active shards that are alive, reachable, and have a Closed breaker.
  std::size_t available_shards() const;
  serve::CircuitState shard_breaker_state(std::size_t shard) const;
  /// The server in slot `shard`; throws when the slot never held one.
  serve::ForestServer& shard(std::size_t shard);

  ClusterStats stats() const;
  /// Per-stage latency merged across every shard.
  serve::LatencyStats latency() const;
  /// Router-observed end-to-end latency of successful query() calls
  /// (queueing + execution + failover + hedging — what a client sees).
  HistogramSnapshot route_latency() const;
  /// The hedge delay the next request would use.
  double hedge_delay_seconds() const;
  /// Fleet-level snapshot: summed shard counters plus the router's own
  /// cluster.* counters, merged histograms (with the extra "route"
  /// stage), merged rollups, summed tracer stats, cluster gauges, and
  /// one ShardHealth row per shard. check_metrics_schema-clean.
  obs::MetricsSnapshot metrics_snapshot() const;

  const ClusterOptions& options() const { return options_; }

  /// Stops the probe loop, then drains every shard. Idempotent.
  void shutdown();

 private:
  /// One fleet slot. Slots outlive the servers they hold: a scale_down()
  /// drains and parks the server object, a later scale_up() installs a
  /// fresh one. `mu` guards the server pointer swap; readers take a
  /// shared_ptr snapshot and never hold the lock across a dispatch.
  struct Shard {
    mutable std::mutex mu;
    std::shared_ptr<serve::ForestServer> server;  // null = slot never activated
    std::unique_ptr<serve::CircuitBreaker> breaker;
    std::atomic<bool> active{false};
    std::atomic<bool> alive{true};
    std::atomic<bool> partitioned{false};
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> failures{0};
  };

  struct Attempt {
    std::size_t shard = 0;
    std::future<serve::ServeResult> fut;
  };

  using MakeServer =
      std::function<std::unique_ptr<serve::ForestServer>(const serve::ServerOptions&)>;

  void init_shards(const serve::ServerOptions& shard_options, MakeServer make_server);
  /// Per-shard options for slot `s` (distinct jitter seed per slot).
  serve::ServerOptions slot_options(std::size_t s) const;
  /// Lock-free-ish read of a slot's server (snapshot under the slot mu).
  std::shared_ptr<serve::ForestServer> server_of(std::size_t s) const;
  /// Slot ids currently active, ascending.
  std::vector<std::size_t> active_ids() const;
  bool routable(std::size_t shard) const;
  std::vector<std::size_t> candidate_order(std::uint64_t key) const;
  /// Dispatches to one shard. Consults crash:route and the partition
  /// flag for client dispatches only (probes must not spend chaos
  /// charges armed for clients — fired counts stay deterministic).
  std::future<serve::ServeResult> dispatch(std::size_t shard, const Dataset& queries,
                                           const QueryOptions& qopt, bool is_probe,
                                           std::uint64_t router_request = 0);
  /// query() minus the admission limiter (which wraps it).
  ClusterResult query_routed(const Dataset& queries, const QueryOptions& qopt);
  void shard_failed(std::size_t shard);
  /// Router-level event into options_.flight_recorder (no-op when null).
  void flight_event(const char* category, const char* name, std::string scope,
                    std::string detail = "") const;
  void probe_loop();
  void probe_shard(std::size_t shard);
  double effective_hedge_delay() const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;  // max_shards slots, fixed size
  serve::ServerOptions shard_options_;          // base per-shard options
  MakeServer make_server_;                      // builds a server for scale_up()
  serve::AdaptiveLimiter limiter_;
  CounterRegistry counters_;
  LatencyHistogram hist_route_;
  Dataset probe_queries_;
  /// Router-assigned query ids ("router_request" span attribute); starts
  /// at 1 so 0 always means "not router-dispatched".
  std::atomic<std::uint64_t> next_request_id_{1};

  std::mutex scale_mu_;   // serializes scale_up()/scale_down()
  std::mutex reload_mu_;  // serializes rolling-reload waves

  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::thread probe_thread_;
};

}  // namespace hrf::cluster
