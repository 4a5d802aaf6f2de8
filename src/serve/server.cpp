#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "serve/model_store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace hrf::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

/// The CPU-native replica that serves while the breaker is open. Keeps
/// the hierarchical layout when the primary uses one (same predictions,
/// same indexing scheme), else the CSR baseline.
Variant fallback_variant(Variant primary) {
  switch (primary) {
    case Variant::Independent:
    case Variant::Collaborative:
    case Variant::Hybrid:
      return Variant::Independent;
    case Variant::Csr:
    case Variant::FilBaseline:
      return Variant::Csr;
  }
  return Variant::Csr;
}

std::string format_seconds(double s) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << s;
  return out.str();
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now().time_since_epoch())
          .count());
}

/// Reference CRC of a replica's resident layout (serve/integrity.hpp).
/// Disengaged for FilBaseline, which builds its layout inside the kernel
/// per call — nothing resident for the scrubber to verify.
std::optional<std::uint32_t> classifier_layout_crc(const Classifier& clf) {
  switch (clf.options().variant) {
    case Variant::Csr:
      return layout_crc32(clf.csr());
    case Variant::FilBaseline:
      return std::nullopt;
    default:
      return layout_crc32(clf.hierarchical());
  }
}

/// The fallback twin over its own copy of the primary's forest and
/// layout, for a model whose twin serves as the integrity oracle.
Classifier independent_twin(const Classifier& primary, const ClassifierOptions& fb) {
  Forest forest = primary.forest();
  switch (primary.options().variant) {
    case Variant::Csr:
      return Classifier(std::move(forest), CsrForest(primary.csr()), fb);
    case Variant::FilBaseline:
      return Classifier(std::move(forest), fb);  // no resident layout to copy
    default:
      return Classifier(std::move(forest), HierarchicalForest(primary.hierarchical()), fb);
  }
}

}  // namespace

void ForestServer::validate_options() const {
  require(options_.num_workers >= 1, "num_workers must be >= 1");
  require(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  require(options_.trace_sampling >= 0.0 && options_.trace_sampling <= 1.0,
          "trace_sampling must be in [0, 1]");
  require(options_.trace_capacity >= 1, "trace_capacity must be >= 1");
  require(options_.deadline_chunk_size >= 1, "deadline_chunk_size must be >= 1");
  require(options_.retry.max_retries >= 0, "retry.max_retries must be >= 0");
  require(options_.retry.backoff_base_seconds >= 0.0 &&
              options_.retry.backoff_max_seconds >= 0.0,
          "retry backoff seconds must be >= 0");
  require(options_.retry.jitter_fraction >= 0.0 && options_.retry.jitter_fraction <= 1.0,
          "retry.jitter_fraction must be in [0, 1]");
  require(options_.batching.max_wait_seconds >= 0.0,
          "batching.max_wait_seconds must be >= 0");
  require(options_.batching.deadline_fraction >= 0.0 &&
              options_.batching.deadline_fraction <= 1.0,
          "batching.deadline_fraction must be in [0, 1]");
  require(options_.integrity.scrub_interval_seconds >= 0.0,
          "integrity.scrub_interval_seconds must be >= 0");
  require(options_.integrity.hang_timeout_seconds >= 0.0,
          "integrity.hang_timeout_seconds must be >= 0");
  require(options_.integrity.audit_mismatch_threshold >= 1,
          "integrity.audit_mismatch_threshold must be >= 1");
  require(options_.integrity.monitor_poll_seconds > 0.0,
          "integrity.monitor_poll_seconds must be > 0");
  require(options_.integrity.inject_hang_seconds >= 0.0,
          "integrity.inject_hang_seconds must be >= 0");
}

std::shared_ptr<const CompiledModel> compile_model(Classifier primary, std::uint64_t generation,
                                                   bool for_integrity) {
  ClassifierOptions fb = primary.options();
  fb.backend = Backend::CpuNative;
  fb.variant = fallback_variant(fb.variant);
  fb.fallback = FallbackPolicy{};  // the CPU path has nothing to degrade to

  auto model = std::make_shared<CompiledModel>();
  model->fallback = std::make_shared<const Classifier>(
      for_integrity ? independent_twin(primary, fb) : primary.twin(fb));
  model->primary = std::make_shared<const Classifier>(std::move(primary));
  model->generation = generation;
  model->for_integrity = for_integrity;
  if (for_integrity) model->layout_crc = classifier_layout_crc(*model->primary);
  return model;
}

std::shared_ptr<const CompiledModel> compile_model(LoadedModel model,
                                                   const ClassifierOptions& classifier_options,
                                                   bool for_integrity) {
  // Precompiled layout when the store supplied one (shape/kind checked by
  // the Classifier ctor); otherwise compile from the forest.
  Forest& forest = model.forest;
  if (model.csr) {
    return compile_model(Classifier(std::move(forest), std::move(*model.csr), classifier_options),
                         model.generation, for_integrity);
  }
  if (model.hier) {
    return compile_model(Classifier(std::move(forest), std::move(*model.hier), classifier_options),
                         model.generation, for_integrity);
  }
  return compile_model(Classifier(std::move(forest), classifier_options), model.generation,
                       for_integrity);
}

std::shared_ptr<const CompiledModel> compile_current(const ModelStore& store,
                                                     const ClassifierOptions& classifier_options,
                                                     bool for_integrity) {
  const std::optional<std::uint64_t> cur = store.current();
  if (!cur) {
    throw ConfigError("model store has no complete generation to serve: " + store.dir());
  }
  return compile_model(store.load(*cur), classifier_options, for_integrity);
}

std::shared_ptr<ForestServer::WorkerModel> ForestServer::make_worker_model(
    const CompiledModel& model, std::shared_ptr<ModelHealth> health) {
  auto m = std::make_shared<WorkerModel>();
  static_cast<CompiledModel&>(*m) = model;
  m->health = std::move(health);
  return m;
}

std::shared_ptr<const ForestServer::WorkerModel> ForestServer::serving() const {
  std::lock_guard<std::mutex> lock(serving_mu_);
  return serving_;
}

void ForestServer::set_serving(std::shared_ptr<const WorkerModel> m) {
  std::lock_guard<std::mutex> lock(serving_mu_);
  serving_ = std::move(m);
}

std::shared_ptr<const ForestServer::WorkerModel> ForestServer::model_for(std::size_t w) const {
  std::lock_guard<std::mutex> lock(slots_[w].mu);
  return slots_[w].model;
}

void ForestServer::install_model(std::size_t w, std::shared_ptr<const WorkerModel> m) {
  std::lock_guard<std::mutex> lock(slots_[w].mu);
  slots_[w].model = std::move(m);
}

void ForestServer::start_workers() {
  Xoshiro256 jitter_base(options_.seed);
  jitter_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    jitter_.push_back(jitter_base.split(static_cast<int>(w) + 1));
  }
  runtimes_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    runtimes_.push_back(std::make_unique<WorkerRuntime>());
  }
  started_ = !options_.start_paused;
  workers_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (options_.integrity.armed()) monitor_ = std::thread([this] { monitor_loop(); });
}

namespace {

/// Attaches a breaker-transition -> flight-recorder bridge when a
/// recorder is configured and the caller did not install its own hook.
/// Captures the recorder pointer and scope by value: the callback must
/// not depend on the server object (it can fire during construction).
CircuitBreakerOptions wire_breaker_events(CircuitBreakerOptions breaker,
                                          obs::FlightRecorder* recorder, std::string scope) {
  if (recorder != nullptr && !breaker.on_transition) {
    breaker.on_transition = [recorder, scope = std::move(scope)](CircuitState from,
                                                                CircuitState to) {
      const char* name = to == CircuitState::Open      ? "breaker_open"
                         : to == CircuitState::HalfOpen ? "breaker_probe"
                                                         : "breaker_closed";
      recorder->record("breaker", name, scope,
                       std::string(to_string(from)) + " -> " + to_string(to));
    };
  }
  return breaker;
}

}  // namespace

void ForestServer::flight_event(const char* category, const char* name,
                                std::string detail) const {
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->record(category, name, options_.flight_scope, std::move(detail));
  }
}

ForestServer::ForestServer(std::shared_ptr<const CompiledModel> model, ServerOptions options)
    : options_(options),
      classifier_options_(model->primary->options()),
      slots_(options.num_workers),
      breaker_(wire_breaker_events(options.breaker, options.flight_recorder,
                                   options.flight_scope)),
      tracer_({options.trace_sampling, options.trace_capacity}) {
  validate_options();
  batch_granularity_ = backend_batch_granularity(classifier_options_.backend,
                                                 classifier_options_.gpu);
  if (options_.quotas.enabled()) quotas_.emplace(options_.quotas, options_.queue_capacity);
  require(!options_.integrity.armed() || model->for_integrity,
          "an armed integrity monitor needs a model compiled for integrity");
  const std::shared_ptr<const WorkerModel> installed =
      make_worker_model(*model, std::make_shared<ModelHealth>());
  set_serving(installed);
  for (std::size_t w = 0; w < options_.num_workers; ++w) install_model(w, installed);
  current_generation_.store(model->generation, std::memory_order_release);
  start_workers();
}

ForestServer::ForestServer(Forest forest, ClassifierOptions classifier_options,
                           ServerOptions options)
    : ForestServer(compile_model(Classifier(std::move(forest), classifier_options), 0,
                                 options.integrity.armed()),
                   options) {}

ForestServer::ForestServer(const ModelStore& store, ClassifierOptions classifier_options,
                           ServerOptions options)
    : ForestServer(compile_current(store, classifier_options, options.integrity.armed()),
                   options) {}

ForestServer::~ForestServer() {
  try {
    shutdown();
  } catch (...) {
    // A destructor must not throw; the drain report is lost but every
    // queued promise was still failed with ShutdownError.
  }
}

std::future<ServeResult> ForestServer::submit(Dataset queries) {
  return submit(std::move(queries), options_.default_deadline_seconds);
}

std::future<ServeResult> ForestServer::submit(Dataset queries, double deadline_seconds) {
  return submit(std::move(queries), deadline_seconds, std::string());
}

std::future<ServeResult> ForestServer::submit(Dataset queries, double deadline_seconds,
                                              const std::string& tenant,
                                              std::uint64_t router_request) {
  counters_.add("requests.submitted");
  Request req;
  req.span = tracer_.start_trace("request");
  if (req.span.active()) {
    req.span.set_attr("queries", static_cast<std::uint64_t>(queries.num_samples()));
    if (deadline_seconds > 0.0) req.span.set_attr("deadline_s", deadline_seconds);
    if (!tenant.empty()) req.span.set_attr("tenant", tenant);
    if (router_request != 0) req.span.set_attr("router_request", router_request);
  }
  req.queries = std::move(queries);
  req.tenant = tenant;
  req.enqueued = SteadyClock::now();
  req.has_deadline = deadline_seconds > 0.0;
  if (req.has_deadline) req.deadline = req.enqueued + to_duration(deadline_seconds);
  std::future<ServeResult> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      counters_.add("requests.rejected_shutdown");
      req.span.set_attr("outcome", "rejected_shutdown");
      throw ShutdownError("server is shutting down; submission rejected");
    }
    if (quotas_) {
      // Quotas subsume the plain capacity check: every queued request
      // holds exactly one slot, and the slots sum to queue_capacity — so
      // a failed acquire always means *this tenant* is past its share,
      // never that another tenant's traffic displaced it.
      if (!quotas_->try_acquire(req.tenant)) {
        counters_.add("requests.rejected_quota");
        req.span.set_attr("outcome", "rejected_quota");
        flight_event("quota", "quota_shed",
                     "tenant " + (req.tenant.empty() ? "<anonymous>" : req.tenant));
        throw QuotaError("tenant '" + (req.tenant.empty() ? "<anonymous>" : req.tenant) +
                         "' exceeded its admission quota (" +
                         std::to_string(quotas_->reserved_slots(req.tenant)) +
                         " reserved slots + shared spare exhausted); back off and retry");
      }
    } else if (queue_.size() >= options_.queue_capacity) {
      counters_.add("requests.rejected_overload");
      req.span.set_attr("outcome", "rejected_overload");
      flight_event("overload", "overload_shed",
                   "queue full at " + std::to_string(options_.queue_capacity));
      throw OverloadError("request queue full (capacity " +
                          std::to_string(options_.queue_capacity) +
                          "); back off and retry");
    }
    req.queue_span = req.span.child("queue");
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return fut;
}

void ForestServer::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  cv_.notify_all();
}

DrainReport ForestServer::shutdown() { return shutdown(options_.drain_deadline_seconds); }

DrainReport ForestServer::shutdown(double drain_deadline_seconds) {
  // Serialized so a concurrent second shutdown() cannot double-join.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return drain_report_;
    accepting_ = false;
    started_ = true;  // a paused server still drains its backlog
    drain_deadline_ = SteadyClock::now() + to_duration(drain_deadline_seconds);
    stopping_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  // The monitor joins first: workers_/zombies_ are mutated only by it, so
  // once it is gone the join loops below race nothing. Any in-flight hang
  // is finite (inject_hang_seconds), so losing the watchdog here cannot
  // wedge the drain.
  monitor_stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  WallTimer timer;
  for (std::thread& t : workers_) t.join();
  for (std::thread& t : zombies_) t.join();

  DrainReport rep;
  rep.drain_seconds = timer.seconds();
  std::lock_guard<std::mutex> lock(mu_);
  rep.abandoned = queue_.size();
  rep.deadline_hit = !queue_.empty();
  for (Request& r : queue_) {
    if (quotas_) quotas_->release(r.tenant);
    r.promise.set_exception(std::make_exception_ptr(ShutdownError(
        "request abandoned: drain deadline (" + format_seconds(drain_deadline_seconds) +
        "s) passed during shutdown")));
  }
  queue_.clear();
  if (rep.abandoned > 0) counters_.add("requests.abandoned", rep.abandoned);
  rep.drained = drained_after_stop_.load(std::memory_order_relaxed);
  drain_report_ = rep;
  shut_down_ = true;
  return rep;
}

bool ForestServer::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepting_ && started_ && !stopping_.load(std::memory_order_relaxed);
}

bool ForestServer::healthy() const { return !worker_failed_.load(std::memory_order_relaxed); }

void ForestServer::record_run(const Classifier& clf, std::uint64_t generation,
                              const RunReport& report) {
  rollups_.record(to_string(clf.options().variant), to_string(clf.options().backend), generation,
                  report);
}

obs::MetricsSnapshot ForestServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  // Zero-fill the documented names first, then overlay live values: an
  // idle server still exposes the full counter schema.
  for (const std::string& name : obs::counter_catalogue()) snap.counters[name] = 0;
  for (const auto& [name, value] : counters_.snapshot()) snap.counters[name] = value;
  snap.counters["breaker.trips"] = breaker_.trips();
  snap.counters["breaker.probes"] = breaker_.probes();
  snap.gauges["queue_depth"] = static_cast<double>(queue_depth());
  snap.gauges["workers"] = static_cast<double>(options_.num_workers);
  snap.gauges["breaker_state"] = static_cast<double>(breaker_.state());
  snap.gauges["model_generation"] =
      static_cast<double>(current_generation_.load(std::memory_order_acquire));
  snap.histograms = {{"queue_wait", hist_queue_wait_.snapshot()},
                     {"execute", hist_execute_.snapshot()},
                     {"end_to_end", hist_end_to_end_.snapshot()},
                     {"reload", hist_reload_.snapshot()},
                     {"batch_size", hist_batch_size_.snapshot()}};
  snap.rollups = rollups_.snapshot();
  snap.traces = tracer_.summary();
  snap.has_traces = true;
  // Fault-injector fire counts by site (empty unless chaos armed some):
  // a failing chaos run is debuggable from the snapshot alone.
  snap.fault_fired = FaultInjector::global().fired_counts();
  for (const TenantCounters& t : tenant_stats()) {
    obs::TenantStat row;
    row.name = t.name;
    row.weight = t.weight;
    row.reserved = t.reserved;
    row.queued = t.queued;
    row.admitted = t.admitted;
    row.shed = t.shed;
    snap.tenants.push_back(std::move(row));
  }
  return snap;
}

std::vector<TenantCounters> ForestServer::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quotas_ ? quotas_->snapshot() : std::vector<TenantCounters>{};
}

LatencyStats ForestServer::latency() const {
  LatencyStats s;
  s.queue_wait = hist_queue_wait_.snapshot();
  s.execute = hist_execute_.snapshot();
  s.end_to_end = hist_end_to_end_.snapshot();
  s.reload = hist_reload_.snapshot();
  s.batch_size = hist_batch_size_.snapshot();
  return s;
}

std::string LatencyStats::to_markdown() const {
  return latency_table_markdown({{"queue-wait", queue_wait},
                                 {"execute", execute},
                                 {"end-to-end", end_to_end},
                                 {"reload", reload}});
}

std::size_t ForestServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServerStats ForestServer::stats() const {
  ServerStats s;
  s.queue_depth = queue_depth();
  s.breaker = breaker_.state();
  s.breaker_trips = breaker_.trips();
  s.breaker_probes = breaker_.probes();
  s.submitted = counters_.value("requests.submitted");
  s.rejected_overload = counters_.value("requests.rejected_overload");
  s.rejected_quota = counters_.value("requests.rejected_quota");
  s.rejected_shutdown = counters_.value("requests.rejected_shutdown");
  s.shed_deadline = counters_.value("requests.shed_deadline");
  s.deadline_expired = counters_.value("requests.deadline_expired");
  s.completed = counters_.value("requests.completed");
  s.failed = counters_.value("requests.failed");
  s.retries = counters_.value("requests.retried");
  s.fallback_served = counters_.value("fallback.served");
  s.breaker_short_circuited = counters_.value("breaker.short_circuited");
  s.abandoned = counters_.value("requests.abandoned");
  s.model_generation = current_generation_.load(std::memory_order_acquire);
  s.reloads_promoted = counters_.value("reload.promoted");
  s.reloads_rejected = counters_.value("reload.rejected");
  s.reloads_rolled_back = counters_.value("reload.rolled_back");
  ResidentModels resident;
  add_resident(resident);
  s.resident_layouts = resident.layouts();
  s.resident_model_bytes = resident.bytes();
  return s;
}

void ForestServer::add_resident(ResidentModels& into) const {
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    const std::shared_ptr<const WorkerModel> m = model_for(w);
    into.add(*m->primary);
    into.add(*m->fallback);
  }
}

std::vector<ReloadReport> ForestServer::reload_history() const {
  std::lock_guard<std::mutex> lock(reload_history_mu_);
  return reload_history_;
}

void ForestServer::record_reload(const ReloadReport& rep) {
  hist_reload_.record_seconds(rep.total_seconds);
  const std::string gens =
      "gen " + std::to_string(rep.from_generation) + " -> " + std::to_string(rep.to_generation);
  switch (rep.outcome) {
    case ReloadOutcome::Promoted:
      counters_.add("reload.promoted");
      flight_event("reload", "reload_promoted", gens);
      break;
    case ReloadOutcome::NoOp:
      break;
    case ReloadOutcome::RejectedLoad:
    case ReloadOutcome::RejectedValidation:
    case ReloadOutcome::RejectedShadow:
      counters_.add("reload.rejected");
      flight_event("reload", "reload_rejected", gens + ": " + rep.reason);
      break;
    case ReloadOutcome::RolledBackCanary:
    case ReloadOutcome::RolledBackPostPromotion:
      counters_.add("reload.rolled_back");
      flight_event("reload", "reload_rolled_back", gens + ": " + rep.reason);
      break;
  }
  std::lock_guard<std::mutex> lock(reload_history_mu_);
  reload_history_.push_back(rep);
}

ForestServer::Request ForestServer::pop_front_locked() {
  Request req = std::move(queue_.front());
  queue_.pop_front();
  // The quota slot meters *queued* requests; it frees at dequeue so
  // a tenant's share caps its backlog, not its lifetime throughput.
  if (quotas_) quotas_->release(req.tenant);
  return req;
}

void ForestServer::worker_loop(std::size_t w) {
  try {
    const bool batching = options_.batching.enabled();
    for (;;) {
      // Liveness heartbeat for the watchdog (one relaxed store per loop).
      runtimes_[w]->heartbeat_ns.store(steady_ns(), std::memory_order_relaxed);
      std::vector<Request> batch;
      bool deadline_flush = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return stopping_.load(std::memory_order_acquire) || (started_ && !queue_.empty());
        });
        if (stopping_.load(std::memory_order_acquire)) {
          if (queue_.empty()) return;                         // drained clean
          if (SteadyClock::now() >= drain_deadline_) return;  // budget exhausted
        }
        if (queue_.empty()) continue;
        batch.push_back(pop_front_locked());
        if (batching) {
          // Coalesce consecutive shape-compatible requests until the
          // former is full or its flush deadline passes (batcher.hpp).
          BatchFormer former(options_.batching, batch_granularity_);
          // Snapshot the head's shape: push_back below may reallocate
          // `batch`, so holding a reference into it would dangle.
          const auto head_features = batch.front().queries.num_features();
          const auto head_classes = batch.front().queries.num_classes();
          former.add(SteadyClock::now(), batch.front().queries.num_samples(),
                     batch.front().has_deadline, batch.front().deadline);
          for (;;) {
            if (former.should_flush(SteadyClock::now())) {
              // Closed by the wait deadline, not by filling up.
              deadline_flush = !former.full();
              break;
            }
            if (!queue_.empty()) {
              const Request& next = queue_.front();
              // Only shape-compatible neighbours join: a mismatched
              // request runs (or fails validation) alone rather than
              // poisoning a combined batch.
              if (next.queries.num_features() != head_features ||
                  next.queries.num_classes() != head_classes ||
                  !former.fits(next.queries.num_samples())) {
                break;
              }
              former.add(SteadyClock::now(), next.queries.num_samples(), next.has_deadline,
                         next.deadline);
              batch.push_back(pop_front_locked());
              continue;
            }
            if (stopping_.load(std::memory_order_acquire)) break;  // drain: flush now
            // Empty queue: sleep until an arrival or the flush deadline —
            // never a spin.
            if (!cv_.wait_until(lock, former.flush_deadline(), [&] {
                  return stopping_.load(std::memory_order_acquire) || !queue_.empty();
                })) {
              deadline_flush = true;
              break;
            }
          }
        }
      }
      if (batching) {
        hist_batch_size_.record_ns(static_cast<std::uint64_t>(batch.size()));
        CounterDeltas delta;
        ++delta["batch.formed"];
        if (deadline_flush) ++delta["batch.flush_deadline"];
        if (batch.size() >= 2) delta["requests.batched"] += batch.size();
        counters_.add_batch(delta);
      }
      if (batch.size() == 1) {
        // Batches of one take the exact PR-2 single-request path, wrapped
        // in the watchdog's claim window. A false return means the
        // watchdog declared this thread hung and already replaced it.
        if (!dispatch_one(w, std::move(batch.front()))) return;
      } else {
        process_batch(w, std::move(batch));
      }
    }
  } catch (...) {
    // Per-request failures are delivered through promises; only an
    // unexpected infrastructure error lands here. Flag it for healthy()
    // rather than taking the process down from a worker thread.
    worker_failed_.store(true, std::memory_order_relaxed);
  }
}

void ForestServer::process(std::size_t w, Request req) {
  // Chaos site: stall this worker at dispatch as if the shard wedged.
  // Placed before the deadline check so the frozen request lands in the
  // shed path — exactly the deadline storm the cluster router's hedging
  // has to absorb (docs/cluster.md).
  if (FaultInjector::global().enabled() && FaultInjector::global().consume("freeze:shard")) {
    std::this_thread::sleep_for(to_duration(options_.inject_freeze_seconds));
  }
  // Chaos site: requests from the configured surge tenant stall their
  // worker — a noisy neighbor whose requests are heavy as well as
  // frequent, so QoS tests get a deterministic hog.
  if (FaultInjector::global().enabled() && !options_.surge_tenant.empty() &&
      req.tenant == options_.surge_tenant &&
      FaultInjector::global().consume("surge:tenant")) {
    std::this_thread::sleep_for(to_duration(options_.inject_surge_seconds));
  }
  const SteadyClock::time_point now = SteadyClock::now();
  const double queue_s = std::chrono::duration<double>(now - req.enqueued).count();
  hist_queue_wait_.record_seconds(queue_s);
  if (req.queue_span.active()) req.queue_span.set_attr("seconds", queue_s);
  req.queue_span.end();
  CounterDeltas delta;
  if (req.has_deadline && now >= req.deadline) {
    ++delta["requests.shed_deadline"];
    ++delta["requests.failed"];
    counters_.add_batch(delta);
    req.span.set_attr("outcome", "shed_deadline");
    req.span.end();  // retire the trace before the client's future wakes
    req.promise.set_exception(std::make_exception_ptr(DeadlineError(
        "deadline expired after " + format_seconds(queue_s) + "s in queue; shed before dispatch")));
    return;
  }
  finish_one(w, std::move(req), queue_s, std::move(delta));
}

void ForestServer::finish_one(std::size_t w, Request req, double queue_s, CounterDeltas delta) {
  try {
    WallTimer timer;
    trace::Span exec_span = req.span.child("execute");
    if (exec_span.active()) exec_span.set_attr("worker", static_cast<std::uint64_t>(w));
    ServeResult res = execute(w, req, exec_span, delta);
    exec_span.end();
    res.queue_seconds = queue_s;
    res.service_seconds = timer.seconds();
    hist_execute_.record_seconds(res.service_seconds);
    hist_end_to_end_.record_seconds(queue_s + res.service_seconds);
    ++delta["requests.completed"];
    counters_.add_batch(delta);
    req.span.set_attr("outcome", "completed");
    if (stopping_.load(std::memory_order_relaxed)) {
      drained_after_stop_.fetch_add(1, std::memory_order_relaxed);
    }
    // End (and retire) the root span before fulfilling the promise: once the
    // client's future.get() returns, metrics_snapshot() must already count
    // this trace as completed.
    req.span.end();
    req.promise.set_value(std::move(res));
  } catch (...) {
    ++delta["requests.failed"];
    counters_.add_batch(delta);
    req.span.set_attr("outcome", "failed");
    req.span.end();
    req.promise.set_exception(std::current_exception());
  }
}

void ForestServer::process_batch(std::size_t w, std::vector<Request> batch) {
  // Chaos site: stall the whole formed batch at dispatch — the batcher
  // analogue of freeze:shard, driving deadline-shed of *formed* batches
  // in the chaos suite without touching single-request dispatch.
  if (FaultInjector::global().enabled() && FaultInjector::global().consume("freeze:batcher")) {
    std::this_thread::sleep_for(to_duration(options_.inject_freeze_seconds));
  }
  const SteadyClock::time_point now = SteadyClock::now();
  std::vector<Member> live;
  live.reserve(batch.size());
  CounterDeltas delta;
  for (Request& req : batch) {
    const double queue_s = std::chrono::duration<double>(now - req.enqueued).count();
    hist_queue_wait_.record_seconds(queue_s);
    if (req.queue_span.active()) req.queue_span.set_attr("seconds", queue_s);
    req.queue_span.end();
    if (req.has_deadline && now >= req.deadline) {
      // Shed this member alone; its batchmates proceed unharmed.
      ++delta["requests.shed_deadline"];
      ++delta["requests.failed"];
      req.span.set_attr("outcome", "shed_deadline");
      req.span.end();
      req.promise.set_exception(std::make_exception_ptr(DeadlineError(
          "deadline expired after " + format_seconds(queue_s) +
          "s in queue; shed before dispatch")));
      continue;
    }
    live.push_back(Member{std::move(req), queue_s});
  }
  counters_.add_batch(delta);
  if (live.empty()) return;
  if (live.size() == 1) {
    Member m = std::move(live.front());
    finish_one(w, std::move(m.req), m.queue_seconds, CounterDeltas{});
    return;
  }
  execute_members(w, std::move(live));
}

void ForestServer::execute_members(std::size_t w, std::vector<Member> live) {
  // One model snapshot, one breaker verdict, one retry chain for the
  // whole batch: the members were coalesced precisely so they share a
  // backend run, so they share its routing decisions too.
  const std::shared_ptr<const WorkerModel> m = model_for(w);

  const Dataset& first = live.front().req.queries;
  std::size_t rows = 0;
  for (const Member& mem : live) rows += mem.req.queries.num_samples();
  Dataset all(rows, first.num_features(), first.num_classes());
  for (const Member& mem : live) {
    for (std::size_t i = 0; i < mem.req.queries.num_samples(); ++i) {
      all.push_back(mem.req.queries.sample(i), mem.req.queries.label(i));
    }
  }

  // The first member's trace hosts the combined execution spans; every
  // member's own root span still records the batch shape and outcome.
  for (Member& mem : live) {
    if (mem.req.span.active()) {
      mem.req.span.set_attr("batch_members", static_cast<std::uint64_t>(live.size()));
      mem.req.span.set_attr("batch_rows", static_cast<std::uint64_t>(rows));
    }
  }
  trace::Span exec_span = live.front().req.span.child("execute");
  if (exec_span.active()) exec_span.set_attr("worker", static_cast<std::uint64_t>(w));

  SteadyClock::time_point tightest{};
  bool has_tightest = false;
  for (const Member& mem : live) {
    if (!mem.req.has_deadline) continue;
    if (!has_tightest || mem.req.deadline < tightest) tightest = mem.req.deadline;
    has_tightest = true;
  }

  CounterDeltas delta;
  WallTimer timer;
  ServeResult base;  // shared skeleton: report + retries + via_fallback
  bool have = false;
  try {
    const std::string primary_desc = std::string(to_string(m->primary->options().backend)) +
                                     "/" + to_string(m->primary->options().variant);
    if (exec_span.active()) {
      exec_span.set_attr("generation", m->generation);
      exec_span.set_attr("primary", primary_desc);
    }
    std::string primary_note;
    bool primary_errored = false;
    const bool allowed = breaker_.allow_request();
    if (exec_span.active()) exec_span.set_attr("breaker", to_string(breaker_.state()));
    if (allowed) {
      const int tries = 1 + options_.retry.max_retries;
      std::string last_error;
      for (int attempt = 0; attempt < tries && !have; ++attempt) {
        trace::Span attempt_span = exec_span.child("attempt-" + std::to_string(attempt));
        try {
          base.report = run_batch(*m->primary, all, live, attempt_span);
          breaker_.record_success();
          m->health->completed.fetch_add(live.size(), std::memory_order_relaxed);
          record_run(*m->primary, m->generation, base.report);
          have = true;
        } catch (const DeadlineError&) {
          // Resolve a possible HalfOpen probe charge (see execute()).
          breaker_.record_timeout();
          throw;
        } catch (const ResourceError& e) {
          breaker_.record_failure();
          last_error = e.what();
          attempt_span.set_attr("error", last_error);
          if (attempt + 1 < tries) {
            ++base.retries;
            ++delta["requests.retried"];  // one backend attempt retried, N members aboard
            // Backoff gated on the tightest member deadline: if any member
            // would expire during the nap, skip straight to the fallback.
            const double backoff = retry_backoff_seconds(options_.retry, attempt, jitter_[w]);
            if (has_tightest && SteadyClock::now() + to_duration(backoff) >= tightest) break;
            if (backoff > 0.0) {
              std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
            }
          }
        }
      }
      if (!have) {
        primary_errored = true;  // retries exhausted: this model's primary is sick
        primary_note = "primary " + primary_desc + " failed after " +
                       std::to_string(base.retries + 1) + " attempt(s) (" + last_error + ")";
      }
    } else {
      ++delta["breaker.short_circuited"];  // one verdict covers the whole batch
      if (exec_span.active()) exec_span.set_attr("short_circuited", true);
      primary_note = "breaker open: skipped primary " + primary_desc;
    }
    if (!have) {
      trace::Span fallback_span = exec_span.child("fallback");
      base.report = run_batch(*m->fallback, all, live, fallback_span);
      fallback_span.end();
      record_run(*m->fallback, m->generation, base.report);
      base.via_fallback = true;
      delta["fallback.served"] += live.size();
      std::string note = "serve: " + primary_note + " -> cpu-native fallback";
      if (m->generation > 0) note += " [gen " + std::to_string(m->generation) + "]";
      base.report.degradations.push_back(std::move(note));
      if (primary_errored) m->health->primary_errors.fetch_add(1, std::memory_order_relaxed);
      m->health->completed.fetch_add(live.size(), std::memory_order_relaxed);
    }
  } catch (const DeadlineError& e) {
    // The combined run was cancelled — only possible when every member
    // carries a deadline and the *loosest* one passed (run_batch), so
    // every member is expired. Fail them all individually.
    exec_span.end();
    delta["requests.deadline_expired"] += live.size();
    delta["requests.failed"] += live.size();
    counters_.add_batch(delta);
    const std::string what = e.what();
    for (Member& mem : live) {
      mem.req.span.set_attr("outcome", "failed");
      mem.req.span.end();
      mem.req.promise.set_exception(std::make_exception_ptr(DeadlineError(what)));
    }
    return;
  } catch (...) {
    // A fault the batch cannot pin on one member — typically ConfigError
    // from combined validation (one malformed row). Re-run each member
    // alone: the poison request fails with its own error and batchmates
    // complete normally. No promise was fulfilled yet, so no double-set.
    exec_span.end();
    counters_.add_batch(delta);
    for (Member& mem : live) {
      finish_one(w, std::move(mem.req), mem.queue_seconds, CounterDeltas{});
    }
    return;
  }
  exec_span.end();

  // Demultiplex: each member takes its slice of the predictions plus a
  // copy of the shared timing / degradation / backend-counter trail.
  const double service_s = timer.seconds();
  delta["requests.completed"] += live.size();
  counters_.add_batch(delta);
  const bool stopping = stopping_.load(std::memory_order_relaxed);
  std::size_t offset = 0;
  for (Member& mem : live) {
    const std::size_t n = mem.req.queries.num_samples();
    ServeResult res;
    res.report.predictions.assign(base.report.predictions.begin() + offset,
                                  base.report.predictions.begin() + offset + n);
    offset += n;
    res.report.seconds = base.report.seconds;
    res.report.simulated = base.report.simulated;
    res.report.degradations = base.report.degradations;
    res.report.latency = base.report.latency;
    res.report.gpu_counters = base.report.gpu_counters;
    res.report.fpga_report = base.report.fpga_report;
    res.retries = base.retries;
    res.via_fallback = base.via_fallback;
    res.queue_seconds = mem.queue_seconds;
    res.service_seconds = service_s;
    hist_execute_.record_seconds(service_s);
    hist_end_to_end_.record_seconds(mem.queue_seconds + service_s);
    mem.req.span.set_attr("outcome", "completed");
    if (stopping) drained_after_stop_.fetch_add(1, std::memory_order_relaxed);
    mem.req.span.end();
    mem.req.promise.set_value(std::move(res));
  }
}

RunReport ForestServer::run_batch(const Classifier& clf, const Dataset& all,
                                  const std::vector<Member>& live, const trace::Span& span) {
  // Cancellation policy: a combined run may only be cancelled when every
  // member carries a deadline, and then at the *loosest* of them — at
  // that instant every member is past its own deadline, so failing the
  // whole batch strands nobody who still had budget. One deadline-less
  // member pins the run to completion (its batchmates shed at dispatch
  // or simply receive their answer late, same as a slow single request).
  bool all_deadlined = true;
  SteadyClock::time_point loosest{};
  for (const Member& mem : live) {
    if (!mem.req.has_deadline) {
      all_deadlined = false;
      break;
    }
    loosest = std::max(loosest, mem.req.deadline);
  }
  std::function<bool()> cancel = [] { return false; };
  if (all_deadlined) {
    const SteadyClock::time_point deadline = loosest;
    cancel = [deadline] { return SteadyClock::now() >= deadline; };
  }
  Classifier::StreamReport s =
      clf.classify_stream(all, options_.deadline_chunk_size, cancel, span);
  if (!s.completed) {
    throw DeadlineError("deadline expired during batched execution (" +
                        std::to_string(s.predictions.size()) + " of " +
                        std::to_string(all.num_samples()) + " queries done)");
  }
  RunReport r;
  r.predictions = std::move(s.predictions);
  r.seconds = s.total_seconds;
  r.simulated = s.simulated;
  r.degradations = std::move(s.degradations);
  r.latency = std::move(s.chunk_latency);
  r.gpu_counters = std::move(s.gpu_counters);
  r.fpga_report = std::move(s.fpga_report);
  if (span.active()) {
    span.set_attr("seconds", r.seconds);
    span.set_attr("chunks", static_cast<std::uint64_t>(s.chunks));
    span.set_attr("batch_rows", static_cast<std::uint64_t>(all.num_samples()));
    set_backend_span_attrs(span, r);
  }
  return r;
}

ServeResult ForestServer::execute(std::size_t w, Request& req, const trace::Span& span,
                                  CounterDeltas& delta) {
  // One snapshot per request: a concurrent reload flips the slot pointer,
  // but this request runs start to finish on the model it grabbed here.
  const std::shared_ptr<const WorkerModel> m = model_for(w);
  ServeResult out;
  const std::string primary_desc = std::string(to_string(m->primary->options().backend)) + "/" +
                                   to_string(m->primary->options().variant);
  if (span.active()) {
    span.set_attr("generation", m->generation);
    span.set_attr("primary", primary_desc);
  }
  std::string primary_note;
  bool primary_errored = false;
  const bool allowed = breaker_.allow_request();
  if (span.active()) span.set_attr("breaker", to_string(breaker_.state()));
  if (allowed) {
    const int tries = 1 + options_.retry.max_retries;
    std::string last_error;
    for (int attempt = 0; attempt < tries; ++attempt) {
      trace::Span attempt_span = span.child("attempt-" + std::to_string(attempt));
      try {
        out.report = run_one(*m->primary, req, attempt_span, delta);
        breaker_.record_success();
        m->health->completed.fetch_add(1, std::memory_order_relaxed);
        record_run(*m->primary, m->generation, out.report);
        maybe_audit(w, *m, req.queries, out.report, delta);
        return out;
      } catch (const DeadlineError&) {
        // The attempt outlived the request's deadline: not a backend
        // verdict, so no failure is counted — but a HalfOpen probe must
        // still resolve the charge it spent at allow_request(), else the
        // breaker is stuck HalfOpen with zero budget (see record_timeout).
        breaker_.record_timeout();
        throw;
      } catch (const ResourceError& e) {
        breaker_.record_failure();
        last_error = e.what();
        attempt_span.set_attr("error", last_error);
        if (attempt + 1 < tries) {
          ++out.retries;
          ++delta["requests.retried"];
          if (!backoff_sleep(w, attempt, req)) break;  // deadline too close
        }
      }
    }
    primary_errored = true;  // retries exhausted: this model's primary is sick
    primary_note = "primary " + primary_desc + " failed after " +
                   std::to_string(out.retries + 1) + " attempt(s) (" + last_error + ")";
  } else {
    ++delta["breaker.short_circuited"];
    if (span.active()) span.set_attr("short_circuited", true);
    primary_note = "breaker open: skipped primary " + primary_desc;
  }
  // The CPU-native fallback replica — bit-identical predictions, degraded
  // latency only, recorded like every other degradation.
  trace::Span fallback_span = span.child("fallback");
  out.report = run_one(*m->fallback, req, fallback_span, delta);
  fallback_span.end();
  record_run(*m->fallback, m->generation, out.report);
  out.via_fallback = true;
  ++delta["fallback.served"];
  std::string note = "serve: " + primary_note + " -> cpu-native fallback";
  if (m->generation > 0) note += " [gen " + std::to_string(m->generation) + "]";
  out.report.degradations.push_back(std::move(note));
  // Health after the fact: a fallback-served request still completed, but
  // a primary failure is what the canary / post-promotion watch act on.
  if (primary_errored) m->health->primary_errors.fetch_add(1, std::memory_order_relaxed);
  m->health->completed.fetch_add(1, std::memory_order_relaxed);
  return out;
}

RunReport ForestServer::run_one(const Classifier& clf, const Request& req,
                                const trace::Span& span, CounterDeltas& delta) {
  if (!req.has_deadline) {
    RunReport r = clf.classify(req.queries);
    if (span.active()) {
      span.set_attr("seconds", r.seconds);
      set_backend_span_attrs(span, r);
    }
    return r;
  }
  // Time-boxed execution: chunked, cancel polled between chunks, so an
  // expired request stops burning the backend after at most one chunk.
  const SteadyClock::time_point deadline = req.deadline;
  Classifier::StreamReport s =
      clf.classify_stream(req.queries, options_.deadline_chunk_size,
                          [deadline] { return SteadyClock::now() >= deadline; }, span);
  if (!s.completed) {
    ++delta["requests.deadline_expired"];
    throw DeadlineError("deadline expired during execution (" +
                        std::to_string(s.predictions.size()) + " of " +
                        std::to_string(req.queries.num_samples()) + " queries done)");
  }
  RunReport r;
  r.predictions = std::move(s.predictions);
  r.seconds = s.total_seconds;
  r.simulated = s.simulated;
  r.degradations = std::move(s.degradations);
  r.latency = std::move(s.chunk_latency);
  r.gpu_counters = std::move(s.gpu_counters);
  r.fpga_report = std::move(s.fpga_report);
  if (span.active()) {
    span.set_attr("seconds", r.seconds);
    span.set_attr("chunks", static_cast<std::uint64_t>(s.chunks));
    set_backend_span_attrs(span, r);
  }
  return r;
}

// --- Integrity monitor (scrubber / shadow audits / watchdog) ------------

SelfHealStats ForestServer::self_heal() const {
  SelfHealStats s;
  s.scrub_passes = counters_.value("scrub.passes");
  s.scrub_corruptions = counters_.value("scrub.corruptions");
  s.scrub_repairs = counters_.value("scrub.repairs");
  s.audit_sampled = counters_.value("audit.sampled");
  s.audit_mismatches = counters_.value("audit.mismatches");
  s.watchdog_missed_heartbeats = counters_.value("watchdog.missed_heartbeats");
  s.watchdog_worker_restarts = counters_.value("watchdog.worker_restarts");
  return s;
}

bool ForestServer::install_model_if(std::size_t w,
                                    const std::shared_ptr<const WorkerModel>& expected,
                                    std::shared_ptr<const WorkerModel> next) {
  std::lock_guard<std::mutex> lock(slots_[w].mu);
  if (slots_[w].model != expected) return false;
  slots_[w].model = std::move(next);
  return true;
}

bool ForestServer::dispatch_one(std::size_t w, Request req) {
  FaultInjector& inj = FaultInjector::global();
  if (options_.integrity.hang_timeout_seconds <= 0.0) {
    // No watchdog: an injected hang degenerates to a finite stall (the
    // sleep is bounded precisely so undefended runs still drain).
    if (inj.enabled() && inj.consume("hang:worker")) {
      std::this_thread::sleep_for(to_duration(options_.integrity.inject_hang_seconds));
    }
    process(w, std::move(req));
    return true;
  }
  // Publish the request so the watchdog can rescue it, then (possibly)
  // wedge at the hang:worker site, then race the watchdog for the claim.
  // Whoever flips `claimed` first owns the promise — exactly one side
  // fulfils it, so a rescue is never a lost or duplicate response.
  auto inf = std::make_shared<InFlight>();
  inf->dispatched = SteadyClock::now();
  inf->req.emplace(std::move(req));
  {
    std::lock_guard<std::mutex> lock(runtimes_[w]->mu);
    runtimes_[w]->inflight = inf;
  }
  if (inj.enabled() && inj.consume("hang:worker")) {
    std::this_thread::sleep_for(to_duration(options_.integrity.inject_hang_seconds));
  }
  std::optional<Request> claimed;
  {
    std::lock_guard<std::mutex> lock(inf->mu);
    if (!inf->claimed) {
      inf->claimed = true;
      claimed.emplace(std::move(*inf->req));
      inf->req.reset();
    }
  }
  {
    std::lock_guard<std::mutex> lock(runtimes_[w]->mu);
    if (runtimes_[w]->inflight == inf) runtimes_[w]->inflight.reset();
  }
  if (!claimed) return false;  // rescued: this thread was declared hung
  process(w, std::move(*claimed));
  return true;
}

void ForestServer::maybe_audit(std::size_t w, const WorkerModel& m, const Dataset& queries,
                               RunReport& report, CounterDeltas& delta) {
  const std::size_t every = options_.integrity.audit_sample_every;
  if (every == 0) return;
  if (audit_tick_.fetch_add(1, std::memory_order_relaxed) % every != 0) return;
  ++delta["audit.sampled"];
  RunReport oracle;
  try {
    oracle = m.fallback->classify(queries);
  } catch (...) {
    return;  // an oracle failure is its own incident, not replica evidence
  }
  if (oracle.predictions == report.predictions) {
    runtimes_[w]->audit_streak.store(0, std::memory_order_relaxed);
    return;
  }
  ++delta["audit.mismatches"];
  flight_event("integrity", "audit_mismatch", "worker " + std::to_string(w));
  // The oracle is authoritative — every variant/backend agrees
  // bit-for-bit on an uncorrupted layout (the cross-backend equivalence
  // the tier-1 suite pins) — so serve its answer and note the divergence.
  report.predictions = oracle.predictions;
  report.degradations.push_back("audit: worker " + std::to_string(w) +
                                " diverged from the cpu oracle -> served oracle result");
  const int streak = runtimes_[w]->audit_streak.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= options_.integrity.audit_mismatch_threshold) {
    // One mismatch could be the audit racing something legitimate; K in a
    // row on one replica cannot. Hand the repair to the monitor thread.
    runtimes_[w]->repair_requested.store(true, std::memory_order_release);
  }
}

void ForestServer::monitor_loop() {
  FaultInjector& inj = FaultInjector::global();
  const IntegrityOptions& iopt = options_.integrity;
  TimePoint last_scrub = SteadyClock::now();
  while (!monitor_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(to_duration(iopt.monitor_poll_seconds));
    if (monitor_stop_.load(std::memory_order_acquire)) break;
    // Chaos: corrupt one replica copy-and-swap (readers never race the
    // flip; only the scrubber's CRC or an audit can tell).
    if (inj.enabled() && inj.consume("corrupt:replica")) inject_replica_corruption();
    if (iopt.hang_timeout_seconds > 0.0) watchdog_scan();
    for (std::size_t w = 0; w < options_.num_workers; ++w) {
      if (runtimes_[w]->repair_requested.exchange(false, std::memory_order_acq_rel)) {
        repair_replica(w, model_for(w));
      }
    }
    if (iopt.scrub_interval_seconds > 0.0 &&
        SteadyClock::now() - last_scrub >= to_duration(iopt.scrub_interval_seconds)) {
      last_scrub = SteadyClock::now();
      scrub_pass();
    }
  }
}

void ForestServer::watchdog_scan() {
  const TimePoint now = SteadyClock::now();
  const SteadyClock::duration threshold = to_duration(options_.integrity.hang_timeout_seconds);
  const std::uint64_t now_ns = steady_ns();
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    std::shared_ptr<InFlight> inf;
    {
      std::lock_guard<std::mutex> lock(runtimes_[w]->mu);
      inf = runtimes_[w]->inflight;
    }
    if (!inf || now - inf->dispatched < threshold) continue;
    // Corroborate with the loop heartbeat: a worker that stamped recently
    // is alive (mid-claim), whatever the in-flight timestamp says.
    const std::uint64_t beat = runtimes_[w]->heartbeat_ns.load(std::memory_order_relaxed);
    if (now_ns - beat < static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(threshold)
                                .count())) {
      continue;
    }
    std::optional<Request> rescued;
    {
      std::lock_guard<std::mutex> lock(inf->mu);
      if (!inf->claimed) {
        inf->claimed = true;
        rescued.emplace(std::move(*inf->req));
        inf->req.reset();
      }
    }
    if (!rescued) continue;  // the worker woke up and claimed first
    counters_.add("watchdog.missed_heartbeats");
    watchdog_answer(w, std::move(*rescued));
    // The wedged thread fails its claim and exits; park its handle and
    // run a replacement in its slot (joined with everyone at shutdown).
    zombies_.push_back(std::move(workers_[w]));
    workers_[w] = std::thread([this, w] { worker_loop(w); });
    counters_.add("watchdog.worker_restarts");
    flight_event("integrity", "watchdog_restart", "worker " + std::to_string(w));
    {
      std::lock_guard<std::mutex> lock(runtimes_[w]->mu);
      if (runtimes_[w]->inflight == inf) runtimes_[w]->inflight.reset();
    }
  }
}

void ForestServer::watchdog_answer(std::size_t w, Request req) {
  const std::shared_ptr<const WorkerModel> m = model_for(w);
  const double queue_s = std::chrono::duration<double>(SteadyClock::now() - req.enqueued).count();
  hist_queue_wait_.record_seconds(queue_s);
  if (req.queue_span.active()) req.queue_span.set_attr("seconds", queue_s);
  req.queue_span.end();
  CounterDeltas delta;
  try {
    WallTimer timer;
    trace::Span exec_span = req.span.child("execute");
    if (exec_span.active()) {
      exec_span.set_attr("worker", static_cast<std::uint64_t>(w));
      exec_span.set_attr("watchdog_rescue", true);
    }
    ServeResult res;
    res.report = m->fallback->classify(req.queries);
    exec_span.end();
    record_run(*m->fallback, m->generation, res.report);
    res.via_fallback = true;
    ++delta["fallback.served"];
    std::string note = "watchdog: worker " + std::to_string(w) +
                       " hung past hang_timeout -> answered on cpu-native fallback";
    if (m->generation > 0) note += " [gen " + std::to_string(m->generation) + "]";
    res.report.degradations.push_back(std::move(note));
    res.queue_seconds = queue_s;
    res.service_seconds = timer.seconds();
    hist_execute_.record_seconds(res.service_seconds);
    hist_end_to_end_.record_seconds(queue_s + res.service_seconds);
    ++delta["requests.completed"];
    counters_.add_batch(delta);
    m->health->completed.fetch_add(1, std::memory_order_relaxed);
    req.span.set_attr("outcome", "completed");
    if (stopping_.load(std::memory_order_relaxed)) {
      drained_after_stop_.fetch_add(1, std::memory_order_relaxed);
    }
    req.span.end();
    req.promise.set_value(std::move(res));
  } catch (...) {
    ++delta["requests.failed"];
    counters_.add_batch(delta);
    req.span.set_attr("outcome", "failed");
    req.span.end();
    req.promise.set_exception(std::current_exception());
  }
}

void ForestServer::scrub_pass() {
  // Slots normally share one model: verify each distinct replica once.
  std::map<const Classifier*, bool> verified;
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    const std::shared_ptr<const WorkerModel> m = model_for(w);
    if (!m->layout_crc) continue;  // FilBaseline: nothing resident to scrub
    counters_.add("scrub.passes");
    const auto [it, fresh] = verified.try_emplace(m->primary.get(), false);
    if (fresh) it->second = classifier_layout_crc(*m->primary) == m->layout_crc;
    if (it->second) continue;
    counters_.add("scrub.corruptions");
    flight_event("integrity", "scrub_corruption", "worker " + std::to_string(w));
    repair_replica(w, m);
  }
}

void ForestServer::repair_replica(std::size_t w, std::shared_ptr<const WorkerModel> suspect) {
  // Quarantine first: the CPU oracle replica (its own copy of the forest
  // and layout, so damage to the primary's storage never reaches it —
  // audits and rescues already trust it) takes over as primary, so this
  // worker keeps answering correctly for the whole rebuild.
  auto degraded = std::make_shared<WorkerModel>(*suspect);
  degraded->primary = suspect->fallback;
  degraded->layout_crc = classifier_layout_crc(*suspect->fallback);
  if (!install_model_if(w, suspect, degraded)) return;  // a reload got there first
  flight_event("integrity", "replica_quarantined", "worker " + std::to_string(w));
  runtimes_[w]->audit_streak.store(0, std::memory_order_relaxed);

  // First choice: the shared installation of this generation that the
  // other slots hold, if it is not the suspect and its layout still
  // verifies — corrupt:replica damages a private copy on one worker, and
  // reinstalling the original keeps one model resident.
  std::shared_ptr<const WorkerModel> fresh = serving();
  if (fresh == suspect || fresh->generation != suspect->generation ||
      (fresh->layout_crc && classifier_layout_crc(*fresh->primary) != fresh->layout_crc)) {
    // Rebuild. Preferred source: the store's current generation, whose
    // blob CRCs are re-verified on read; otherwise recompile from the
    // in-memory forest.
    std::shared_ptr<const CompiledModel> rebuilt;
    if (!options_.integrity.rebuild_store_dir.empty()) {
      try {
        const ModelStore store = ModelStore::open(options_.integrity.rebuild_store_dir);
        const std::optional<std::uint64_t> cur = store.current();
        if (cur && *cur == suspect->generation) {
          rebuilt = compile_model(store.load(*cur), classifier_options_, true);
        }
      } catch (const std::exception&) {
        rebuilt = nullptr;  // unusable store: recompile below instead
      }
    }
    if (!rebuilt) {
      try {
        LoadedModel lm;
        lm.generation = suspect->generation;
        lm.forest = suspect->fallback->forest();
        rebuilt = compile_model(std::move(lm), classifier_options_, true);
      } catch (const std::exception&) {
        return;  // keep serving degraded-but-correct on the oracle
      }
    }
    // Same health ledger: a reload canary or watch may be reading it.
    fresh = make_worker_model(*rebuilt, suspect->health);
    // A corrupted shared installation is replaced for every slot the
    // scrubber repairs after this one.
    std::lock_guard<std::mutex> lock(serving_mu_);
    if (serving_ == suspect) serving_ = fresh;
  }
  if (install_model_if(w, degraded, std::move(fresh))) {
    counters_.add("scrub.repairs");
    flight_event("integrity", "replica_repaired", "worker " + std::to_string(w));
  }
}

void ForestServer::inject_replica_corruption() {
  const std::size_t w = corrupt_rr_++ % options_.num_workers;
  const std::shared_ptr<const WorkerModel> m = model_for(w);
  if (!m->layout_crc) return;  // FilBaseline: no resident layout to corrupt
  // Copy-and-swap: a private corrupted copy of the layout goes into this
  // slot only. The reference CRC stays pristine, so the live layout now
  // drifts from it, which only the scrubber/audits can see.
  auto poisoned = std::make_shared<WorkerModel>(*m);
  try {
    poisoned->primary = std::make_shared<const Classifier>(
        m->primary->options().variant == Variant::Csr
            ? m->primary->with_layout(corrupt_replica_copy(m->primary->csr()))
            : m->primary->with_layout(corrupt_replica_copy(m->primary->hierarchical())));
  } catch (const std::exception&) {
    return;  // e.g. a stump forest with no internal node: nothing to flip
  }
  install_model_if(w, m, std::move(poisoned));
}

double retry_backoff_seconds(const RetryPolicy& policy, int attempt, Xoshiro256& rng) {
  // ldexp scales by 2^attempt exactly (no libm rounding variance), so the
  // whole expression is reproducible bit-for-bit across platforms.
  const double exponential = std::ldexp(policy.backoff_base_seconds, attempt);
  double backoff = std::min(exponential, policy.backoff_max_seconds);
  backoff *= 1.0 + policy.jitter_fraction * rng.uniform(-1.0, 1.0);
  return backoff;
}

bool ForestServer::backoff_sleep(std::size_t w, int attempt, const Request& req) {
  // Deterministic jitter (per-worker stream of the server seed) spreads
  // retries from concurrent workers so they do not re-converge on the
  // recovering backend in lockstep.
  const double backoff = retry_backoff_seconds(options_.retry, attempt, jitter_[w]);
  if (req.has_deadline &&
      SteadyClock::now() + to_duration(backoff) >= req.deadline) {
    return false;
  }
  if (backoff > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  return true;
}

}  // namespace hrf::serve
