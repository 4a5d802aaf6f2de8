#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "fpgasim/config.hpp"
#include "fpgasim/pipeline.hpp"
#include "gpusim/config.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpukernels/packed_node.hpp"
#include "util/histogram.hpp"
#include "util/trace.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"
#include "train/tree_trainer.hpp"

namespace hrf {

/// Where inference runs.
enum class Backend {
  CpuNative,  // OpenMP on the host, wall-clock timing
  GpuSim,     // simulated TITAN Xp (transaction-level SIMT model)
  FpgaSim,    // modeled Alveo U250 (analytical pipeline model)
};

/// Which code variant / layout runs (paper §3.2).
enum class Variant {
  Csr,            // baseline CSR layout
  Independent,    // hierarchical, one thread/work-item per query
  Collaborative,  // hierarchical, lock-step subtree sweeps
  Hybrid,         // hierarchical, on-chip root subtree + independent tail
  FilBaseline,    // cuML FIL stand-in (GpuSim only)
};

const char* to_string(Backend b);
const char* to_string(Variant v);

struct RunReport;

/// Stamps a run's backend metrics onto a span as `gpu.*` / `fpga.*`
/// attributes (branch efficiency, transactions/request, memory-service
/// mix, II stalls...). No-op for inactive spans and CPU-native runs.
void set_backend_span_attrs(const trace::Span& span, const RunReport& report);

/// Everything a classification run reports.
struct RunReport {
  std::vector<std::uint8_t> predictions;
  /// Simulated seconds for GpuSim/FpgaSim; wall-clock seconds for CpuNative.
  double seconds = 0.0;
  bool simulated = true;
  std::optional<gpusim::Counters> gpu_counters;
  std::optional<gpusim::Timing> gpu_timing;
  std::optional<fpgasim::FpgaReport> fpga_report;

  /// Human-readable trail of every retry and fallback step taken to
  /// produce this result (empty when the configured backend succeeded
  /// first try). See FallbackPolicy: callers observe degraded runs here
  /// instead of silently getting different performance.
  std::vector<std::string> degradations;
  bool degraded() const { return !degradations.empty(); }

  /// Chunk-level latency distribution when this report came from the
  /// chunked path (classify_stream, serving's time-boxed execution):
  /// one sample per chunk, in ns. nullopt for one-shot classify() runs,
  /// which have a single number (`seconds`) rather than a distribution.
  std::optional<HistogramSnapshot> latency;

  /// Fraction of predictions matching `labels`.
  double accuracy(std::span<const std::uint8_t> labels) const;
};

/// Graceful-degradation policy for classify(): when a simulated backend
/// raises ResourceError, the classifier walks a degradation chain instead
/// of failing the request. In order (each step gated by its flag):
///   1. retry the failing configuration up to `max_retries` extra times
///      (transient faults);
///   2. shrink the hybrid root subtree (RSD) to the largest depth that
///      fits the backend's on-chip memory and rebuild the layout;
///   3. downgrade the variant: Hybrid/Collaborative -> Independent,
///      FilBaseline -> Csr (same backend);
///   4. fall back to Backend::CpuNative as the last resort.
/// Predictions are bit-identical along the whole chain (all variants and
/// backends agree functionally); only performance degrades. Every step is
/// recorded in RunReport::degradations.
struct FallbackPolicy {
  bool enabled = false;
  int max_retries = 1;
  bool allow_layout_shrink = true;
  bool allow_variant_downgrade = true;
  bool allow_cpu_fallback = true;
};

/// Classifier configuration. Layout parameters apply to the hierarchical
/// variants; device configs to their respective backends.
struct ClassifierOptions {
  Variant variant = Variant::Hybrid;
  Backend backend = Backend::GpuSim;
  HierConfig layout{};
  gpusim::DeviceConfig gpu = gpusim::DeviceConfig::titan_xp();
  fpgasim::FpgaConfig fpga = fpgasim::FpgaConfig::alveo_u250();
  fpgasim::CuLayout fpga_layout{};
  bool fpga_split_stage1 = false;
  FallbackPolicy fallback{};
};

/// The library's front door: holds a trained forest plus the inference
/// layout(s) it was compiled into, and dispatches classification to the
/// configured backend/variant.
///
/// The forest, the compiled layout and, on GpuSim, the packed node array
/// the hierarchical kernels read are immutable and held by shared_ptr, so
/// copies and twin() share one compiled model instead of rebuilding it.
///
///   Forest f = train_forest(train_set, TrainConfig{});
///   Classifier clf(std::move(f), {.variant = Variant::Hybrid,
///                                 .backend = Backend::GpuSim});
///   RunReport r = clf.classify(test_set);
///
/// Invalid combinations (e.g. FilBaseline on FpgaSim) throw ConfigError at
/// construction; resource overruns (root subtree vs shared memory/BRAM)
/// throw ResourceError at classify time, mirroring real launch failures.
class Classifier {
 public:
  Classifier(Forest forest, ClassifierOptions options);

  /// Wraps a forest plus a *precompiled* layout blob (layout_io), skipping
  /// the layout build — the production path where model compilation
  /// happened offline. The layout must match the forest's feature/class
  /// shape (ConfigError otherwise); variant must be Csr for a CSR layout,
  /// hierarchical for a hierarchical one.
  Classifier(Forest forest, CsrForest layout, ClassifierOptions options);
  Classifier(Forest forest, HierarchicalForest layout, ClassifierOptions options);

  /// Trains a forest on `train` and wraps it.
  static Classifier train(const Dataset& train, const TrainConfig& train_config,
                          ClassifierOptions options);

  /// Loads a serialized forest (Forest::save) and wraps it.
  static Classifier load(const std::string& path, ClassifierOptions options);

  /// A classifier for different backend/variant `options` over this one's
  /// storage: the forest is shared, and so is every compiled layout and
  /// packed node array the new options can use unchanged (same layout
  /// config); only what is missing is compiled. The serving layer builds
  /// its CPU fallback replica this way.
  Classifier twin(ClassifierOptions options) const;

  /// Copy-and-swap: the same forest and options over a replacement layout
  /// of the same kind (ConfigError on a kind or shape mismatch). This
  /// classifier is left untouched.
  Classifier with_layout(CsrForest layout) const;
  Classifier with_layout(HierarchicalForest layout) const;

  /// Classifies a query batch. Queries are validated up front: a feature
  /// count differing from the model's, or any NaN/Inf feature value,
  /// throws ConfigError before any traversal runs. ResourceError from a
  /// simulated backend is retried/degraded per options().fallback when
  /// enabled (see FallbackPolicy), else propagated.
  RunReport classify(const Dataset& queries) const;

  /// Chunked classification for latency-bounded serving: classifies
  /// `queries` in chunks of `chunk_size`, reporting total and worst-chunk
  /// time. Predictions are identical to classify() — chunking only
  /// affects scheduling (verified by tests).
  struct StreamReport {
    std::vector<std::uint8_t> predictions;
    double total_seconds = 0.0;
    double max_chunk_seconds = 0.0;
    std::size_t chunks = 0;
    bool simulated = true;
    /// False when a cancel callback stopped the run early; `predictions`
    /// then holds only the chunks finished before cancellation.
    bool completed = true;
    /// Degradation trail aggregated (deduplicated) across chunks; see
    /// RunReport::degradations.
    std::vector<std::string> degradations;
    /// Per-chunk latency histogram (one record per finished chunk, in
    /// ns of `seconds` — simulated or wall per the backend).
    HistogramSnapshot chunk_latency;
    /// Backend hardware counters summed across finished chunks (GpuSim
    /// backends), and the FPGA pipeline report aggregated the same way
    /// (seconds/cycles summed, descriptive fields from the first chunk).
    /// nullopt when the serving backend produced neither.
    std::optional<gpusim::Counters> gpu_counters;
    std::optional<fpgasim::FpgaReport> fpga_report;
  };
  StreamReport classify_stream(const Dataset& queries, std::size_t chunk_size) const;

  /// Cancellable variant: `cancel` is polled between chunks (never
  /// mid-chunk), and a true return abandons the remaining work with
  /// `completed == false`. This is the serving layer's execution
  /// time-box: a worker passes a deadline check so an expired request
  /// stops burning the backend after at most one chunk.
  StreamReport classify_stream(const Dataset& queries, std::size_t chunk_size,
                               const std::function<bool()>& cancel) const;

  /// Traced variant: when `parent` is an active span, each chunk gets a
  /// "chunk-N" child span carrying its duration and backend counter
  /// attributes (see set_backend_span_attrs). Inactive spans cost nothing,
  /// so the serving layer calls this unconditionally.
  StreamReport classify_stream(const Dataset& queries, std::size_t chunk_size,
                               const std::function<bool()>& cancel,
                               const trace::Span& parent) const;

  const Forest& forest() const { return *forest_; }
  const ClassifierOptions& options() const { return options_; }
  /// The hierarchical layout (built lazily; throws for CSR/FIL variants).
  const HierarchicalForest& hierarchical() const;
  const CsrForest& csr() const;

 private:
  using PackedNodes = std::vector<gpukernels::PackedNode>;

  void check_variant_backend() const;
  void validate_queries(const Dataset& queries) const;
  /// Holds `forest` with no layout yet; every public path then checks
  /// the options and compiles or installs one.
  Classifier(std::shared_ptr<const Forest> forest, ClassifierOptions options);
  /// Adopts a precompiled layout (kind and shape checked).
  void install(CsrForest layout);
  void install(HierarchicalForest layout);
  /// Compiles whatever layouts options_ needs and this classifier does not
  /// hold yet: the CSR or hierarchical layout, plus its packed nodes on
  /// GpuSim.
  void compile();
  /// One backend execution against explicit layouts (the fallback chain
  /// swaps these without touching the classifier's own state). `packed`
  /// is hier's packed node array, required for hierarchical GpuSim runs.
  RunReport run_backend(Backend backend, Variant variant, const CsrForest* csr,
                        const HierarchicalForest* hier, const PackedNodes* packed,
                        const Dataset& queries) const;
  /// Largest RSD whose root subtree fits the configured backend's on-chip
  /// memory (0 when not applicable).
  int max_fitting_rsd() const;

  friend class ResidentModels;

  std::shared_ptr<const Forest> forest_;
  ClassifierOptions options_;
  std::shared_ptr<const CsrForest> csr_;
  std::shared_ptr<const HierarchicalForest> hier_;
  std::shared_ptr<const PackedNodes> packed_;  // GpuSim + hierarchical only
};

/// Memory held by a set of classifiers. Storage that classifiers share
/// (the forest, a compiled layout, a packed node array) counts once, so a
/// model installed in many places reads as one.
class ResidentModels {
 public:
  void add(const Classifier& clf);
  /// Distinct compiled layouts (CSR or hierarchical) seen.
  std::size_t layouts() const;
  /// Bytes of the distinct forests, layouts and packed node arrays seen.
  std::size_t bytes() const;

 private:
  std::map<const void*, std::size_t> layouts_;  // layout -> its bytes
  std::map<const void*, std::size_t> other_;    // forests, packed arrays
};

}  // namespace hrf
