// Declarative search spaces for the repo's performance knobs.
//
// A SearchSpace is an ordered list of named dimensions, each with an ordered
// candidate list and a default index. The search engine (tuner.h) works in
// index space — a point is one candidate index per dimension — so the space
// is finite, enumerable and cheap to hash; values_at() maps a point back to
// the knob values an evaluation callback consumes.
//
// The canonical spaces below cover the knobs a search actually moves: the
// functional offload engine's tiles and PackCache capacity, the LU panel's
// critical-path kernels, the GEMM micro-kernel and cache blocking, the solve
// server's scheduling, the collective dispatch and the HPCC workloads. The
// paper's hand-picked choices the models already reproduce (the (Mt, Nt)
// candidate table, the Table II panel depth, the super-stage cap, the
// look-ahead scheme) are constants at their engines, not spaces.
// Registering a new knob = adding a dimension (or a new space) here with the
// name knobs.h recognizes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xphi::tune {

struct KnobRange {
  std::string name;
  std::vector<long long> values;  // ordered candidates
  std::size_t default_index = 0;
};

class SearchSpace {
 public:
  /// Adds a dimension. `default_value` must be one of `values` (falls back
  /// to the first candidate if not). Returns *this for chaining.
  SearchSpace& add(std::string name, std::vector<long long> values,
                   long long default_value);

  std::size_t dims() const noexcept { return dims_.size(); }
  const KnobRange& dim(std::size_t i) const { return dims_[i]; }

  /// One candidate index per dimension, all at their defaults.
  std::vector<std::size_t> default_point() const;

  /// Knob values of `point` (one index per dimension, clamped).
  std::vector<long long> values_at(const std::vector<std::size_t>& point) const;

  /// Index of the candidate in dimension `d` closest to `value` (ties go to
  /// the smaller candidate) — how a model-computed seed snaps to the space.
  std::size_t nearest_index(std::size_t d, long long value) const;

  /// Total number of points (product of dimension sizes, saturating).
  std::size_t points() const noexcept;

 private:
  std::vector<KnobRange> dims_;
};

/// Canonical spaces for the existing knobs.
namespace spaces {

/// Functional offload engine: host-scale tiles plus PackCache capacity.
SearchSpace functional_offload();

/// LU panel critical path: recursive-panel cutoff nb_min and the fused
/// LASWP column chunk (blas::PanelOptions).
SearchSpace panel();

/// GEMM micro-kernel co-design space: registry shape (mr*100 + nr, 0 =
/// auto-dispatch) plus the mc/kc/nc cache blocking of blas::GemmOptions
/// (0 = unbounded for mc/nc).
SearchSpace microkernel();

/// Solve-server scheduling: batch coalescing window (us), LU-cache shard
/// count and total capacity, interactive lane weight, per-lane admission
/// bound (serve::ServeConfig::apply consumes the tuned record).
SearchSpace serve();

/// net::World collective dispatch: the tree/ring crossover (payloads above
/// it, in doubles, broadcast over the segmented ring; at or below it, the
/// binomial tree) and the ring's pipeline segment. Both land on the World
/// via set_collective_crossover_doubles / set_ring_segment_doubles (the
/// distributed HPL driver forwards them from DistributedHplOptions).
SearchSpace net();

/// HPCC PTRANS: the block-cyclic block size of the transpose exchange.
SearchSpace ptrans();

/// HPCC GUPS / RandomAccess: per-destination batch coalescing and the
/// rounds-ahead look-ahead window (also the local update-queue depth).
SearchSpace gups();

/// HPCC STREAM: the ThreadPool parallel_for claiming grain in elements.
SearchSpace stream();

/// The analytic starting point for spaces::microkernel(): the dispatched
/// kernel shape and blas/block_model.h's mc/kc/nc for the probed cache
/// geometry, snapped onto the space's candidate grid. Feed it to
/// SearchOptions::start — the co-design paper's point: seed the search at
/// the model's answer and spend the (smaller) budget refining, not
/// rediscovering.
std::vector<std::size_t> microkernel_seed(const SearchSpace& space);

}  // namespace spaces

}  // namespace xphi::tune
