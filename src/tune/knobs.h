// The unified performance-knob record shared by every tunable engine.
//
// Before this subsystem each engine carried its own copy of the knobs it
// cared about (OffloadDgemmConfig{mt,nt} and FunctionalOffloadConfig{mt,nt}
// were two parallel copies of the same tile fields; pack-cache capacity,
// DGEMM k-chunking, the super-stage regrouping policy and the look-ahead
// scheme were hard-coded at their call sites). tune::Knobs is the single
// struct those engines now embed or consult, and it is also the decoded form
// of a TuningDB entry: Tuner::best() returns one.
//
// Field value 0 (or -1 for `lookahead`) means "not set": the consumer keeps
// its own default. That convention is what lets a DB entry tuned for one
// engine carry only the knobs that engine searched over.
//
// Registering a new knob is three edits (documented in DESIGN.md §10):
// add the field here with a "not set" default, name it in knob_names() /
// knobs_from_values() / values_from_knobs(), and give it a candidate list in
// search_space.h's canonical spaces. Old DB files keep loading: unknown
// names in a file are ignored, missing names stay "not set".
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace xphi::tune {

struct Knobs {
  // Offload C-tile extents (paper Section V-B's runtime-adaptive (Mt, Nt)).
  std::size_t mt = 0;  // 0 = engine default / runtime-adaptive
  std::size_t nt = 0;
  // blas::PackCache capacity for the functional offload engine.
  std::size_t pack_cache_entries = 0;  // 0 = derived from the tile grid
  // gemm_tiled k-chunk (the paper's outer-product panel depth k).
  std::size_t chunk_k = 0;  // 0 = engine default (300)
  // Super-stage regrouping policy of the native LU dynamic scheduler:
  // cap on the per-group core count, and the stage quantum at which the
  // grouping may be revised (1 = revise whenever the model asks).
  int superstage_max_group = 0;     // 0 = total_cores / 2 (the paper's cap)
  std::size_t superstage_period = 0;  // 0 = revise at any stage
  // Hybrid-HPL look-ahead scheme (core::Lookahead: 0 none, 1 basic,
  // 2 pipelined) and the pipelined scheme's column-subset count.
  int lookahead = -1;       // -1 = caller default
  int pipeline_subsets = 0;  // 0 = caller default
  // LU critical-path kernels (blas::PanelOptions): recursion cutoff of the
  // recursive panel factorization and the fused-LASWP column chunk.
  std::size_t panel_nb_min = 0;     // 0 = kernel default (8)
  std::size_t laswp_col_chunk = 0;  // 0 = kernel default (kLaswpColChunk)
  // GEMM micro-kernel registry shape (mr*100 + nr, e.g. 408 = 4x8) and the
  // mc/nc cache blocking of blas::GemmOptions. All three are
  // bitwise-neutral (unlike chunk_k); blas/block_model.h supplies the
  // analytic starting point the tuner refines.
  int microkernel = 0;      // 0 = auto-dispatch (widest supported)
  std::size_t gemm_mc = 0;  // 0 = unbounded
  std::size_t gemm_nc = 0;  // 0 = unbounded
  // Solve-server scheduling knobs (serve::ServeConfig::apply): batch-lane
  // coalescing window (microseconds), LU-cache geometry, interactive lane
  // weight and the per-lane admission bound.
  std::size_t serve_batch_window_us = 0;  // 0 = server default (200)
  std::size_t serve_cache_shards = 0;     // 0 = server default (4)
  std::size_t serve_cache_capacity = 0;   // 0 = server default (32)
  int serve_lane_weight = 0;              // 0 = server default (4)
  std::size_t serve_admission_queue = 0;  // 0 = server default (64)
  // net::World size-adaptive collectives (World::set_collective_crossover_
  // doubles / set_ring_segment_doubles): bcast_auto payloads above the
  // crossover (in doubles) take the segmented ring, smaller ones the
  // binomial tree; the segment is the ring's pipeline chunk.
  std::size_t net_crossover_doubles = 0;  // 0 = World default (1024)
  std::size_t net_ring_segment = 0;       // 0 = World default (1024)
  // Mixed-precision HPL (hpl::MixedOptions): panel width of the fp32
  // factorization. fp32 tiles are half the bytes, so the sweet spot can sit
  // wider than the fp64 nb on the same cache budget.
  std::size_t mixed_nb = 0;  // 0 = solver default (64)
  // HPCC workload knobs (src/hpcc): PTRANS block-cyclic block size, GUPS
  // batch coalescing and look-ahead window, STREAM parallel_for grain.
  std::size_t ptrans_nb = 0;      // 0 = workload default (64)
  std::size_t gups_batch = 0;     // 0 = workload default (1024)
  std::size_t gups_lookahead = 0; // 0 = workload default (4)
  std::size_t stream_chunk = 0;   // 0 = pool-adaptive grain
};

/// Name/value pairs, one per *set* field — the encoded form a TuningDB entry
/// stores. Inverse of knobs_from_values for set fields.
inline std::vector<std::pair<std::string, long long>> values_from_knobs(
    const Knobs& k) {
  std::vector<std::pair<std::string, long long>> v;
  if (k.mt != 0) v.emplace_back("mt", static_cast<long long>(k.mt));
  if (k.nt != 0) v.emplace_back("nt", static_cast<long long>(k.nt));
  if (k.pack_cache_entries != 0)
    v.emplace_back("pack_cache_entries",
                   static_cast<long long>(k.pack_cache_entries));
  if (k.chunk_k != 0)
    v.emplace_back("chunk_k", static_cast<long long>(k.chunk_k));
  if (k.superstage_max_group != 0)
    v.emplace_back("superstage_max_group", k.superstage_max_group);
  if (k.superstage_period != 0)
    v.emplace_back("superstage_period",
                   static_cast<long long>(k.superstage_period));
  if (k.lookahead >= 0) v.emplace_back("lookahead", k.lookahead);
  if (k.pipeline_subsets != 0)
    v.emplace_back("pipeline_subsets", k.pipeline_subsets);
  if (k.panel_nb_min != 0)
    v.emplace_back("panel_nb_min", static_cast<long long>(k.panel_nb_min));
  if (k.laswp_col_chunk != 0)
    v.emplace_back("laswp_col_chunk",
                   static_cast<long long>(k.laswp_col_chunk));
  if (k.microkernel != 0) v.emplace_back("microkernel", k.microkernel);
  if (k.gemm_mc != 0)
    v.emplace_back("gemm_mc", static_cast<long long>(k.gemm_mc));
  if (k.gemm_nc != 0)
    v.emplace_back("gemm_nc", static_cast<long long>(k.gemm_nc));
  if (k.serve_batch_window_us != 0)
    v.emplace_back("serve_batch_window",
                   static_cast<long long>(k.serve_batch_window_us));
  if (k.serve_cache_shards != 0)
    v.emplace_back("serve_cache_shards",
                   static_cast<long long>(k.serve_cache_shards));
  if (k.serve_cache_capacity != 0)
    v.emplace_back("serve_cache_capacity",
                   static_cast<long long>(k.serve_cache_capacity));
  if (k.serve_lane_weight != 0)
    v.emplace_back("serve_lane_weight", k.serve_lane_weight);
  if (k.serve_admission_queue != 0)
    v.emplace_back("serve_admission_queue",
                   static_cast<long long>(k.serve_admission_queue));
  if (k.net_crossover_doubles != 0)
    v.emplace_back("net_crossover_doubles",
                   static_cast<long long>(k.net_crossover_doubles));
  if (k.net_ring_segment != 0)
    v.emplace_back("net_ring_segment",
                   static_cast<long long>(k.net_ring_segment));
  if (k.mixed_nb != 0)
    v.emplace_back("mixed_nb", static_cast<long long>(k.mixed_nb));
  if (k.ptrans_nb != 0)
    v.emplace_back("ptrans_nb", static_cast<long long>(k.ptrans_nb));
  if (k.gups_batch != 0)
    v.emplace_back("gups_batch", static_cast<long long>(k.gups_batch));
  if (k.gups_lookahead != 0)
    v.emplace_back("gups_lookahead",
                   static_cast<long long>(k.gups_lookahead));
  if (k.stream_chunk != 0)
    v.emplace_back("stream_chunk", static_cast<long long>(k.stream_chunk));
  return v;
}

/// Decodes stored name/value pairs into a Knobs record. Unknown names are
/// ignored (forward compatibility: a newer DB read by older code), negative
/// values for size-typed knobs are ignored rather than wrapped.
inline Knobs knobs_from_values(
    const std::vector<std::pair<std::string, long long>>& values) {
  Knobs k;
  for (const auto& [name, v] : values) {
    if (name == "lookahead") {
      if (v >= 0 && v <= 2) k.lookahead = static_cast<int>(v);
      continue;
    }
    if (v < 0) continue;
    if (name == "mt") {
      k.mt = static_cast<std::size_t>(v);
    } else if (name == "nt") {
      k.nt = static_cast<std::size_t>(v);
    } else if (name == "pack_cache_entries") {
      k.pack_cache_entries = static_cast<std::size_t>(v);
    } else if (name == "chunk_k") {
      k.chunk_k = static_cast<std::size_t>(v);
    } else if (name == "superstage_max_group") {
      k.superstage_max_group = static_cast<int>(v);
    } else if (name == "superstage_period") {
      k.superstage_period = static_cast<std::size_t>(v);
    } else if (name == "pipeline_subsets") {
      k.pipeline_subsets = static_cast<int>(v);
    } else if (name == "panel_nb_min") {
      k.panel_nb_min = static_cast<std::size_t>(v);
    } else if (name == "laswp_col_chunk") {
      k.laswp_col_chunk = static_cast<std::size_t>(v);
    } else if (name == "microkernel") {
      k.microkernel = static_cast<int>(v);
    } else if (name == "gemm_mc") {
      k.gemm_mc = static_cast<std::size_t>(v);
    } else if (name == "gemm_nc") {
      k.gemm_nc = static_cast<std::size_t>(v);
    } else if (name == "serve_batch_window") {
      k.serve_batch_window_us = static_cast<std::size_t>(v);
    } else if (name == "serve_cache_shards") {
      k.serve_cache_shards = static_cast<std::size_t>(v);
    } else if (name == "serve_cache_capacity") {
      k.serve_cache_capacity = static_cast<std::size_t>(v);
    } else if (name == "serve_lane_weight") {
      k.serve_lane_weight = static_cast<int>(v);
    } else if (name == "serve_admission_queue") {
      k.serve_admission_queue = static_cast<std::size_t>(v);
    } else if (name == "net_crossover_doubles") {
      k.net_crossover_doubles = static_cast<std::size_t>(v);
    } else if (name == "net_ring_segment") {
      k.net_ring_segment = static_cast<std::size_t>(v);
    } else if (name == "mixed_nb") {
      k.mixed_nb = static_cast<std::size_t>(v);
    } else if (name == "ptrans_nb") {
      k.ptrans_nb = static_cast<std::size_t>(v);
    } else if (name == "gups_batch") {
      k.gups_batch = static_cast<std::size_t>(v);
    } else if (name == "gups_lookahead") {
      k.gups_lookahead = static_cast<std::size_t>(v);
    } else if (name == "stream_chunk") {
      k.stream_chunk = static_cast<std::size_t>(v);
    }
    // Unknown knob names: skip.
  }
  return k;
}

}  // namespace xphi::tune
