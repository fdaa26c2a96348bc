// The unified performance-knob record shared by every tunable engine.
//
// Before this subsystem each engine carried its own copy of the knobs it
// cared about (OffloadDgemmConfig{mt,nt} and FunctionalOffloadConfig{mt,nt}
// were two parallel copies of the same tile fields; pack-cache capacity and
// the GEMM blocking were hard-coded at their call sites). tune::Knobs is the
// single struct those engines now embed or consult, and it is also the
// decoded form of a TuningDB entry: Tuner::best() returns one.
//
// Field value 0 means "not set": the consumer keeps its own default. That
// convention is what lets a DB entry tuned for one engine carry only the
// knobs that engine searched over. Only knobs a search actually moves live
// here; the paper's hand-picked choices the models already reproduce (the
// super-stage cap, the look-ahead scheme and subset count) stay plain
// config on their engines.
//
// Registering a new knob is two edits (documented in DESIGN.md §10): add
// the field here with a 0 default together with its row in for_each_knob(),
// and give it a candidate list in search_space.h's canonical spaces. Old DB
// files keep loading: unknown names in a file are ignored, missing names
// stay "not set".
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace xphi::tune {

struct Knobs {
  // Offload C-tile extents (paper Section V-B's runtime-adaptive (Mt, Nt)).
  std::size_t mt = 0;  // 0 = engine default / runtime-adaptive
  std::size_t nt = 0;
  // blas::PackCache capacity for the functional offload engine.
  std::size_t pack_cache_entries = 0;  // 0 = derived from the tile grid
  // LU critical-path kernels (blas::PanelOptions): recursion cutoff of the
  // recursive panel factorization and the fused-LASWP column chunk.
  std::size_t panel_nb_min = 0;     // 0 = kernel default (8)
  std::size_t laswp_col_chunk = 0;  // 0 = kernel default (kLaswpColChunk)
  // GEMM micro-kernel registry shape (mr*100 + nr, e.g. 408 = 4x8) and the
  // mc/nc cache blocking of blas::GemmOptions. All three are
  // bitwise-neutral; blas/block_model.h supplies the analytic starting
  // point the tuner refines.
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
  // HPCC workload knobs (src/hpcc): PTRANS block-cyclic block size, GUPS
  // batch coalescing and look-ahead window, STREAM parallel_for grain.
  std::size_t ptrans_nb = 0;      // 0 = workload default (64)
  std::size_t gups_batch = 0;     // 0 = workload default (1024)
  std::size_t gups_lookahead = 0; // 0 = workload default (4)
  std::size_t stream_chunk = 0;   // 0 = pool-adaptive grain
};

/// The name <-> member table: calls f(name, field) for every knob, in field
/// order, with the name a TuningDB entry stores it under. Both encode
/// directions below walk it, so a knob's name is spelled exactly once.
template <class K, class F>
void for_each_knob(K& k, F&& f) {
  f("mt", k.mt);
  f("nt", k.nt);
  f("pack_cache_entries", k.pack_cache_entries);
  f("panel_nb_min", k.panel_nb_min);
  f("laswp_col_chunk", k.laswp_col_chunk);
  f("microkernel", k.microkernel);
  f("gemm_mc", k.gemm_mc);
  f("gemm_nc", k.gemm_nc);
  f("serve_batch_window", k.serve_batch_window_us);
  f("serve_cache_shards", k.serve_cache_shards);
  f("serve_cache_capacity", k.serve_cache_capacity);
  f("serve_lane_weight", k.serve_lane_weight);
  f("serve_admission_queue", k.serve_admission_queue);
  f("net_crossover_doubles", k.net_crossover_doubles);
  f("net_ring_segment", k.net_ring_segment);
  f("ptrans_nb", k.ptrans_nb);
  f("gups_batch", k.gups_batch);
  f("gups_lookahead", k.gups_lookahead);
  f("stream_chunk", k.stream_chunk);
}

/// Name/value pairs, one per *set* field — the encoded form a TuningDB entry
/// stores. Inverse of knobs_from_values for set fields.
inline std::vector<std::pair<std::string, long long>> values_from_knobs(
    const Knobs& k) {
  std::vector<std::pair<std::string, long long>> v;
  for_each_knob(k, [&](const char* name, const auto& field) {
    if (field != 0) v.emplace_back(name, static_cast<long long>(field));
  });
  return v;
}

/// Decodes stored name/value pairs into a Knobs record. Unknown names are
/// ignored (forward compatibility: a newer DB read by older code), negative
/// values are ignored rather than wrapped.
inline Knobs knobs_from_values(
    const std::vector<std::pair<std::string, long long>>& values) {
  Knobs k;
  for (const auto& [name, v] : values) {
    if (v < 0) continue;
    for_each_knob(k, [&](const char* knob, auto& field) {
      if (name == knob) field = static_cast<std::decay_t<decltype(field)>>(v);
    });
  }
  return k;
}

}  // namespace xphi::tune
