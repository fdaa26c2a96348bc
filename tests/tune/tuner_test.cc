#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "blas/gemm_ref.h"
#include "blas/lu_kernels.h"
#include "core/offload_functional.h"
#include "sim/machine.h"
#include "tune/search_space.h"
#include "util/rng.h"

namespace xphi::tune {
namespace {

SearchSpace quadratic_space() {
  return SearchSpace{}
      .add("x", {0, 1, 2, 3, 4, 5, 6, 7}, 0)
      .add("y", {10, 20, 30, 40, 50}, 10);
}

// Separable bowl with its minimum at (5, 30): coordinate descent finds it
// exactly.
double quadratic_cost(const std::vector<long long>& v) {
  const double dx = static_cast<double>(v[0]) - 5.0;
  const double dy = (static_cast<double>(v[1]) - 30.0) / 10.0;
  return dx * dx + dy * dy;
}

TEST(SearchSpace, DefaultsValuesAndNearest) {
  const SearchSpace s = quadratic_space();
  ASSERT_EQ(s.dims(), 2u);
  EXPECT_EQ(s.points(), 40u);
  EXPECT_EQ(s.default_point(), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(s.values_at({5, 2}), (std::vector<long long>{5, 30}));
  EXPECT_EQ(s.nearest_index(1, 34), 2u);  // 30 is closest
  EXPECT_EQ(s.nearest_index(1, 35), 2u);  // tie goes to the smaller candidate
  EXPECT_EQ(s.nearest_index(1, 1000), 4u);
  EXPECT_EQ(s.nearest_index(1, -7), 0u);
}

TEST(Tuner, FindsTheSeparableMinimum) {
  Tuner t;
  const SearchResult r = t.search(quadratic_space(), quadratic_cost);
  EXPECT_EQ(r.best, (std::vector<long long>{5, 30}));
  EXPECT_EQ(r.best_cost, 0.0);
  EXPECT_LE(r.best_cost, r.start_cost);
}

TEST(Tuner, BestNeverWorseThanTheStartPoint) {
  // The acceptance invariant behind "tuned >= default GF/s": the start point
  // is evaluated first, so the winner can only match or beat it.
  Tuner t;
  SearchOptions opt;
  opt.start = {5, 2};  // start *at* the optimum
  const SearchResult r = t.search(quadratic_space(), quadratic_cost, opt);
  EXPECT_EQ(r.start_cost, 0.0);
  EXPECT_LE(r.best_cost, r.start_cost);
  EXPECT_EQ(r.best, (std::vector<long long>{5, 30}));
}

TEST(Tuner, SameSeedSameSpaceIdenticalTrace) {
  Tuner t;
  SearchOptions opt;
  opt.seed = 1234;
  opt.budget = 20;
  const SearchResult a = t.search(quadratic_space(), quadratic_cost, opt);
  const SearchResult b = t.search(quadratic_space(), quadratic_cost, opt);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].values, b.trace[i].values) << i;
    EXPECT_EQ(a.trace[i].cost, b.trace[i].cost) << i;
    EXPECT_EQ(a.trace[i].improved, b.trace[i].improved) << i;
  }
}

TEST(Tuner, BudgetBoundsDistinctEvaluationsOnly) {
  Tuner t;
  SearchOptions opt;
  opt.budget = 7;
  opt.restarts = 5;  // plenty of revisits
  std::size_t calls = 0;
  const SearchResult r = t.search(
      quadratic_space(),
      [&](const std::vector<long long>& v) {
        ++calls;
        return quadratic_cost(v);
      },
      opt);
  EXPECT_LE(r.evaluations, 7u);
  // Memoized: the callback runs exactly once per distinct point.
  EXPECT_EQ(calls, r.evaluations);
  EXPECT_EQ(r.trace.size(), r.evaluations);
}

TEST(Tuner, TuneStoresAndBestDecodes) {
  Tuner t;
  const ShapeBucket shape = bucket(20000, 20000, 1200);
  SearchSpace s = SearchSpace{}
                      .add("mt", {2400, 4800, 7200}, 4800)
                      .add("nt", {2400, 4800, 7200}, 4800);
  const SearchResult r = t.tune("offload_dgemm", shape, s,
                                [](const std::vector<long long>& v) {
                                  // Cheapest at (2400, 7200).
                                  return std::abs(v[0] - 2400.0) +
                                         std::abs(v[1] - 7200.0);
                                });
  EXPECT_EQ(r.best, (std::vector<long long>{2400, 7200}));
  const auto k = t.best("offload_dgemm", shape);
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->mt, 2400u);
  EXPECT_EQ(k->nt, 7200u);
  EXPECT_EQ(k->pack_cache_entries, 0u);  // untouched knob stays "not set"
  EXPECT_FALSE(t.best("offload_dgemm", bucket(100, 100, 10)).has_value());
  EXPECT_FALSE(t.best("other_op", shape).has_value());
}

TEST(Tuner, WarmStartRoundTripsThroughDisk) {
  const std::string path = ::testing::TempDir() + "/tuner_warmstart.json";
  const ShapeBucket shape = bucket(20000, 20000, 1200);
  {
    Tuner t;
    SearchSpace s = SearchSpace{}.add("mt", {100, 200}, 100).add(
        "nt", {100, 200}, 100);
    t.tune("offload_dgemm", shape, s, [](const std::vector<long long>& v) {
      return static_cast<double>(v[0] + v[1]);
    });
    ASSERT_TRUE(t.save(path));
  }
  Tuner cold;  // same default machine fingerprint
  ASSERT_TRUE(cold.load(path));
  const auto k = cold.best("offload_dgemm", shape);
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->mt, 100u);
  EXPECT_EQ(k->nt, 100u);
  std::remove(path.c_str());
}

TEST(Knobs, EncodeDecodeRoundTrip) {
  // Every field set to a distinct non-zero value: a missing table row drops
  // its field from the encoding, a misspelt one changes the stored name.
  Knobs k;
  k.mt = 1;
  k.nt = 2;
  k.pack_cache_entries = 3;
  k.panel_nb_min = 4;
  k.laswp_col_chunk = 5;
  k.microkernel = 6;
  k.gemm_mc = 7;
  k.gemm_nc = 8;
  k.serve_batch_window_us = 9;
  k.serve_cache_shards = 10;
  k.serve_cache_capacity = 11;
  k.serve_lane_weight = 12;
  k.serve_admission_queue = 13;
  k.net_crossover_doubles = 14;
  k.net_ring_segment = 15;
  k.ptrans_nb = 16;
  k.gups_batch = 17;
  k.gups_lookahead = 18;
  k.stream_chunk = 19;
  const std::vector<std::pair<std::string, long long>> encoded =
      values_from_knobs(k);
  const std::vector<std::pair<std::string, long long>> expected{
      {"mt", 1},
      {"nt", 2},
      {"pack_cache_entries", 3},
      {"panel_nb_min", 4},
      {"laswp_col_chunk", 5},
      {"microkernel", 6},
      {"gemm_mc", 7},
      {"gemm_nc", 8},
      {"serve_batch_window", 9},
      {"serve_cache_shards", 10},
      {"serve_cache_capacity", 11},
      {"serve_lane_weight", 12},
      {"serve_admission_queue", 13},
      {"net_crossover_doubles", 14},
      {"net_ring_segment", 15},
      {"ptrans_nb", 16},
      {"gups_batch", 17},
      {"gups_lookahead", 18},
      {"stream_chunk", 19}};
  EXPECT_EQ(encoded, expected);
  const Knobs back = knobs_from_values(encoded);
  EXPECT_EQ(back.mt, k.mt);
  EXPECT_EQ(back.nt, k.nt);
  EXPECT_EQ(back.pack_cache_entries, k.pack_cache_entries);
  EXPECT_EQ(back.panel_nb_min, k.panel_nb_min);
  EXPECT_EQ(back.laswp_col_chunk, k.laswp_col_chunk);
  EXPECT_EQ(back.microkernel, k.microkernel);
  EXPECT_EQ(back.gemm_mc, k.gemm_mc);
  EXPECT_EQ(back.gemm_nc, k.gemm_nc);
  EXPECT_EQ(back.serve_batch_window_us, k.serve_batch_window_us);
  EXPECT_EQ(back.serve_cache_shards, k.serve_cache_shards);
  EXPECT_EQ(back.serve_cache_capacity, k.serve_cache_capacity);
  EXPECT_EQ(back.serve_lane_weight, k.serve_lane_weight);
  EXPECT_EQ(back.serve_admission_queue, k.serve_admission_queue);
  EXPECT_EQ(back.net_crossover_doubles, k.net_crossover_doubles);
  EXPECT_EQ(back.net_ring_segment, k.net_ring_segment);
  EXPECT_EQ(back.ptrans_nb, k.ptrans_nb);
  EXPECT_EQ(back.gups_batch, k.gups_batch);
  EXPECT_EQ(back.gups_lookahead, k.gups_lookahead);
  EXPECT_EQ(back.stream_chunk, k.stream_chunk);
  // An unset record encodes to nothing.
  EXPECT_TRUE(values_from_knobs(Knobs{}).empty());
  // Unknown names (including retired knobs an old DB file still carries)
  // and negative values are skipped, not wrapped.
  const Knobs odd = knobs_from_values(
      {{"mt", -5}, {"serve_lane_weight", -1}, {"superstage_period", 4},
       {"warp_width", 32}, {"nt", 7}});
  EXPECT_EQ(odd.mt, 0u);
  EXPECT_EQ(odd.serve_lane_weight, 0);
  EXPECT_EQ(odd.nt, 7u);
}

TEST(CanonicalSpaces, CoverTheDocumentedKnobs) {
  EXPECT_EQ(spaces::functional_offload().dims(), 3u);
  // Collective dispatch: crossover + ring segment, defaulted at the World's
  // built-in constants so an unsearched space reproduces stock dispatch.
  const SearchSpace ns = spaces::net();
  ASSERT_EQ(ns.dims(), 2u);
  EXPECT_EQ(ns.dim(0).name, "net_crossover_doubles");
  EXPECT_EQ(ns.dim(1).name, "net_ring_segment");
  const auto net_defaults = ns.values_at(ns.default_point());
  EXPECT_EQ(net_defaults[0], 1024);
  EXPECT_EQ(net_defaults[1], 1024);
  // Panel critical path: cutoff + LASWP chunk, defaulted at the kernel's
  // built-in constants so an unsearched space reproduces the stock kernels.
  const SearchSpace ps = spaces::panel();
  ASSERT_EQ(ps.dims(), 2u);
  EXPECT_EQ(ps.dim(0).name, "panel_nb_min");
  EXPECT_EQ(ps.dim(1).name, "laswp_col_chunk");
  const auto defaults = ps.values_at(ps.default_point());
  EXPECT_EQ(defaults[0], 8);
  EXPECT_EQ(defaults[1],
            static_cast<long long>(xphi::blas::kLaswpColChunk));
}

TEST(Tuner, FingerprintIsTopologyNotNames) {
  EXPECT_EQ(Tuner{}.machine(), default_fingerprint());
  EXPECT_EQ(default_fingerprint(),
            fingerprint(sim::MachineSpec::sandy_bridge_ep(),
                        sim::MachineSpec::knights_corner()));
  EXPECT_NE(default_fingerprint().find("card1x61c"), std::string::npos);
}

// --- Consumer integration -------------------------------------------------

TEST(Consumers, TuningChangesSpeedNeverResults) {
  // The bitwise-determinism acceptance gate: the functional offload engine
  // must produce the identical C whether knobs come from defaults or a DB.
  using util::Matrix;
  constexpr std::size_t m = 96, n = 96, k = 24;
  Matrix<double> a(m, k), b(k, n), c_default(m, n), c_tuned(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  util::fill_hpl_matrix(c_default.view(), 3);
  util::fill_hpl_matrix(c_tuned.view(), 3);

  core::FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = true;
  core::offload_gemm_functional(-1.0, a.view(), b.view(), c_default.view(),
                                cfg);

  Tuner t;
  TuningEntry e;
  e.knobs = {{"mt", 24}, {"nt", 40}, {"pack_cache_entries", 4}};
  e.cost = 1.0;
  t.db().put({t.machine(), "offload_functional", bucket(m, n, k).key()}, e);
  cfg.tuner = &t;
  core::offload_gemm_functional(-1.0, a.view(), b.view(), c_tuned.view(),
                                cfg);

  EXPECT_EQ(util::max_abs_diff<double>(c_tuned.view(), c_default.view()), 0.0);
}

}  // namespace
}  // namespace xphi::tune
