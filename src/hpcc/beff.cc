#include "hpcc/beff.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/rng.h"

namespace xphi::hpcc {

namespace {

using net::Comm;
using net::Payload;
using net::World;

constexpr int kTagRing = 920;
constexpr int kTagRingBack = 921;
constexpr int kTagRand = 922;
constexpr int kTagTree = 923;
constexpr int kTagSeg = 924;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Deterministic message content: a pure function of (seed, src, rep, salt),
/// so every receiver can regenerate what the sender must have sent and
/// bit-compare — the sweep doubles as a transport-correctness gate.
Payload make_payload(std::uint64_t seed, int src, int rep, std::uint64_t salt,
                     std::size_t n) {
  util::Rng g(seed ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(src) + 1)) ^
              (0xC2B2AE3D27D4EB4Full * (static_cast<std::uint64_t>(rep) + 1)) ^
              (0xD6E8FEB86659FD93ull * (salt + 1)));
  Payload p(n);
  for (double& v : p) v = g.next_centered();
  return p;
}

std::size_t mismatches(const Payload& got, const Payload& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != want[i]) ++bad;
  return bad;
}

}  // namespace

NetKnobsSeed seed_net_knobs(const std::vector<CollectiveProbe>& probes) {
  NetKnobsSeed seed{1024, 1024};  // the World defaults
  if (probes.empty()) return seed;
  bool ring_ever_wins = false;
  std::size_t largest_tree_win = 0;
  for (const CollectiveProbe& p : probes) {
    if (p.ring_seconds < p.tree_seconds)
      ring_ever_wins = true;
    else
      largest_tree_win = std::max(largest_tree_win, p.size_doubles);
  }
  if (!ring_ever_wins) return seed;
  // bcast_auto sends payloads *strictly above* the crossover through the
  // ring, so the largest tree-winning size is exactly the crossover; 0 when
  // the ring won everywhere (= always ring).
  seed.crossover_doubles = largest_tree_win;
  const auto top = std::max_element(
      probes.begin(), probes.end(),
      [](const CollectiveProbe& a, const CollectiveProbe& b) {
        return a.size_doubles < b.size_doubles;
      });
  if (top->best_segment != 0) seed.ring_segment = top->best_segment;
  return seed;
}

BeffResult run_beff(const BeffOptions& options) {
  BeffResult result;
  const int ranks = std::max(1, options.ranks);
  const int reps = std::max(1, options.reps);
  const int pairings = std::max(1, options.random_pairings);
  const std::vector<std::size_t> sizes =
      options.sizes_doubles.empty()
          ? std::vector<std::size_t>{1, 8, 64, 512, 4096, 32768}
          : options.sizes_doubles;
  const std::vector<std::size_t> segments =
      options.segment_candidates.empty()
          ? std::vector<std::size_t>{128, 512, 1024, 4096}
          : options.segment_candidates;
  const std::uint64_t seed = options.seed;

  World world(ranks);
  world.set_recv_timeout(120);

  // Written by rank 0 only (timings) / one slot per rank (error counts);
  // read after run() returns.
  std::vector<double> ring_secs(sizes.size(), 0);
  std::vector<double> random_secs(sizes.size(), 0);  // summed over pairings
  std::vector<double> tree_secs(sizes.size(), 0);
  std::vector<std::vector<double>> seg_secs(
      sizes.size(), std::vector<double>(segments.size(), 0));
  std::vector<std::size_t> rank_bad(static_cast<std::size_t>(ranks), 0);

  const auto t_start = std::chrono::steady_clock::now();
  world.run([&](Comm& comm) {
    const int me = comm.rank();
    const int p = comm.size();
    std::size_t bad = 0;
    std::vector<int> group(static_cast<std::size_t>(p));
    std::iota(group.begin(), group.end(), 0);

    for (std::size_t ci = 0; ci < sizes.size(); ++ci) {
      const std::size_t s = sizes[ci];
      const std::uint64_t salt0 = 2 * ci;

      // --- ring-neighbor exchange: send right / recv left, then back ----
      comm.barrier();
      auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        const int right = (me + 1) % p;
        const int left = (me + p - 1) % p;
        comm.isend(right, kTagRing, make_payload(seed, me, rep, salt0, s));
        bad += mismatches(comm.recv(left, kTagRing),
                          make_payload(seed, left, rep, salt0, s));
        comm.isend(left, kTagRingBack,
                   make_payload(seed, me, rep, salt0 + 1, s));
        bad += mismatches(comm.recv(right, kTagRingBack),
                          make_payload(seed, right, rep, salt0 + 1, s));
      }
      comm.barrier();
      if (me == 0) ring_secs[ci] = seconds_since(t0);

      // --- random pairwise exchange over seeded pairings -----------------
      for (int pr = 0; pr < pairings; ++pr) {
        // Every rank derives the same permutation, pairs off adjacent
        // entries; an odd straggler sits the pairing out at the barriers.
        std::vector<int> perm(group);
        util::Rng g(seed * 7919 + 131 * static_cast<std::uint64_t>(pr) + ci);
        for (std::size_t i = perm.size(); i > 1; --i)
          std::swap(perm[i - 1], perm[g.next_u64() % i]);
        int partner = -1;
        for (int i = 0; i + 1 < p; i += 2) {
          if (perm[static_cast<std::size_t>(i)] == me)
            partner = perm[static_cast<std::size_t>(i) + 1];
          if (perm[static_cast<std::size_t>(i) + 1] == me)
            partner = perm[static_cast<std::size_t>(i)];
        }
        const std::uint64_t salt =
            1000 + ci * static_cast<std::uint64_t>(pairings) +
            static_cast<std::uint64_t>(pr);
        comm.barrier();
        t0 = std::chrono::steady_clock::now();
        if (partner >= 0) {
          for (int rep = 0; rep < reps; ++rep) {
            comm.isend(partner, kTagRand, make_payload(seed, me, rep, salt, s));
            bad += mismatches(comm.recv(partner, kTagRand),
                              make_payload(seed, partner, rep, salt, s));
          }
        }
        comm.barrier();
        if (me == 0) random_secs[ci] += seconds_since(t0);
      }

      // --- collective probe: tree vs segmented ring, same payload --------
      if (options.probe_collectives && p >= 2) {
        const Payload truth = make_payload(seed, 0, 0, 5000 + ci, s);
        comm.barrier();
        t0 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < reps; ++rep) {
          Payload out =
              comm.bcast(0, group, me == 0 ? truth : Payload{}, kTagTree);
          bad += mismatches(out, truth);
        }
        comm.barrier();
        if (me == 0) tree_secs[ci] = seconds_since(t0);
        for (std::size_t si = 0; si < segments.size(); ++si) {
          comm.barrier();
          t0 = std::chrono::steady_clock::now();
          for (int rep = 0; rep < reps; ++rep) {
            Payload out = comm.ring_bcast(0, group, me == 0 ? truth : Payload{},
                                          kTagSeg, segments[si]);
            bad += mismatches(out, truth);
          }
          comm.barrier();
          if (me == 0) seg_secs[ci][si] = seconds_since(t0);
        }
      }
    }
    rank_bad[static_cast<std::size_t>(me)] = bad;
  });
  result.seconds = seconds_since(t_start);

  double gbs_sum = 0;
  std::size_t gbs_cells = 0;
  for (std::size_t ci = 0; ci < sizes.size(); ++ci) {
    BeffCell cell;
    cell.size_doubles = sizes[ci];
    const double bytes = 8.0 * static_cast<double>(sizes[ci]);
    const double tr = std::max(ring_secs[ci], 1e-9);
    // Ring: each rank sends 2 messages per rep.
    cell.ring_gbs = 2.0 * bytes * reps / tr / 1e9;
    cell.ring_us = tr / (2.0 * reps) * 1e6;
    const double ta = std::max(random_secs[ci] / pairings, 1e-9);
    // Random: each paired rank sends 1 message per rep.
    cell.random_gbs = bytes * reps / ta / 1e9;
    cell.random_us = ta / reps * 1e6;
    gbs_sum += cell.ring_gbs + cell.random_gbs;
    gbs_cells += 2;
    result.cells.push_back(cell);

    if (options.probe_collectives && ranks >= 2) {
      CollectiveProbe probe;
      probe.size_doubles = sizes[ci];
      probe.tree_seconds = std::max(tree_secs[ci], 1e-9) / reps;
      std::size_t best = 0;
      for (std::size_t si = 1; si < segments.size(); ++si)
        if (seg_secs[ci][si] < seg_secs[ci][best]) best = si;
      probe.ring_seconds = std::max(seg_secs[ci][best], 1e-9) / reps;
      probe.best_segment = segments[best];
      result.probes.push_back(probe);
    }
  }
  if (gbs_cells > 0) result.beff_gbs = gbs_sum / static_cast<double>(gbs_cells);

  result.comm_stats.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) result.comm_stats.push_back(world.stats(r));

  std::size_t bad = 0;
  for (std::size_t b : rank_bad) bad += b;
  result.ok = bad == 0 && result.beff_gbs > 0;
  return result;
}

}  // namespace xphi::hpcc
