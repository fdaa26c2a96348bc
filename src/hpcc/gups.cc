#include "hpcc/gups.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "fault/injector.h"
#include "pci/queue.h"

namespace xphi::hpcc {

namespace {

using net::Comm;
using net::Payload;
using net::World;

constexpr int kTagRound = 910;  // + round index (wrapped; FIFO per (src,tag))

std::uint64_t splitmix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::uint64_t gups_update_value(std::uint64_t seed, int origin,
                                std::uint64_t k) noexcept {
  return splitmix(seed + 0x9E3779B97F4A7C15ull *
                             (static_cast<std::uint64_t>(origin) + 1) +
                  0xC2B2AE3D27D4EB4Full * (k + 1));
}

GupsResult run_gups(int ranks, std::uint64_t seed, const GupsOptions& options) {
  GupsResult result;
  const std::size_t table_size = std::size_t{1} << options.table_bits;
  const std::size_t chunk = (table_size + ranks - 1) / ranks;
  const std::size_t batch = std::max<std::size_t>(1, options.batch);
  const std::size_t lookahead = std::max<std::size_t>(1, options.lookahead);
  const std::size_t per_rank =
      options.updates_per_rank != 0
          ? options.updates_per_rank
          : 4 * table_size / static_cast<std::size_t>(ranks);
  const std::size_t rounds = (per_rank + batch - 1) / batch;

  World world(ranks);
  world.set_recv_timeout(options.recv_timeout_seconds);
  if (options.injector != nullptr)
    world.set_fault_injector(options.injector);
  if (options.net_crossover_doubles != 0)
    world.set_collective_crossover_doubles(options.net_crossover_doubles);
  if (options.net_ring_segment != 0)
    world.set_ring_segment_doubles(options.net_ring_segment);

  std::vector<std::size_t> rank_errors(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> rank_fnv(static_cast<std::size_t>(ranks), 0);
  double elapsed = 0;

  world.run([&](Comm& comm) {
    const int me = comm.rank();
    const std::size_t base = static_cast<std::size_t>(me) * chunk;
    const std::size_t my_words =
        base < table_size ? std::min(chunk, table_size - base) : 0;
    std::vector<std::uint64_t> table(my_words, 0);

    // The local update engine: batches cross this bounded queue before they
    // touch the table (the functional DMA hop). Capacity = the lookahead
    // window; when full the rank drains one batch first, so a single task
    // never blocks against itself.
    pci::BlockingQueue<std::vector<std::uint64_t>> engine(lookahead);
    const auto apply_one = [&]() {
      if (auto item = engine.try_dequeue()) {
        for (const std::uint64_t u : *item) {
          const std::size_t idx = static_cast<std::size_t>(u % table_size);
          table[idx - base] ^= u;
        }
      }
    };
    const auto submit = [&](std::vector<std::uint64_t> updates) {
      while (engine.size() >= lookahead) apply_one();
      engine.enqueue(std::move(updates));
    };

    // Decode a wire payload (u64 bit-cast into doubles) into update values.
    const auto decode = [](const Payload& in) {
      std::vector<std::uint64_t> u(in.size());
      for (std::size_t i = 0; i < in.size(); ++i)
        u[i] = std::bit_cast<std::uint64_t>(in[i]);
      return u;
    };
    // One full receive round: one message from every peer, applied in rank
    // order (XOR makes the order unobservable; the fixed order keeps the
    // schedule deterministic anyway).
    const auto drain_round = [&](std::size_t r) {
      const int tag = kTagRound + static_cast<int>(r % 64);
      for (int src = 0; src < ranks; ++src) {
        if (src == me) continue;
        Payload in = comm.recv(src, tag);
        if (!in.empty()) submit(decode(in));
      }
    };

    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::vector<std::uint64_t>> per_dst(
        static_cast<std::size_t>(ranks));
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::size_t k0 = round * batch;
      const std::size_t k1 = std::min(per_rank, k0 + batch);
      for (auto& v : per_dst) v.clear();
      for (std::size_t k = k0; k < k1; ++k) {
        const std::uint64_t u = gups_update_value(seed, me, k);
        const std::size_t idx = static_cast<std::size_t>(u % table_size);
        const int dst = static_cast<int>(std::min(
            idx / chunk, static_cast<std::size_t>(ranks) - 1));
        per_dst[static_cast<std::size_t>(dst)].push_back(u);
      }
      const int tag = kTagRound + static_cast<int>(round % 64);
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst == me) continue;
        const auto& u = per_dst[static_cast<std::size_t>(dst)];
        Payload out(u.size());
        for (std::size_t i = 0; i < u.size(); ++i)
          out[i] = std::bit_cast<double>(u[i]);
        comm.isend(dst, tag, std::move(out));
      }
      if (!per_dst[static_cast<std::size_t>(me)].empty())
        submit(std::move(per_dst[static_cast<std::size_t>(me)]));
      // Stay at most `lookahead` rounds ahead of the receive side.
      if (round + 1 >= lookahead) drain_round(round + 1 - lookahead);
    }
    for (std::size_t r = rounds >= lookahead ? rounds - lookahead + 1 : 0;
         r < rounds; ++r)
      drain_round(r);
    while (engine.size() > 0) apply_one();

    comm.barrier();
    if (me == 0)
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();

    // --- Verification: full serial replay of every origin's stream -------
    std::vector<std::uint64_t> replay(my_words, 0);
    for (int origin = 0; origin < ranks; ++origin)
      for (std::size_t k = 0; k < per_rank; ++k) {
        const std::uint64_t u = gups_update_value(seed, origin, k);
        const std::size_t idx = static_cast<std::size_t>(u % table_size);
        if (idx >= base && idx < base + my_words) replay[idx - base] ^= u;
      }
    std::size_t errors = 0;
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < my_words; ++i) {
      if (table[i] != replay[i]) ++errors;
      h = fnv1a(h, table[i]);
    }
    rank_errors[static_cast<std::size_t>(me)] = errors;
    rank_fnv[static_cast<std::size_t>(me)] = h;
  });

  result.table_size = table_size;
  result.total_updates = per_rank * static_cast<std::size_t>(ranks);
  result.seconds = elapsed;
  if (elapsed > 0)
    result.gups = static_cast<double>(result.total_updates) / elapsed / 1e9;

  std::size_t errors = 0;
  for (std::size_t e : rank_errors) errors += e;
  result.error_rate = static_cast<double>(errors) /
                      static_cast<double>(std::max<std::size_t>(1, table_size));
  // Combine the per-rank chunk hashes in rank order: one fabric-wide
  // fingerprint of the table bits.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint64_t f : rank_fnv) h = fnv1a(h, f);
  result.table_fnv = h;

  result.comm_stats.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) result.comm_stats.push_back(world.stats(r));

  result.ok = result.error_rate <= 0.01;
  return result;
}

}  // namespace xphi::hpcc
