#include "lu/sim_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <queue>
#include <tuple>
#include <vector>

#include "lu/dag.h"
#include "util/flops.h"

namespace xphi::lu {

namespace {

using trace::SpanKind;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Sub-span breakdown of one task's cost on a group of `cores` cores.
struct TaskCost {
  double swap = 0, trsm = 0, gemm = 0, panel = 0, overhead = 0;
  double total() const { return swap + trsm + gemm + panel + overhead; }
};

TaskCost task_cost(const Task& task, const NativeLuConfig& cfg,
                   const sim::KncLuModel& model, int cores) {
  TaskCost c;
  const std::size_t n = cfg.n;
  const std::size_t nb = cfg.nb;
  if (task.kind == TaskKind::kPanelFactor) {
    const std::size_t r0 = task.panel * nb;
    c.panel = model.panel_seconds(n - r0, std::min(nb, n - r0), cores);
  } else {
    const std::size_t r0 = task.stage * nb;
    const std::size_t iw = std::min(nb, n - r0);
    const std::size_t c0 = task.panel * nb;
    const std::size_t width = std::min(nb, n - c0);
    c.swap = model.swap_seconds(iw, width);
    c.trsm = model.trsm_seconds(iw, width, cores);
    const std::size_t below = n > r0 + iw ? n - r0 - iw : 0;
    c.gemm = model.update_gemm_seconds(below, width, iw, cores);
  }
  // Acquisition + dispatch. The critical section serializes its contenders,
  // so the expected cost per acquisition grows with how many threads hammer
  // the lock: only the group masters under the paper's scheme, every
  // hardware thread under the original Buttari-style scheme.
  const int group_threads = cores * model.spec().threads_per_core;
  const int total_threads =
      model.spec().compute_cores() * model.spec().threads_per_core;
  const int groups = std::max(1, model.spec().compute_cores() / cores);
  const double cs = model.params().dag_critical_section_seconds;
  const double dag_cost =
      cfg.master_only_dag_access
          ? cs * (1.0 + groups / 2.0)  // one acquisition, masters contend
          : cs * group_threads * (1.0 + total_threads / 2.0);
  c.overhead = model.params().task_overhead_seconds + dag_cost +
               model.params().group_barrier_seconds;
  return c;
}

/// Models the solve phase (forward + back substitution): two
/// bandwidth-bound sweeps over the factored matrix.
double solve_seconds(const NativeLuConfig& cfg, const sim::KncLuModel& model) {
  const double bytes = 8.0 * static_cast<double>(cfg.n) *
                       static_cast<double>(cfg.n);
  const double bw =
      model.spec().stream_bw_gbs * model.params().swap_bw_fraction * 1e9;
  return bytes / bw;
}

void finalize(NativeLuResult& r, const NativeLuConfig& cfg,
              const sim::KncLuModel& model) {
  r.solve_seconds = solve_seconds(cfg, model);
  r.seconds = r.factor_seconds + r.solve_seconds;
  r.gflops = util::gflops(util::linpack_flops(cfg.n), r.seconds);
  r.efficiency = r.gflops / model.spec().native_peak_gflops();
}

}  // namespace

NativeLuResult simulate_dynamic_lu(const NativeLuConfig& cfg,
                                   const sim::KncLuModel& model,
                                   const ThreadPlan& plan) {
  const std::size_t num_panels = ceil_div(cfg.n, cfg.nb);
  PanelDag dag(num_panels);
  NativeLuResult result;
  trace::Timeline& tl = result.timeline;

  double t_global = 0;
  const auto& super_stages = plan.super_stages();
  for (std::size_t ss = 0; ss < super_stages.size(); ++ss) {
    const std::size_t limit = ss + 1 < super_stages.size()
                                  ? super_stages[ss + 1].first_stage
                                  : num_panels;
    if (super_stages[ss].first_stage >= num_panels) break;
    const int group_cores = std::min(super_stages[ss].group_cores,
                                     plan.total_cores());
    const int groups = std::max(1, plan.total_cores() / group_cores);

    // Event queue: (time, is_idle_wakeup, group). Completions sort before
    // idle wakeups at equal time so a waiting group sees the fresh commit.
    struct Event {
      double t;
      bool idle;
      int group;
      bool operator>(const Event& o) const {
        return std::tie(t, idle, group) > std::tie(o.t, o.idle, o.group);
      }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
    std::vector<std::optional<Task>> running(groups);
    std::vector<double> next_completion;  // helper recomputed lazily
    std::vector<double> finish(groups, t_global);
    for (int g = 0; g < groups; ++g) pq.push({t_global, false, g});

    auto min_running_completion = [&](double after) {
      double best = -1;
      for (int g = 0; g < groups; ++g)
        if (running[g] && finish[g] > after &&
            (best < 0 || finish[g] < best))
          best = finish[g];
      return best;
    };

    while (!pq.empty()) {
      const Event ev = pq.top();
      pq.pop();
      const int g = ev.group;
      if (!ev.idle && running[g]) {
        dag.commit(*running[g]);
        running[g] = std::nullopt;
      }
      if (ev.idle && running[g]) continue;  // stale wakeup
      const std::optional<Task> task = dag.acquire(limit);
      if (task) {
        const TaskCost cost = task_cost(*task, cfg, model, group_cores);
        double t = ev.t;
        if (cfg.capture_timeline) {
          if (task->kind == TaskKind::kPanelFactor) {
            tl.record(g, SpanKind::kPanelFactor, t, t + cost.panel);
          } else {
            tl.record(g, SpanKind::kRowSwap, t, t + cost.swap);
            tl.record(g, SpanKind::kTrsm, t + cost.swap,
                      t + cost.swap + cost.trsm);
            tl.record(g, SpanKind::kGemm, t + cost.swap + cost.trsm,
                      t + cost.swap + cost.trsm + cost.gemm);
          }
        }
        result.panel_busy_seconds += cost.panel;
        running[g] = task;
        finish[g] = t + cost.total();
        pq.push({finish[g], false, g});
      } else if (dag.stages_complete(limit)) {
        finish[g] = std::max(finish[g], ev.t);
        // Group done with this super-stage; do not requeue.
      } else {
        const double wake = min_running_completion(ev.t);
        assert(wake >= 0 && "scheduler deadlock: nothing running, not done");
        pq.push({wake, true, g});
      }
    }
    double t_max = t_global;
    for (int g = 0; g < groups; ++g) t_max = std::max(t_max, finish[g]);
    // Global barrier + regrouping between super-stages.
    if (limit < num_panels) {
      const double barrier = model.params().global_barrier_seconds;
      if (cfg.capture_timeline)
        for (int g = 0; g < groups; ++g)
          tl.record(g, SpanKind::kBarrier, t_max, t_max + barrier);
      result.barrier_seconds += barrier;
      t_max += barrier;
    }
    t_global = t_max;
    if (limit >= num_panels) break;
  }
  assert(dag.done());
  result.factor_seconds = t_global;
  finalize(result, cfg, model);
  return result;
}

NativeLuResult simulate_static_lookahead_lu(const NativeLuConfig& cfg,
                                            const sim::KncLuModel& model) {
  const std::size_t n = cfg.n;
  const std::size_t nb = cfg.nb;
  const std::size_t num_panels = ceil_div(n, nb);
  const int total = model.spec().compute_cores();
  const double barrier = model.params().static_stage_sync_seconds;
  NativeLuResult result;
  trace::Timeline& tl = result.timeline;

  auto panel_time = [&](std::size_t p, int cores) {
    const std::size_t r0 = p * nb;
    return model.panel_seconds(n - r0, std::min(nb, n - r0), cores);
  };
  // Task2 of one column panel on a worker share of `cores` cores.
  auto task2_time = [&](std::size_t stage, std::size_t col, int cores) {
    const std::size_t r0 = stage * nb;
    const std::size_t iw = std::min(nb, n - r0);
    const std::size_t c0 = col * nb;
    const std::size_t width = std::min(nb, n - c0);
    const std::size_t below = n > r0 + iw ? n - r0 - iw : 0;
    return model.swap_seconds(iw, width) +
           model.trsm_seconds(iw, width, cores) +
           model.update_gemm_seconds(below, width, iw, cores) +
           model.params().task_overhead_seconds;
  };

  double t = 0;
  // Panel 0 on the critical path, everyone else waits at the first barrier.
  {
    int c0 = 1;
    double dt = panel_time(0, 1);
    for (int c = 2; c <= total; c *= 2) {
      if (panel_time(0, c) < dt) {
        dt = panel_time(0, c);
        c0 = c;
      }
    }
    (void)c0;
    if (cfg.capture_timeline) tl.record(0, SpanKind::kPanelFactor, t, t + dt);
    result.panel_busy_seconds += dt;
    t += dt + barrier;
    result.barrier_seconds += barrier;
  }

  // The static scheme groups update workers at a fixed granularity (one core
  // per update worker mirrors the dynamic scheduler's finest groups) and
  // splits off a panel group per stage. A global barrier closes every stage,
  // so per-stage quantization and panel exposure are lost time.
  const int update_worker_cores = 1;
  for (std::size_t i = 0; i + 1 < num_panels || i == 0; ++i) {
    if (i >= num_panels) break;
    const std::size_t cols = num_panels - i - 1;
    if (cols == 0) break;

    // The static scheme's trailing update is data-parallel across the update
    // workers at (column x row-block) sub-tile granularity: near-even
    // division of the total work, floored by the smallest indivisible grain.
    double total_core_seconds = 0, swap_total = 0, trsm_total = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      total_core_seconds += task2_time(i, i + 1 + c, update_worker_cores);
      const std::size_t r0 = i * nb;
      const std::size_t iw = std::min(nb, n - r0);
      const std::size_t cw = std::min(nb, n - (i + 1 + c) * nb);
      swap_total += model.swap_seconds(iw, cw);
      trsm_total += model.trsm_seconds(iw, cw, update_worker_cores);
    }

    // Minimum power-of-two panel group that hides the next panel under the
    // work-conserving update span; falls back to the fastest size.
    int panel_cores = 0;
    double stage_panel = 0;
    {
      const double budget = total_core_seconds / total;
      int best_c = 1;
      double best_t = panel_time(i + 1, 1);
      for (int c = 1; c <= total / 2; c *= 2) {
        const double pt = panel_time(i + 1, c);
        if (pt < best_t) {
          best_t = pt;
          best_c = c;
        }
        if (pt <= budget) {
          panel_cores = c;
          stage_panel = pt;
          break;
        }
      }
      if (panel_cores == 0) {
        panel_cores = best_c;
        stage_panel = best_t;
      }
    }
    const int workers =
        std::max(1, (total - panel_cores) / update_worker_cores);
    // Smallest schedulable grain: one column panel limited to a row block,
    // with the block height chosen so there are ~3 tasks per worker.
    const std::size_t r0g = i * nb;
    const std::size_t iwg = std::min(nb, n - r0g);
    const std::size_t below_full = n > r0g + iwg ? n - r0g - iwg : 0;
    const std::size_t blocks_per_col = std::max<std::size_t>(
        1, static_cast<std::size_t>(3 * workers) / std::max<std::size_t>(1, cols));
    const std::size_t below_g = std::min(
        below_full, std::max<std::size_t>(480, below_full / blocks_per_col));
    const double grain =
        model.swap_seconds(iwg, std::min(nb, n - (i + 1) * nb)) +
        model.trsm_seconds(iwg, std::min(nb, n - (i + 1) * nb),
                           update_worker_cores) +
        model.update_gemm_seconds(below_g, std::min(nb, n - (i + 1) * nb),
                                  iwg, update_worker_cores) +
        model.params().task_overhead_seconds;
    // Work-conserving update span: the panel group rejoins the update once
    // its panel is done ([5] load-balances within a stage); the barrier
    // between stages is what the dynamic scheme removes.
    double stage_update =
        (total_core_seconds + panel_cores * stage_panel) / total;
    stage_update *= 1.0 + model.params().static_imbalance_frac;
    if (stage_update < stage_panel) stage_update = stage_panel;
    stage_update = std::max(stage_update, grain);
    const double stage_t = std::max(stage_panel, stage_update);
    (void)workers;
    if (cfg.capture_timeline) {
      tl.record(0, SpanKind::kPanelFactor, t, t + stage_panel);
      // Update lane: aggregate swap/trsm/gemm proportions over the stage.
      const double frac = stage_update > 0 ? stage_update : 1.0;
      const double s1 = swap_total / static_cast<double>(workers);
      const double s2 = trsm_total / static_cast<double>(workers);
      tl.record(1, SpanKind::kRowSwap, t, t + std::min(s1, frac));
      tl.record(1, SpanKind::kTrsm, t + s1, t + std::min(s1 + s2, frac));
      tl.record(1, SpanKind::kGemm, t + s1 + s2, t + stage_update);
      tl.record(0, SpanKind::kBarrier, t + stage_t, t + stage_t + barrier);
      tl.record(1, SpanKind::kBarrier, t + stage_t, t + stage_t + barrier);
    }
    result.panel_busy_seconds += stage_panel;
    result.barrier_seconds += barrier;
    t += stage_t + barrier;
  }
  result.factor_seconds = t;
  finalize(result, cfg, model);
  return result;
}

ThreadPlan model_tuned_plan(const sim::KncLuModel& model, std::size_t n,
                            std::size_t nb, int total_cores) {
  const std::size_t num_panels = ceil_div(n, nb);
  const int cap = std::max(1, total_cores / 2);
  std::vector<SuperStage> stages;
  int current = 0;
  for (std::size_t s = 0; s < num_panels; ++s) {
    const std::size_t rows = n - s * nb;
    // Stage-s trailing update across the whole device is the budget the
    // panel must hide under.
    const std::size_t width = rows > nb ? rows - nb : 0;
    const double budget =
        width > 0
            ? model.update_gemm_seconds(width, width, std::min(nb, rows),
                                        total_cores)
            : 0.0;
    int g = cap;
    for (int c = 1; c <= cap; c *= 2) {
      if (model.panel_seconds(rows, std::min(nb, rows), c) <= budget) {
        g = c;
        break;
      }
    }
    if (g > current) {
      stages.push_back({s, g});
      current = g;
    }
  }
  if (stages.empty()) stages.push_back({0, 1});
  return ThreadPlan(total_cores, std::move(stages));
}

}  // namespace xphi::lu
