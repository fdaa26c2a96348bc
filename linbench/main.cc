// linbench: the repo benchmark's binary.
//
//   linbench --workload <native_lu|mixed_lu|hpl_2x2|serve_repeat>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--trace-out <path>]
//
// --trace 0 measures the workload with spans off and reports the
// end-to-end metrics. --trace 1 runs the same workload with every other op
// traced (the traced-minus-untraced op time is the tracing overhead), then
// the per-layer suite, writes the spans as Chrome trace-event JSON and
// reports the per-layer metrics. --smoke shrinks every size to a toy
// problem. The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "blas/microkernel/cpu_features.h"
#include "blas/microkernel/registry.h"
#include "linbench.h"

namespace linbench {

Sizes smoke_sizes() {
  Sizes z;
  z.lu_n = 192;
  z.nb = 32;
  z.dist_n = 192;
  z.serve_jobs = 120;
  z.serve_sizes = {32, 48};
  z.stream_elements = std::size_t{1} << 16;
  z.setups = 2;
  z.layer_reps = 2;
  return z;
}

}  // namespace linbench

namespace {

using namespace linbench;
namespace mk = xphi::blas::mk;

int usage(const char* why) {
  std::fprintf(stderr,
               "linbench: %s\nusage: linbench --workload "
               "<native_lu|mixed_lu|hpl_2x2|serve_repeat> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  std::string trace_out = "linbench-trace.json";
  bool smoke = false, have_workload = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      p.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      p.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (a == "--seconds") {
      p.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(p.seconds > 0) || p.seconds > 3600)
        return usage("--seconds takes a number in (0, 3600]");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      p.traced = v[0] == '1';
      have_trace = true;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !is_workload(p.workload))
    return usage("--workload names none of the four workloads");
  if (!have_trace) return usage("--trace is required");
  // A pinned kernel measures a different program than the one users get.
  if (const char* pin = std::getenv("XPHI_MICROKERNEL"); pin && *pin) {
    std::fprintf(stderr,
                 "linbench: refusing to run with XPHI_MICROKERNEL=%s set; the "
                 "benchmark measures the auto-dispatched library\n",
                 pin);
    return 2;
  }
  p.sizes = smoke ? smoke_sizes() : Sizes{};

  const Notes fingerprint = {
      {"cpu", mk::describe(mk::host_cpu_features())},
      {"fp64_kernel", mk::select_kernel<double>(0).name()},
      {"fp32_kernel", mk::select_kernel<float>(0).name()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", LINBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"workload", p.workload},
      {"seed", std::to_string(p.seed)},
      {"mode", smoke ? "smoke" : "full"},
  };
  std::string fp_line = "fingerprint: {";
  for (std::size_t i = 0; i < fingerprint.size(); ++i)
    fp_line += (i ? ", " : "") + json_string(fingerprint[i].first) + ": " +
               json_string(fingerprint[i].second);
  std::printf("%s}\n", fp_line.c_str());
  std::fflush(stdout);

  enable_spans(p.traced);
  const WorkloadResult wr = run_workload(p);
  bool correct = wr.failed == 0 && wr.attempted > 0;
  Metrics metrics = wr.metrics;
  if (p.traced) {
    LayerResult lr = run_layers(p);
    correct = correct && lr.correct;
    metrics = std::move(lr.metrics);
    metrics.push_back({"failed_frac",
                       static_cast<double>(wr.failed) /
                           static_cast<double>(wr.attempted),
                       "frac"});
    metrics.push_back({"trace.overhead_frac", wr.overhead_frac, "frac"});
    enable_spans(false);
    Notes meta = fingerprint;
    meta.insert(meta.end(), lr.notes.begin(), lr.notes.end());
    if (!write_chrome_trace(trace_out, meta)) {
      std::fprintf(stderr, "linbench: cannot write %s\n", trace_out.c_str());
      correct = false;
    } else {
      std::printf("trace: %zu spans -> %s\n", span_count(), trace_out.c_str());
    }
    for (const auto& [k, v] : lr.notes)
      std::printf("note: %s = %s\n", k.c_str(), v.c_str());
  }

  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "linbench: metric %s is not finite\n",
                   m.name.c_str());
      correct = false;
    }
    std::printf("metric: %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", wr.attempted, wr.failed,
              json.c_str());
  return 0;
}
