// In-memory span recorder and its Chrome trace-event writer. Spans stay in
// memory during the run and are written once at exit, so recording costs
// two clock reads and a vector push per call.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "linbench.h"

namespace linbench {
namespace {

struct Record {
  const char* layer;
  const char* name;
  std::uint64_t op;
  double ts_us;
  double dur_us;
  std::size_t tid;
};

struct Recorder {
  std::mutex mu;
  std::vector<Record> records;  // guarded by mu
  bool on = false;
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id = next.fetch_add(1);
  return id;
}

double us_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - recorder().epoch)
      .count();
}

void write_escaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

void enable_spans(bool on) { recorder().on = on; }

Span::Span(const char* layer, const char* name, std::uint64_t op)
    : layer_(layer), name_(name), op_(op), active_(recorder().on) {
  if (active_) t0_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  Recorder& r = recorder();
  const auto t1 = std::chrono::steady_clock::now();
  Record rec{layer_, name_, op_, us_since_epoch(t0_),
             std::chrono::duration<double, std::micro>(t1 - t0_).count(),
             thread_index()};
  std::lock_guard<std::mutex> lock(r.mu);
  r.records.push_back(rec);
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(recorder().mu);
  return recorder().records.size();
}

bool write_chrome_trace(const std::string& path, const Notes& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"otherData\": {", f);
  for (std::size_t i = 0; i < meta.size(); ++i) {
    if (i) std::fputs(", ", f);
    write_escaped(f, meta[i].first);
    std::fputs(": ", f);
    write_escaped(f, meta[i].second);
  }
  std::fputs("},\n\"traceEvents\": [\n", f);
  std::lock_guard<std::mutex> lock(recorder().mu);
  const auto& recs = recorder().records;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %zu, "
                 "\"args\": {\"op\": %llu}}%s\n",
                 r.name, r.layer, r.ts_us, r.dur_us, r.tid,
                 static_cast<unsigned long long>(r.op),
                 i + 1 < recs.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

}  // namespace linbench
