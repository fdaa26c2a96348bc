// Persistent tuning database: versioned JSON keyed by
// (machine fingerprint, op, shape bucket).
//
// A tuned run saves its best knob assignments here so the next run — or the
// next process — warm-starts from disk instead of re-searching. The file
// format is a flat, human-diffable JSON document:
//
//   {
//     "schema": "xphi-tunedb",
//     "version": 1,
//     "entries": [
//       {"machine": "...", "op": "offload_functional", "bucket": "m512_n512_k128",
//        "cost": 0.123, "budget": 48, "knobs": {"mt": 64, "nt": 32}},
//       ...
//     ]
//   }
//
// load() is strict about structure and *never* throws or crashes on bad
// input: a corrupted file, a different schema string, or a version this
// build does not speak makes load() return false and leaves the DB
// untouched, so a run falls back to model defaults instead of dying.
// Loading into a non-empty DB merges entry-by-entry: on a key conflict the
// lower-cost entry wins (ties keep the incumbent) — two machines' files, or
// an old and a new run's, can be combined without losing the better knob.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace xphi::tune {

struct TuningKey {
  std::string machine;  // hardware fingerprint (tuner.h)
  std::string op;       // e.g. "offload_functional", "panel", "net"
  std::string bucket;   // ShapeBucket::key()

  bool operator==(const TuningKey&) const = default;
  bool operator<(const TuningKey& o) const {
    if (machine != o.machine) return machine < o.machine;
    if (op != o.op) return op < o.op;
    return bucket < o.bucket;
  }
};

struct TuningEntry {
  /// Knob name -> tuned value, sorted by name (save order is canonical).
  std::vector<std::pair<std::string, long long>> knobs;
  /// Cost (seconds; lower is better) the search measured for these knobs —
  /// the merge tie-breaker.
  double cost = 0;
  /// Evaluation budget of the search that produced the entry (provenance).
  long long budget = 0;
};

class TuningDB {
 public:
  /// Version this build reads and writes. A bump means the semantics of an
  /// entry changed (not just new knob names — unknown names already pass
  /// through load()); older files are rejected wholesale, never reinterpreted.
  static constexpr int kVersion = 1;
  static constexpr const char* kSchema = "xphi-tunedb";

  /// Inserts or merges one entry. Returns true when `entry` became the
  /// stored value (inserted, or strictly lower cost than the incumbent).
  bool put(const TuningKey& key, TuningEntry entry);

  /// Stored entry for `key`, or nullptr.
  const TuningEntry* find(const TuningKey& key) const;

  /// Merges every entry of `other` (same conflict rule as put).
  void merge(const TuningDB& other);

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear() { entries_.clear(); }
  const std::map<TuningKey, TuningEntry>& entries() const noexcept {
    return entries_;
  }

  /// Parses `path` and merges its entries into this DB. Returns false —
  /// with *this unchanged — when the file is missing, unparsable, has the
  /// wrong schema/version, or any entry is structurally invalid.
  bool load(const std::string& path);

  /// Writes the whole DB to `path` (canonical order). False on I/O error.
  bool save(const std::string& path) const;

  /// In-memory variants of load/save, used by tests and the file paths.
  bool load_from_string(const std::string& text);
  std::string save_to_string() const;

 private:
  std::map<TuningKey, TuningEntry> entries_;
};

}  // namespace xphi::tune
