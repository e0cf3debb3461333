// Content-addressed result cache for the scenario-evaluation service.
//
// Keys are the *canonical* spec bytes (ScenarioSpec::canonical()); two
// requests that spell the same scenario differently therefore share one
// entry, and the FNV-1a content hash of the key doubles as the response's
// stable scenario address. A secondary index maps that content hash back to
// its entry so delta requests ({"base":"<hash>"}) can resolve the base spec
// without holding the canonical bytes. Eviction is LRU over a fixed entry
// capacity.
// Entries spill to JSONL — one {"hash","spec","result"} object per line,
// least-recent first so a reload replays insertions in recency order — and
// reload validates each line by re-canonicalizing the spec, so a stale or
// hand-edited spill cannot poison lookups with unreachable keys.
//
// All public methods are thread-safe (one mutex; the service's workers only
// touch the cache between batches, so contention is not a concern).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include <mutex>

#include "svc/spec.hpp"

namespace closfair::svc {

class ResultCache {
 private:
  struct Entry {
    std::string spec;  ///< canonical bytes (the key)
    ScenarioResult result;
  };

 public:
  /// `capacity` = maximum retained entries (>= 1).
  explicit ResultCache(std::size_t capacity = 1024);

  /// Copy of the cached result for this canonical spec, refreshing its
  /// recency; nullopt on miss. Bumps svc.cache_hits / svc.cache_misses.
  [[nodiscard]] std::optional<ScenarioResult> lookup(const std::string& canonical);

  /// Insert or refresh. Evicts the least-recently-used entry when full
  /// (bumps svc.cache_evictions). `canonical` must be canonical spec bytes —
  /// the cache trusts its caller and does not re-derive them.
  /// Returns true when a new entry was created, false when an existing entry
  /// was refreshed.
  bool insert(const std::string& canonical, const ScenarioResult& result);

  /// A delta base: copies of one entry's canonical bytes and result, taken
  /// under the cache lock. A plain value with no reference into the cache,
  /// so it stays valid after the entry is evicted or the cache is cleared.
  class BasePin {
   public:
    [[nodiscard]] const std::string& canonical() const { return entry_.spec; }
    [[nodiscard]] const ScenarioResult& result() const { return entry_.result; }

   private:
    friend class ResultCache;
    explicit BasePin(Entry entry) : entry_(std::move(entry)) {}

    Entry entry_;
  };

  /// Snapshot the entry whose canonical bytes have FNV-1a content hash
  /// `hash`, refreshing its recency; nullopt when no cached entry carries
  /// that address.
  [[nodiscard]] std::optional<BasePin> pin_base(std::uint64_t hash);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every entry.
  void clear();

  /// Write every entry as JSONL, least-recently-used first.
  void save(std::ostream& out) const;

  /// Load a save() spill, inserting line by line (so the stream's last line
  /// ends up most recent). Returns the number of *distinct* entries added —
  /// a line whose canonical spec is already present refreshes that entry
  /// without counting. The svc.cache_size gauge is refreshed once at load
  /// end. A malformed *trailing* record — the signature of an append torn by
  /// a crash — is skipped with a stderr warning and a svc.cache_spill_skipped
  /// count; a malformed line followed by more content is corruption and
  /// throws JsonParseError / SpecError with the 1-based line number.
  std::size_t load(std::istream& in);

 private:
  // front = most recently used. index_ maps the canonical bytes to the list
  // node holding them; by_hash_ maps their FNV-1a content hash the same way
  // (last writer wins on the astronomically unlikely 64-bit collision — the
  // older entry stays reachable by canonical bytes, just not by address).
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> entries_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> by_hash_;

  bool insert_locked(const std::string& canonical, const ScenarioResult& result);
  void erase_locked(std::list<Entry>::iterator it);
};

}  // namespace closfair::svc
