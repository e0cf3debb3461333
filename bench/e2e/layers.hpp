// Per-layer measurement for the traced run: registry windows (the server's
// metricsz before/after the measured phase, or this process's registry
// around the simulator), in-memory spans recorded by this benchmark's own
// code around calls into each layer, and the in-process replay of a served
// workload's request lines through the library's public entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace closfair::e2e {

/// A metricsz "metrics" object (metrics_to_json shape) back as a snapshot.
[[nodiscard]] obs::MetricsSnapshot snapshot_from_json(const Json& metrics);

/// Counter and histogram growth between two snapshots of one registry.
class MetricsWindow {
 public:
  MetricsWindow() = default;
  MetricsWindow(const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after);

  /// Fold another window of the same registry into this one.
  void add(const MetricsWindow& other);

  /// Counter delta; 0 for a counter never registered.
  [[nodiscard]] double counter(const std::string& name) const;
  /// Samples recorded into a histogram within the window.
  [[nodiscard]] std::uint64_t count(const std::string& histogram) const;
  [[nodiscard]] std::uint64_t total_ns(const std::string& histogram) const;
  /// Mean and log-linear p99 estimate (obs::estimate_quantile_ns) of the
  /// window's samples, in microseconds; 0 when empty.
  [[nodiscard]] double mean_us(const std::string& histogram) const;
  [[nodiscard]] double p99_us(const std::string& histogram) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, obs::MetricsSnapshot::HistogramValue> histograms_;
};

/// Spans kept in memory, written out once the run ends. Single-threaded:
/// nesting follows scope order, and a span's parent is the innermost span
/// open when it began.
class SpanRecorder {
 public:
  /// RAII span; ends when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t seq);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_;
  };

  /// A finished span recorded from outside: the client's request spans,
  /// written on their own trace row.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t seq);

  struct Layer {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  ///< total minus the time covered by child spans
  };
  [[nodiscard]] std::map<std::string, Layer> layers() const;

  /// Chrome-trace JSONL: one "ph":"X" event per span (ts/dur in us).
  void write_chrome_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into spans_, or -1
    std::uint64_t seq;
    int tid;  ///< trace row: 1 client spans, 2 spans recorded by Scope
  };
  std::vector<Span> spans_;
  std::int64_t open_ = -1;  ///< innermost open span
};

/// What replaying request lines in-process measured besides the spans.
struct ReplayResult {
  std::size_t lines = 0;
  std::size_t errors = 0;               ///< lines that failed to parse/resolve/evaluate
  double request_bytes = 0.0;           ///< framed request bytes, summed
  double response_bytes = 0.0;          ///< framed response bytes, summed
  std::map<std::string, std::vector<double>> evaluate_us;  ///< per family
};

/// Replay `lines` in order through wire::encode_frame/FrameDecoder,
/// wire::parse_request, SpecPatch::apply, ScenarioSpec::canonical and
/// content_hash, ResultCache::lookup/insert, svc::evaluate_scenario(_warm)
/// and wire::render_result — the server's per-request path without the
/// sockets and threads — with a span around each call.
[[nodiscard]] ReplayResult replay_lines(const std::vector<std::string>& lines,
                                        const std::vector<std::uint64_t>& seqs,
                                        SpanRecorder& spans);

}  // namespace closfair::e2e
