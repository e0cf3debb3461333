// closfair_bench — the end-to-end benchmark (bench/e2e/README.md).
//
//   closfair_bench --workload cold_mix|hot_mix|exact_sweep|sim_fct
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--workdir DIR] [--inject-mismatch]
//
// Served workloads start closfair_serve --listen 127.0.0.1:0 --workers 2
// --cache 65536 as a child and drive it over one loopback connection;
// sim_fct calls the simulator in-process. Every run checks its outputs
// (byte-compare against closfair_serve batch mode, or the simulator's FCT
// invariants) and prints a human-readable report followed, as the last
// stdout line, by one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":..,"unit":"ms"},..}}
//
// carrying the end-to-end metrics, or with --trace 1 the per-layer metrics
// (after an untraced and a traced measurement on the same seed, whose
// difference is the tracing overhead). Chrome-trace JSONL and
// layers_<workload>.json land in --workdir. Exit status 0 iff every output
// was correct and the run was valid.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "child.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/clos.hpp"
#include "sim/event_sim.hpp"
#include "stats.hpp"
#include "svc/spec.hpp"
#include "util/rng.hpp"
#include "wire/client.hpp"
#include "workloads.hpp"

using namespace closfair;
using namespace closfair::e2e;

namespace {

constexpr const char* kUsage =
    "usage: closfair_bench --workload cold_mix|hot_mix|exact_sweep|sim_fct [--seed N] "
    "[--seconds S] [--trace 0|1] [--workdir DIR] [--inject-mismatch]";

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Open-loop segments (each followed by a capacity burst) per served run;
/// the latency and capacity metrics are medians over them.
constexpr std::size_t kSegments = 10;
/// Blocks a single closed loop (exact_sweep) is split into for its capacity
/// median; its cell count is a multiple of 10 * kBlocks (workloads.cpp).
constexpr std::size_t kBlocks = 40;
/// A generator whose lag p99 exceeds this did not offer the scheduled load;
/// such a measurement is repeated, up to kAttempts in all.
constexpr double kMaxLagP99Us = 1000.0;
constexpr int kAttempts = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string workdir;
  std::string serve;  ///< closfair_serve, built next to this program
  bool inject_mismatch = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, printed with --trace 0 (BENCHMARK.json
/// "end_to_end"; bench/e2e/README.md defines each per workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, printed with --trace 1 (BENCHMARK.json
/// "per_layer"). A layer the workload never exercises reads 0.
constexpr MetricDef kPerLayer[] = {
    {"p99_ms", "ms"},
    {"wire.stage.read.mean_us", "us"},
    {"wire.stage.read.p99_us", "us"},
    {"wire.stage.parse.mean_us", "us"},
    {"wire.stage.parse.p99_us", "us"},
    {"wire.stage.admit.mean_us", "us"},
    {"wire.stage.admit.p99_us", "us"},
    {"wire.stage.queue_wait.mean_us", "us"},
    {"wire.stage.queue_wait.p99_us", "us"},
    {"wire.stage.evaluate.mean_us", "us"},
    {"wire.stage.evaluate.p99_us", "us"},
    {"wire.stage.reorder_wait.mean_us", "us"},
    {"wire.stage.reorder_wait.p99_us", "us"},
    {"wire.stage.write.mean_us", "us"},
    {"wire.stage.write.p99_us", "us"},
    {"wire.non_evaluate.mean_us", "us"},
    {"wire.dedup_hits", "count"},
    {"wire.overload_sheds", "count"},
    {"client.lag.p99_us", "us"},
    {"client.send.mean_us", "us"},
    {"protocol.parse_request.ns", "ns"},
    {"protocol.render_result.ns", "ns"},
    {"framing.roundtrip.ns", "ns"},
    {"framing.request_bytes", "bytes"},
    {"framing.response_bytes", "bytes"},
    {"spec.canonical.ns", "ns"},
    {"spec.content_hash.ns", "ns"},
    {"spec.patch_apply.ns", "ns"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lookup.ns", "ns"},
    {"cache.insert.ns", "ns"},
    {"delta.hit_ratio", "ratio"},
    {"delta.warm_starts", "count"},
    {"delta.result_reuses", "count"},
    {"service.evaluate.heuristic.p50_us", "us"},
    {"service.evaluate.heuristic.p99_us", "us"},
    {"service.evaluate.lp.p50_us", "us"},
    {"service.evaluate.lp.p99_us", "us"},
    {"service.evaluate.exhaustive.p50_us", "us"},
    {"service.evaluate.exhaustive.p99_us", "us"},
    {"svc.evaluations", "count"},
    {"search.candidates", "count"},
    {"search.routings_covered", "count"},
    {"search.useful_ratio", "ratio"},
    {"search.ns_per_candidate", "ns"},
    {"search.odometer_share", "ratio"},
    {"waterfill.calls", "count"},
    {"waterfill.fast_ratio", "ratio"},
    {"waterfill.rounds_per_call", "count"},
    {"waterfill.links_per_call", "count"},
    {"lp.solves", "count"},
    {"lp.pivots_per_solve", "count"},
    {"lp.maxmin.level_lps", "count"},
    {"sim.mean_active_flows", "count"},
    {"sim.waterfill_calls_per_event", "count"},
    {"sim.rounds_per_event", "count"},
    {"trace.overhead_pct", "%"},
    {"failed_frac", "ratio"},
};

/// Everything one run reports.
class Report {
 public:
  void problem(const std::string& what) {
    correct_ = false;
    problems_.push_back(what);
  }
  /// Record a metric of either table by name.
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Record a fact about how a per-layer metric was measured (which tail
  /// percentile a sample supported, its size), kept in layers_<workload>.json.
  void note(const std::string& name, double value) { notes_[name] = value; }
  [[nodiscard]] const std::map<std::string, double>& notes() const { return notes_; }
  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }

  /// The per-layer table's values, in table order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> per_layer() const {
    std::vector<std::pair<std::string, double>> out;
    for (const MetricDef& m : kPerLayer) out.emplace_back(m.name, value(m.name));
    return out;
  }

  /// Human-readable lines, then the one-line JSON result.
  void print(bool trace) const {
    const auto table = [&](const auto& defs) {
      std::string json;
      for (const MetricDef& m : defs) {
        const double v = value(m.name);
        std::printf("  %-40s %18.6f %s\n", m.name, v, m.unit);
        char digits[64];
        const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
        json += std::string(json.empty() ? "\"" : ",\"") + m.name + "\":{\"value\":" +
                std::string(digits, end) + ",\"unit\":\"" + m.unit + "\"}";
      }
      return json;
    };
    const std::string metrics = trace ? table(kPerLayer) : table(kEndToEnd);
    for (const std::string& p : problems_) std::printf("  PROBLEM: %s\n", p.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}\n",
                correct() ? "true" : "false", attempted_, failed_, metrics.c_str());
  }

 private:
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, double> values_;
  std::map<std::string, double> notes_;
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------ served runs

/// One measured run of a served workload. After the set-ups, kSegments
/// rounds each send an open-loop segment and then a capacity burst (a closed
/// loop over the next slice of the capacity lines), so latency and capacity
/// both sample the whole run rather than one stretch of it.
struct ServedMeasurement {
  double setup_s = 0.0;
  PhaseResult preload;                 ///< the kept (last) set-up's preload
  std::vector<PhaseResult> segments;   ///< open-loop segments
  std::vector<PhaseResult> bursts;     ///< closed-loop bursts
  std::vector<std::string> sent;       ///< every line, in send order
  std::vector<std::string> responses;  ///< every response, in send order
  double peak_rss_mb = 0.0;
  std::optional<MetricsWindow> window;  ///< server registry growth (traced)
};

/// The server's metricsz snapshot once all `requests` data requests sent so
/// far are recorded: the writer publishes a request's trace just after its
/// response leaves, so a scrape can otherwise run ahead of the last few.
obs::MetricsSnapshot settled_scrape(std::uint16_t port, std::size_t requests) {
  wire::Client admin;
  admin.connect("127.0.0.1", port);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    obs::MetricsSnapshot snap =
        snapshot_from_json(Json::parse(admin.call("metricsz")).at("metrics"));
    bool settled = true;
    for (const auto& hist : snap.histograms) {
      if (hist.name.rfind("wire.stage.", 0) == 0 || hist.name == "wire.request") {
        settled = settled && hist.count == requests;
      }
    }
    if (settled) return snap;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("server metrics never settled at " + std::to_string(requests) +
                           " requests");
}

/// Lines [k * n / parts, (k + 1) * n / parts) of `lines`.
std::vector<std::string> slice(const std::vector<std::string>& lines, std::size_t k,
                               std::size_t parts) {
  return {lines.begin() + static_cast<std::ptrdiff_t>(k * lines.size() / parts),
          lines.begin() + static_cast<std::ptrdiff_t>((k + 1) * lines.size() / parts)};
}

ServedMeasurement measure_served(const Options& opt, const ServedInputs& in, bool traced) {
  const std::vector<std::string> server_args = {"--listen", "127.0.0.1:0", "--workers", "2",
                                                "--cache", "65536"};
  ServedMeasurement m;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<wire::Client> client;
  for (int k = 0; k < kSetups; ++k) {
    if (server) {
      client.reset();
      server->stop();
      // Spread the set-ups out so they do not all land in one stretch of
      // whatever else the machine is doing.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(opt.serve, server_args);
    client = std::make_unique<wire::Client>();
    client->connect("127.0.0.1", server->port());
    (void)client->call("statusz");  // first answer
    if (!in.preload.empty()) m.preload = run_closed_loop(*client, in.preload, in.window);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  m.setup_s = median(setups);
  m.sent = in.preload;
  m.responses = m.preload.responses;

  // Traced: the server's registry growth over the open-loop segments (the
  // regime p50_ms measures), or over the whole loop when there are none.
  if (traced) m.window.emplace();
  const auto scraped = [&](const auto& phase, std::size_t lines) {
    const obs::MetricsSnapshot before = settled_scrape(server->port(), m.sent.size());
    PhaseResult result = phase();
    m.window->add(MetricsWindow(before, settled_scrape(server->port(), m.sent.size() + lines)));
    return result;
  };
  const std::vector<std::int64_t> offsets =
      poisson_offsets(in.open.size(), in.open_rate, stream_seed(opt.seed, 5));
  const std::size_t rounds = in.open.empty() ? 1 : kSegments;
  for (std::size_t k = 0; k < rounds; ++k) {
    if (!in.open.empty()) {
      const std::size_t first = k * in.open.size() / rounds;
      const std::vector<std::string> lines = slice(in.open, k, rounds);
      const auto begin = offsets.begin() + static_cast<std::ptrdiff_t>(first);
      std::vector<std::int64_t> due(begin, begin + static_cast<std::ptrdiff_t>(lines.size()));
      for (std::int64_t& t : due) t -= offsets[first];
      const auto segment = [&] { return run_open_loop(*client, lines, due); };
      m.segments.push_back(traced ? scraped(segment, lines.size()) : segment());
      m.sent.insert(m.sent.end(), lines.begin(), lines.end());
      m.responses.insert(m.responses.end(), m.segments.back().responses.begin(),
                         m.segments.back().responses.end());
    }
    const std::vector<std::string> lines = slice(in.capacity, k, rounds);
    const auto burst = [&] { return run_closed_loop(*client, lines, in.window); };
    m.bursts.push_back(traced && in.open.empty() ? scraped(burst, lines.size()) : burst());
    m.sent.insert(m.sent.end(), lines.begin(), lines.end());
    m.responses.insert(m.responses.end(), m.bursts.back().responses.begin(),
                       m.bursts.back().responses.end());
  }
  m.peak_rss_mb = server->peak_rss_mb();
  client.reset();
  server->stop();
  return m;
}

/// Latency from due time, in ms, of every answered request of a phase.
std::vector<double> latencies_ms(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.recv_ns != 0) out.push_back(ms(s.recv_ns - s.due_ns));
  }
  return out;
}

/// Latency windows: each open-loop segment.
std::vector<std::vector<double>> latency_windows(const ServedMeasurement& m) {
  std::vector<std::vector<double>> windows;
  for (const PhaseResult& segment : m.segments) windows.push_back(latencies_ms(segment));
  return windows;
}

/// p50_ms: for an open loop, the median over segments of each segment's
/// median; for a single closed loop, the median over all its requests.
double served_p50(const ServedMeasurement& m) {
  return m.segments.empty() ? median(latencies_ms(m.bursts.front()))
                            : windowed_percentile(latency_windows(m), 0.5);
}

/// Capacity samples in requests per second: each burst's rate, or — for one
/// closed loop — the rate of each of kBlocks consecutive blocks of
/// completions.
std::vector<double> capacity_rates(const ServedMeasurement& m) {
  std::vector<double> rates;
  if (m.bursts.size() > 1) {
    for (const PhaseResult& burst : m.bursts) {
      rates.push_back(static_cast<double>(burst.responses.size()) / burst.seconds());
    }
    return rates;
  }
  const PhaseResult& loop = m.bursts.front();
  std::int64_t block_start = loop.start_ns;
  for (std::size_t k = 0; k < kBlocks; ++k) {
    const std::size_t first = k * loop.responses.size() / kBlocks;
    const std::size_t last = (k + 1) * loop.responses.size() / kBlocks;
    if (last == first) continue;
    const std::int64_t block_end = loop.samples[last - 1].recv_ns;
    rates.push_back(static_cast<double>(last - first) /
                    (static_cast<double>(block_end - block_start) / 1e9));
    block_start = block_end;
  }
  return rates;
}

double lag_p99_us(const std::vector<PhaseResult>& phases) {
  std::vector<double> lags;
  for (const PhaseResult& phase : phases) {
    for (const Sample& s : phase.samples) lags.push_back(us(s.send_ns - s.due_ns));
  }
  return percentile(std::move(lags), 0.99);
}

/// Indices of the seeded 1-in-8 sample of a unique-line stream.
std::vector<std::size_t> sample_one_in_eight(std::uint64_t seed, std::size_t n) {
  Rng rng(stream_seed(seed, 7));
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_below(8) == 0) picked.push_back(i);
  }
  return picked;
}

std::uint64_t line_id(const std::string& line) {
  // Lines start {"id":N,...
  return std::stoull(line.substr(6));
}

/// Check every response. Missing responses, evaluation errors and overload
/// sheds count as failed; responses must byte-equal closfair_serve batch
/// mode — over the whole ordered stream when `full_stream`, else over the
/// seeded 1-in-8 sample (the lines are unique, so a sampled line's response
/// cannot depend on the rest). A shed is the server's admission control
/// answering a stall, not a wrong output, so it is not compared; missing
/// responses, errors and mismatches make the run incorrect.
void verify_served(const Options& opt, const std::vector<std::string>& lines,
                   const std::vector<std::string>& responses, bool full_stream,
                   Report& report) {
  const auto shed = [&](std::size_t i) {
    return responses[i].find("\"overload\":true") != std::string::npos;
  };
  std::vector<bool> bad(lines.size(), false);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i >= responses.size() || shed(i)) {
      bad[i] = true;
    } else if (responses[i].find("\"error\":") != std::string::npos) {
      bad[i] = true;
      ++errors;
    }
  }
  std::vector<std::size_t> checked;
  if (full_stream) {
    for (std::size_t i = 0; i < lines.size(); ++i) checked.push_back(i);
  } else {
    checked = sample_one_in_eight(opt.seed, lines.size());
  }
  const std::int64_t t0 = now_ns();
  std::vector<std::string> reference_in;
  for (std::size_t i : checked) reference_in.push_back(lines[i]);
  std::vector<std::string> reference =
      run_batch(opt.serve, {"--workers", "2", "--cache", "65536"}, reference_in, opt.workdir);
  if (opt.inject_mismatch && !reference.empty()) reference[0] += ' ';
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < checked.size(); ++k) {
    const std::size_t i = checked[k];
    if (i >= responses.size() || shed(i)) continue;
    if (k >= reference.size() || reference[k] != responses[i]) {
      bad[i] = true;
      ++mismatches;
    }
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    if (!bad[i]) continue;
    if (++failed <= 3) {
      std::printf("  failed line %zu: %.160s\n", i,
                  i < responses.size() ? responses[i].c_str() : "(no response)");
    }
  }
  report.count(lines.size(), failed);
  if (responses.size() < lines.size()) {
    report.problem(std::to_string(lines.size() - responses.size()) + " responses missing");
  }
  if (errors != 0) report.problem(std::to_string(errors) + " requests answered with an error");
  if (mismatches != 0) {
    report.problem(std::to_string(mismatches) + " of " + std::to_string(checked.size()) +
                   " responses differ from closfair_serve batch mode");
  }
  std::printf("  checked %zu of %zu responses against batch mode in %.2f s, %zu failed\n",
              checked.size(), lines.size(), static_cast<double>(now_ns() - t0) / 1e9, failed);
}

void fairness_layers(const MetricsWindow& w, Report& report) {
  const double fills = w.counter("waterfill.calls") + w.counter("waterfill.generic_calls");
  report.set("waterfill.calls", fills);
  report.set("waterfill.fast_ratio",
             ratio(w.counter("waterfill.fast_calls"), w.counter("waterfill.calls")));
  report.set("waterfill.rounds_per_call",
             ratio(w.counter("waterfill.rounds") + w.counter("waterfill.generic_rounds"), fills));
  report.set("waterfill.links_per_call",
             ratio(w.counter("waterfill.links_touched"), w.counter("waterfill.calls")));
  report.set("lp.solves", w.counter("lp.solves"));
  report.set("lp.pivots_per_solve", ratio(w.counter("lp.pivots"), w.counter("lp.solves")));
  report.set("lp.maxmin.level_lps", w.counter("lp.maxmin.level_lps"));
}

void served_layers(const Options& opt, const ServedInputs& in, const ServedMeasurement& m,
                   SpanRecorder& spans, Report& report) {
  const MetricsWindow& w = *m.window;
  static const char* const kStages[] = {"read",     "parse",        "admit", "queue_wait",
                                        "evaluate", "reorder_wait", "write"};
  double non_evaluate = 0.0;
  std::uint64_t stage_total_ns = 0;
  for (const char* stage : kStages) {
    const std::string hist = std::string("wire.stage.") + stage;
    report.set(hist + ".mean_us", w.mean_us(hist));
    report.set(hist + ".p99_us", w.p99_us(hist));
    // The plumbing around a request: everything but evaluating it and
    // waiting for a worker.
    if (std::strcmp(stage, "evaluate") != 0 && std::strcmp(stage, "queue_wait") != 0) {
      non_evaluate += w.mean_us(hist);
    }
    stage_total_ns += w.total_ns(hist);
  }
  report.set("wire.non_evaluate.mean_us", non_evaluate);
  // Each request's stages partition its wall time, so the sums must agree.
  if (stage_total_ns != w.total_ns("wire.request")) {
    report.problem("wire stage totals " + std::to_string(stage_total_ns) +
                   " ns do not sum to wire.request " + std::to_string(w.total_ns("wire.request")));
  }
  std::printf("  wire.request.mean_us %.3f = sum of stage means over %llu requests\n",
              w.mean_us("wire.request"), static_cast<unsigned long long>(w.count("wire.request")));
  report.set("wire.dedup_hits", w.counter("wire.dedup_hits"));
  report.set("wire.overload_sheds", w.counter("wire.overload_sheds"));

  // Phases in send order, each with its lines (m.sent after the preload).
  std::vector<const PhaseResult*> phases;
  for (std::size_t k = 0; k < m.bursts.size(); ++k) {
    if (k < m.segments.size()) phases.push_back(&m.segments[k]);
    phases.push_back(&m.bursts[k]);
  }
  report.set("client.lag.p99_us", lag_p99_us(m.segments.empty() ? m.bursts : m.segments));
  double send_sum = 0.0;
  double sends = 0.0;
  std::size_t line = in.preload.size();
  for (const PhaseResult* phase : phases) {
    for (const Sample& s : phase->samples) {
      send_sum += us(s.sent_ns - s.send_ns);
      sends += 1.0;
      if (s.recv_ns != 0) spans.add("client.request", s.due_ns, s.recv_ns, line_id(m.sent[line]));
      ++line;
    }
  }
  report.set("client.send.mean_us", ratio(send_sum, sends));

  // In-process replay of the same lines: the preload and every open-loop
  // line in order when cache state matters (hot_mix), else the 1-in-8
  // sample of the unique stream.
  std::vector<std::string> replay_in;
  if (!in.preload.empty()) {
    replay_in = in.preload;
    replay_in.insert(replay_in.end(), in.open.begin(), in.open.end());
  } else {
    for (std::size_t i : sample_one_in_eight(opt.seed, m.sent.size())) {
      replay_in.push_back(m.sent[i]);
    }
  }
  std::vector<std::uint64_t> seqs;
  for (const std::string& line : replay_in) seqs.push_back(line_id(line));
  const ReplayResult replay = replay_lines(replay_in, seqs, spans);
  if (replay.errors != 0) {
    report.problem(std::to_string(replay.errors) + " lines failed in the in-process replay");
  }
  const auto layers = spans.layers();
  const auto mean_self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) /
                                    static_cast<double>(it->second.count);
  };
  report.set("protocol.parse_request.ns", mean_self("protocol.parse_request"));
  report.set("protocol.render_result.ns", mean_self("protocol.render_result"));
  report.set("framing.roundtrip.ns", mean_self("framing.roundtrip"));
  report.set("framing.request_bytes",
             ratio(replay.request_bytes, static_cast<double>(replay.lines)));
  report.set("framing.response_bytes",
             ratio(replay.response_bytes, static_cast<double>(replay.lines)));
  report.set("spec.canonical.ns", mean_self("spec.canonical"));
  report.set("spec.content_hash.ns", mean_self("spec.content_hash"));
  report.set("spec.patch_apply.ns", mean_self("spec.patch_apply"));

  const double hits = w.counter("svc.cache_hits");
  report.set("cache.hit_ratio", ratio(hits, hits + w.counter("svc.cache_misses")));
  report.set("cache.lookup.ns", mean_self("cache.lookup"));
  report.set("cache.insert.ns", mean_self("cache.insert"));
  report.set("delta.hit_ratio",
             ratio(w.counter("svc.delta_hits"), w.counter("svc.delta_requests")));
  report.set("delta.warm_starts", w.counter("svc.delta_warm_starts"));
  report.set("delta.result_reuses", w.counter("svc.delta_result_reuses"));

  for (const char* family : {"heuristic", "lp", "exhaustive"}) {
    const auto it = replay.evaluate_us.find(family);
    const std::vector<double> none;
    const std::vector<double>& samples = it == replay.evaluate_us.end() ? none : it->second;
    const Tail tail = pooled_tail(samples, 0.99);
    const std::string name = std::string("service.evaluate.") + family;
    report.set(name + ".p50_us", median(samples));
    report.set(name + ".p99_us", tail.value);
    report.note(name + ".samples", static_cast<double>(samples.size()));
    report.note(name + ".tail_percentile", tail.q * 100.0);
  }
  report.set("svc.evaluations", w.counter("svc.evaluations"));

  const double candidates = w.counter("search.candidates");
  report.set("search.candidates", candidates);
  report.set("search.routings_covered", w.counter("search.routings_covered"));
  report.set("search.useful_ratio", ratio(candidates, w.counter("search.routings_covered")));
  report.set("search.ns_per_candidate",
             ratio(static_cast<double>(w.total_ns("search.run")), candidates));
  report.set("search.odometer_share",
             w.counter("search.runs") == 0.0
                 ? 0.0
                 : 1.0 - ratio(w.counter("search.canonical_runs"), w.counter("search.runs")));

  fairness_layers(w, report);
  std::printf("  replayed %zu lines in process\n", replay.lines);
}

/// Chrome-trace JSONL of every span, and layers_<workload>.json with the
/// per-layer metrics and each span name's count, total and self time.
void write_trace_outputs(const Options& opt, const SpanRecorder& spans, const Report& report) {
  const std::string trace_path = opt.workdir + "/trace_" + opt.workload + ".jsonl";
  spans.write_chrome_jsonl(trace_path);
  Json root = Json::object();
  root.set("workload", Json::string(opt.workload));
  root.set("seed", Json::number(static_cast<std::int64_t>(opt.seed)));
  root.set("correct", Json::boolean(report.correct()));
  Json metrics = Json::object();
  for (const auto& [name, value] : report.per_layer()) metrics.set(name, Json::number(value));
  root.set("metrics", std::move(metrics));
  Json notes = Json::object();
  for (const auto& [name, value] : report.notes()) notes.set(name, Json::number(value));
  root.set("notes", std::move(notes));
  Json layers = Json::object();
  for (const auto& [name, layer] : spans.layers()) {
    Json entry = Json::object();
    entry.set("count", Json::number(static_cast<std::int64_t>(layer.count)));
    entry.set("total_ns", Json::number(layer.total_ns));
    entry.set("self_ns", Json::number(layer.self_ns));
    layers.set(name, std::move(entry));
  }
  root.set("spans", std::move(layers));
  const std::string layers_path = opt.workdir + "/layers_" + opt.workload + ".json";
  std::ofstream(layers_path, std::ios::trunc) << root.dump(2) << '\n';
  std::printf("  wrote %s and %s\n", trace_path.c_str(), layers_path.c_str());
}

void run_served(const Options& opt, SpanRecorder& spans, Report& report) {
  const std::int64_t t0 = now_ns();
  const ServedInputs in = opt.workload == "cold_mix"  ? cold_mix(opt.seed, opt.seconds)
                          : opt.workload == "hot_mix" ? hot_mix(opt.seed, opt.seconds)
                                                      : exact_sweep(opt.seed, opt.seconds);
  std::printf("%s seed %llu: %zu preload + %zu open-loop at %.0f/s + %zu closed-loop "
              "(window %zu) requests, generated in %.3f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), in.preload.size(),
              in.open.size(), in.open_rate, in.capacity.size(), in.window,
              static_cast<double>(now_ns() - t0) / 1e9);

  std::optional<ServedMeasurement> untraced;
  if (opt.trace) untraced = measure_served(opt, in, false);
  ServedMeasurement m = measure_served(opt, in, opt.trace);
  // A generator that fell behind schedule did not offer the workload's load:
  // that measurement is discarded and taken again.
  for (int attempt = 1; attempt < kAttempts && !m.segments.empty() &&
                        lag_p99_us(m.segments) > kMaxLagP99Us;
       ++attempt) {
    std::printf("  generator lag p99 %.1f us: measurement invalid, measuring again\n",
                lag_p99_us(m.segments));
    m = measure_served(opt, in, opt.trace);
  }

  std::vector<const PhaseResult*> phases = {&m.preload};
  for (const PhaseResult& phase : m.segments) phases.push_back(&phase);
  for (const PhaseResult& phase : m.bursts) phases.push_back(&phase);
  for (const PhaseResult* phase : phases) {
    if (!phase->failure.empty()) report.problem("connection failed: " + phase->failure);
  }
  verify_served(opt, m.sent, m.responses, !in.preload.empty(), report);

  const double p50 = served_p50(m);
  double p99 = windowed_percentile(latency_windows(m), 0.99);
  if (m.segments.empty()) {
    const Tail tail = pooled_tail(latencies_ms(m.bursts.front()), 0.99);
    p99 = tail.value;
    report.note("p99_ms.tail_percentile", tail.q * 100.0);
  }
  const std::vector<double> rates = capacity_rates(m);
  report.set("setup_s", m.setup_s);
  report.set("p50_ms", p50);
  report.set("p99_ms", p99);
  report.set("throughput_per_s", median(rates));
  report.set("peak_rss_mb", m.peak_rss_mb);
  std::printf("  latency from due time: p50 %.4f ms, p99 %.4f ms (%s)\n", p50, p99,
              m.segments.empty() ? "pooled" : "medians over segments");
  const Quartiles rq = quartiles(rates);
  std::printf("  capacity: median %.1f/s over %zu %s (quartiles %.1f %.1f %.1f)\n",
              median(rates), rates.size(), m.bursts.size() > 1 ? "bursts" : "blocks", rq.q1,
              rq.median, rq.q3);
  if (!m.segments.empty()) {
    const double lag = lag_p99_us(m.segments);
    std::printf("  open-loop generator lag p99 %.1f us\n", lag);
    if (lag > kMaxLagP99Us) {
      report.problem("generator lag p99 " + std::to_string(lag) +
                     " us exceeds 1 ms: the run did not offer its scheduled load");
    }
  }
  if (opt.trace) {
    const double base = served_p50(*untraced);
    report.set("trace.overhead_pct", 100.0 * (p50 - base) / base);
    served_layers(opt, in, m, spans, report);
  }
  report.set("failed_frac",
             ratio(static_cast<double>(report.failed()), static_cast<double>(report.attempted())));
}

// --------------------------------------------------------------- sim_fct

struct SimMeasurement {
  double setup_s = 0.0;
  std::vector<double> job_ms;
  std::vector<double> job_rates;  ///< flow events per second, per job
  double events = 0.0;
  double wall_s = 0.0;
  double flow_time = 0.0;  ///< sum of FCTs (Little's law numerator)
  double sim_time = 0.0;   ///< sum of job makespans
  std::uint64_t digest = 0;
  std::vector<std::string> problems;
  std::size_t failed_jobs = 0;
};

/// Run the jobs one after another; each job's set-up is generating its trace.
SimMeasurement measure_sim(const Options& opt, SpanRecorder* spans) {
  SimMeasurement m;
  std::vector<double> setups;
  const ClosNetwork net = ClosNetwork::paper(kSimClosN);
  std::string fct_bytes;
  const std::int64_t start = now_ns();
  for (std::size_t j = 0; j < sim_job_count(opt.seconds); ++j) {
    const std::int64_t t0 = now_ns();
    const SimJob job = sim_job(opt.seed, j);
    const std::int64_t t1 = now_ns();
    setups.push_back(static_cast<double>(t1 - t0) / 1e9);
    const Trace& trace = job.trace;
    const std::size_t problems_before = m.problems.size();
    Rng rng(job.route_seed);
    std::optional<SpanRecorder::Scope> span;
    if (spans != nullptr) span.emplace(*spans, "sim.simulate_clos", j);
    const SimStats stats = simulate_clos(net, trace, SimPolicy::kEcmp, rng);
    span.reset();
    const std::int64_t t2 = now_ns();
    m.job_ms.push_back(ms(t2 - t1));
    m.job_rates.push_back(2.0 * static_cast<double>(trace.size()) /
                          (static_cast<double>(t2 - t1) / 1e9));
    m.events += 2.0 * static_cast<double>(trace.size());
    m.sim_time += stats.finish_time;
    if (stats.completed != trace.size() || stats.fcts.size() != trace.size()) {
      m.problems.push_back("job " + std::to_string(j) + ": not every flow completed");
    }
    for (std::size_t f = 0; f < stats.fcts.size(); ++f) {
      m.flow_time += stats.fcts[f];
      if (stats.fcts[f] < trace[f].size * (1.0 - 1e-9)) {
        m.problems.push_back("job " + std::to_string(j) + " flow " + std::to_string(f) +
                             ": FCT below its size");
        break;
      }
    }
    if (!trace.empty() && stats.finish_time < trace.back().time) {
      m.problems.push_back("job " + std::to_string(j) + ": finished before the last arrival");
    }
    if (m.problems.size() != problems_before) ++m.failed_jobs;
    fct_bytes.append(reinterpret_cast<const char*>(stats.fcts.data()),
                     stats.fcts.size() * sizeof(double));
  }
  m.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  m.setup_s = median(setups);
  m.digest = svc::fnv1a64(fct_bytes);
  return m;
}

void run_sim(const Options& opt, SpanRecorder& spans, Report& report) {
  std::optional<SimMeasurement> untraced;
  if (opt.trace) untraced = measure_sim(opt, nullptr);
  const obs::MetricsSnapshot before = obs::Registry::instance().snapshot();
  const SimMeasurement m = measure_sim(opt, opt.trace ? &spans : nullptr);
  const MetricsWindow w(before, obs::Registry::instance().snapshot());

  std::printf("sim_fct seed %llu: %zu jobs of ClosNetwork::paper(%d) at load 0.5, %.0f events "
              "in %.3f s, FCT digest %016llx\n",
              static_cast<unsigned long long>(opt.seed), m.job_ms.size(), kSimClosN, m.events,
              m.wall_s, static_cast<unsigned long long>(m.digest));
  for (const std::string& p : m.problems) report.problem(p);
  report.count(m.job_ms.size(), m.failed_jobs);
  if (untraced && untraced->digest != m.digest) {
    report.problem("FCT digest differs between the untraced and traced runs");
  }

  report.set("setup_s", m.setup_s);
  report.set("p50_ms", median(m.job_ms));
  const Tail tail = pooled_tail(m.job_ms, 0.99);
  report.set("p99_ms", tail.value);
  report.note("p99_ms.tail_percentile", tail.q * 100.0);
  std::printf("  job latency: p50 %.3f ms, tail p%g %.3f ms over %zu jobs\n", median(m.job_ms),
              tail.q * 100.0, tail.value, m.job_ms.size());
  report.set("throughput_per_s", median(m.job_rates));
  report.set("peak_rss_mb", self_peak_rss_mb());
  if (!opt.trace) return;

  fairness_layers(w, report);
  // Little's law: mean flows in flight = total flow-time / simulated time.
  report.set("sim.mean_active_flows", ratio(m.flow_time, m.sim_time));
  report.set("sim.waterfill_calls_per_event",
             ratio(w.counter("waterfill.generic_calls"), m.events));
  report.set("sim.rounds_per_event", ratio(w.counter("waterfill.generic_rounds"), m.events));
  report.set("trace.overhead_pct", 100.0 * (m.wall_s - untraced->wall_s) / untraced->wall_s);
  report.set("failed_frac", ratio(static_cast<double>(m.failed_jobs),
                                  static_cast<double>(m.job_ms.size())));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const std::string self = std::filesystem::read_symlink("/proc/self/exe").parent_path();
  opt.workdir = self + "/work";
  opt.serve = self + "/closfair_serve";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s\n", arg.c_str(), kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opt.trace = next() != "0";
      } else if (arg == "--workdir") {
        opt.workdir = next();
      } else if (arg == "--inject-mismatch") {
        opt.inject_mismatch = true;
      } else {
        std::fprintf(stderr, "unknown argument %s\n%s\n", arg.c_str(), kUsage);
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s\n%s\n", arg.c_str(), kUsage);
      return 2;
    }
  }
  const bool served = opt.workload == "cold_mix" || opt.workload == "hot_mix" ||
                      opt.workload == "exact_sweep";
  if ((!served && opt.workload != "sim_fct") || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }
  Report report;
  SpanRecorder spans;
  try {
    std::filesystem::create_directories(opt.workdir);
    if (served) {
      run_served(opt, spans, report);
    } else {
      run_sim(opt, spans, report);
    }
    if (opt.trace) write_trace_outputs(opt, spans, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "closfair_bench %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.print(opt.trace);
  return report.correct() ? 0 : 1;
}
