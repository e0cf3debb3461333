#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "loadgen.hpp"
#include "svc/cache.hpp"
#include "svc/service.hpp"
#include "wire/framing.hpp"
#include "wire/protocol.hpp"
#include "workloads.hpp"

namespace closfair::e2e {

obs::MetricsSnapshot snapshot_from_json(const Json& metrics) {
  obs::MetricsSnapshot snap;
  for (const auto& [name, value] : metrics.at("counters").members()) {
    snap.counters.push_back({name, static_cast<std::uint64_t>(value.as_int())});
  }
  for (const auto& [name, value] : metrics.at("histograms").members()) {
    obs::MetricsSnapshot::HistogramValue hist;
    hist.name = name;
    hist.count = static_cast<std::uint64_t>(value.at("count").as_int());
    hist.total_ns = static_cast<std::uint64_t>(value.at("total_ns").as_int());
    for (const Json& bucket : value.at("buckets_log2_ns").items()) {
      hist.buckets.push_back(static_cast<std::uint64_t>(bucket.as_int()));
    }
    hist.buckets.resize(obs::kHistogramBuckets, 0);
    snap.histograms.push_back(std::move(hist));
  }
  return snap;
}

MetricsWindow::MetricsWindow(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& c : before.counters) base[c.name] = c.value;
  for (const auto& c : after.counters) {
    counters_[c.name] = static_cast<double>(c.value - base[c.name]);
  }
  std::map<std::string, const obs::MetricsSnapshot::HistogramValue*> hist_base;
  for (const auto& h : before.histograms) hist_base[h.name] = &h;
  for (const auto& h : after.histograms) {
    obs::MetricsSnapshot::HistogramValue delta = h;
    delta.min_ns = 0;  // extremes are not windowable; the quantile estimate
    delta.max_ns = 0;  // then relies on the buckets alone
    delta.buckets.resize(obs::kHistogramBuckets, 0);
    if (const auto it = hist_base.find(h.name); it != hist_base.end()) {
      delta.count -= it->second->count;
      delta.total_ns -= it->second->total_ns;
      for (std::size_t b = 0; b < it->second->buckets.size() && b < delta.buckets.size(); ++b) {
        delta.buckets[b] -= it->second->buckets[b];
      }
    }
    histograms_[h.name] = std::move(delta);
  }
}

void MetricsWindow::add(const MetricsWindow& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, hist] : other.histograms_) {
    auto [it, fresh] = histograms_.try_emplace(name, hist);
    if (fresh) continue;
    it->second.count += hist.count;
    it->second.total_ns += hist.total_ns;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) it->second.buckets[b] += hist.buckets[b];
  }
}

double MetricsWindow::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::uint64_t MetricsWindow::count(const std::string& histogram) const {
  const auto it = histograms_.find(histogram);
  return it == histograms_.end() ? 0 : it->second.count;
}

std::uint64_t MetricsWindow::total_ns(const std::string& histogram) const {
  const auto it = histograms_.find(histogram);
  return it == histograms_.end() ? 0 : it->second.total_ns;
}

double MetricsWindow::mean_us(const std::string& histogram) const {
  const std::uint64_t n = count(histogram);
  return n == 0 ? 0.0 : static_cast<double>(total_ns(histogram)) / static_cast<double>(n) / 1e3;
}

double MetricsWindow::p99_us(const std::string& histogram) const {
  const auto it = histograms_.find(histogram);
  return it == histograms_.end() ? 0.0 : obs::estimate_quantile_ns(it->second, 0.99) / 1e3;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name, std::uint64_t seq)
    : recorder_(recorder), index_(recorder.spans_.size()) {
  recorder_.spans_.push_back(Span{name, now_ns(), 0, recorder_.open_, seq, 2});
  recorder_.open_ = static_cast<std::int64_t>(index_);
}

SpanRecorder::Scope::~Scope() {
  Span& span = recorder_.spans_[index_];
  span.end_ns = now_ns();
  recorder_.open_ = span.parent;
}

void SpanRecorder::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                       std::uint64_t seq) {
  spans_.push_back(Span{name, start_ns, end_ns, -1, seq, 1});
}

std::map<std::string, SpanRecorder::Layer> SpanRecorder::layers() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& layer = out[spans_[i].name];
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    ++layer.count;
    layer.total_ns += duration;
    layer.self_ns += duration - child_ns[i];
  }
  return out;
}

void SpanRecorder::write_chrome_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  char buf[512];
  for (const Span& span : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"seq\":%llu}}\n",
                  span.name, static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.tid,
                  static_cast<unsigned long long>(span.seq));
    out << buf;
  }
}

namespace {

const char* evaluate_span(const char* family) {
  const std::string f = family;
  if (f == "exhaustive") return "service.evaluate.exhaustive";
  if (f == "lp") return "service.evaluate.lp";
  return "service.evaluate.heuristic";
}

}  // namespace

ReplayResult replay_lines(const std::vector<std::string>& lines,
                          const std::vector<std::uint64_t>& seqs, SpanRecorder& spans) {
  ReplayResult out;
  svc::ResultCache cache(65536);
  wire::FrameDecoder decoder;
  // Objective-only deltas return the base result without evaluating; they
  // must not count as evaluations of their family.
  obs::Counter& reuses = obs::Registry::instance().counter("svc.delta_result_reuses");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t seq = seqs[i];
    SpanRecorder::Scope request(spans, "request", seq);
    ++out.lines;
    std::string payload;
    {
      SpanRecorder::Scope s(spans, "framing.roundtrip", seq);
      const std::string frame = wire::encode_frame(lines[i]);
      decoder.feed(frame);
      payload = *decoder.next();
      out.request_bytes += static_cast<double>(frame.size());
    }
    wire::Request req;
    {
      SpanRecorder::Scope s(spans, "protocol.parse_request", seq);
      req = wire::parse_request(payload);
    }
    if (!req.ok()) {
      ++out.errors;
      continue;
    }
    try {
      svc::ScenarioSpec spec;
      std::optional<svc::ResultCache::BasePin> pin;
      std::optional<svc::ScenarioSpec> base_spec;
      if (req.is_delta()) {
        {
          SpanRecorder::Scope s(spans, "delta.resolve_base", seq);
          pin = cache.pin_base(req.delta->base);
          if (!pin.has_value()) throw std::runtime_error("delta base not cached");
          base_spec = svc::ScenarioSpec::from_json(Json::parse(pin->canonical()));
        }
        SpanRecorder::Scope s(spans, "spec.patch_apply", seq);
        spec = req.delta->patch.apply(*base_spec);
      } else {
        spec = std::move(*req.spec);
      }
      std::string canonical;
      std::uint64_t hash = 0;
      {
        SpanRecorder::Scope s(spans, "spec.canonical", seq);
        canonical = spec.canonical();
      }
      {
        SpanRecorder::Scope s(spans, "spec.content_hash", seq);
        hash = spec.content_hash();
      }
      std::optional<svc::ScenarioResult> result;
      {
        SpanRecorder::Scope s(spans, "cache.lookup", seq);
        result = cache.lookup(canonical);
      }
      const bool cached = result.has_value();
      if (!cached) {
        const char* family = family_of(spec);
        const std::uint64_t reuses_before = reuses.total();
        const std::int64_t t0 = now_ns();
        {
          SpanRecorder::Scope s(spans, evaluate_span(family), seq);
          result = pin.has_value() ? svc::evaluate_scenario_warm(spec, *base_spec, pin->result())
                                   : svc::evaluate_scenario(spec);
        }
        if (reuses.total() == reuses_before) {
          out.evaluate_us[family].push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
        SpanRecorder::Scope s(spans, "cache.insert", seq);
        cache.insert(canonical, *result);
      }
      pin.reset();
      std::string response;
      {
        SpanRecorder::Scope s(spans, "protocol.render_result", seq);
        response = wire::render_result(req.id, hash, cached, *result);
      }
      out.response_bytes += static_cast<double>(wire::encode_frame(response).size());
    } catch (const std::exception&) {
      ++out.errors;
    }
  }
  return out;
}

}  // namespace closfair::e2e
