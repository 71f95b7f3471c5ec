#include "obs/metrics.hpp"

#if V_TRACE_ENABLED

#include <cmath>
#include <cstdio>
#include <utility>

namespace v::obs {

namespace {

/// Render a double the way both JSON and the `[metrics]` files need it:
/// integral values print without a fraction so counter mirrors read back
/// as plain integers.
std::string number_text(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string json_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

MetricsRegistry::Metric& MetricsRegistry::entry(std::string_view scope,
                                                std::string_view name,
                                                Metric::Kind kind) {
  auto scope_it = scopes_.find(scope);
  if (scope_it == scopes_.end()) {
    scope_it = scopes_.emplace(std::string(scope), ScopeMap{}).first;
    scope_order_.emplace_back(scope);
  }
  auto it = scope_it->second.find(name);
  if (it == scope_it->second.end()) {
    it = scope_it->second.emplace(std::string(name), Metric{}).first;
    it->second.kind = kind;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view scope,
                                  std::string_view name) {
  return entry(scope, name, Metric::Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view scope, std::string_view name) {
  return entry(scope, name, Metric::Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view scope,
                                      std::string_view name) {
  return entry(scope, name, Metric::Kind::kHistogram).histogram;
}

void MetricsRegistry::register_callback(std::string_view scope,
                                        std::string_view name,
                                        std::function<double()> read) {
  entry(scope, name, Metric::Kind::kCallback).callback = std::move(read);
}

std::vector<std::string> MetricsRegistry::names(std::string_view scope) const {
  std::vector<std::string> out;
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [name, metric] : it->second) out.push_back(name);
  return out;
}

std::string MetricsRegistry::render(const Metric& metric) {
  switch (metric.kind) {
    case Metric::Kind::kCounter:
      return std::to_string(metric.counter.value());
    case Metric::Kind::kGauge:
      return std::to_string(metric.gauge.high_water());
    case Metric::Kind::kCallback:
      return metric.callback ? number_text(metric.callback()) : "0";
    case Metric::Kind::kHistogram: {
      const LogHistogram& hist = metric.histogram.data();
      if (hist.empty()) return "count=0";
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "count=%zu mean=%.4f p50=%.4f p99=%.4f max=%.4f",
                    hist.count(), hist.mean(), hist.percentile(0.5),
                    hist.percentile(0.99), hist.max());
      return buf;
    }
  }
  return "?";
}

std::optional<std::string> MetricsRegistry::value_text(
    std::string_view scope, std::string_view name) const {
  auto scope_it = scopes_.find(scope);
  if (scope_it == scopes_.end()) return std::nullopt;
  auto it = scope_it->second.find(name);
  if (it == scope_it->second.end()) return std::nullopt;
  return render(it->second) + "\n";
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n";
  for (std::size_t s = 0; s < scope_order_.size(); ++s) {
    const std::string& scope = scope_order_[s];
    out += "  \"" + json_escape(scope) + "\": {\n";
    const ScopeMap& metrics = scopes_.find(scope)->second;
    std::size_t i = 0;
    for (const auto& [name, metric] : metrics) {
      out += "    \"" + json_escape(name) + "\": ";
      const std::string value = render(metric);
      const bool numeric = metric.kind != Metric::Kind::kHistogram;
      if (numeric) {
        out += value;
      } else {
        out += '"';
        out += json_escape(value);
        out += '"';
      }
      out += ++i < metrics.size() ? ",\n" : "\n";
    }
    out += s + 1 < scope_order_.size() ? "  },\n" : "  }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace v::obs

#endif  // V_TRACE_ENABLED
