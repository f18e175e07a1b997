#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::metric(std::string name, std::string unit, double value) {
  metrics_.push_back({std::move(name), std::move(unit), value});
}

void Report::detail(std::string name, std::string unit, double value) {
  details_.push_back({std::move(name), std::move(unit), value});
}

void Report::timing(const std::string& name, const std::vector<double>& values_us) {
  timings_.emplace_back(name, summarize(values_us));
}

void Report::section(const std::string& key, std::string json) {
  sections_.emplace_back(key, std::move(json));
}

namespace {

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " + json_num(metrics[i].value) +
           ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_object(metrics_) + "}";
}

std::string Report::result_file(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"metrics\": " << metrics_object(metrics_)
      << ",\n  \"unbounded_metrics\": " << metrics_object(details_) << ",\n  \"timings\": {";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    const Summary& s = timings_[i].second;
    out << (i ? ",\n    " : "\n    ") << json_str(timings_[i].first) << ": {\"n\": " << s.n
        << ", \"p50_us\": " << json_num(s.p50) << ", \"p99_us\": " << json_num(s.p99)
        << ", \"mean_us\": " << json_num(s.mean) << ", \"max_us\": " << json_num(s.max)
        << ", \"top_supported_pct\": " << json_num(s.top_pct)
        << ", \"top_supported_us\": " << json_num(s.top_value) << "}";
  }
  out << "\n  }";
  for (const auto& [key, json] : sections_) out << ",\n  " << json_str(key) << ": " << json;
  out << "\n}\n";
  return out.str();
}

std::string Report::table() const {
  std::ostringstream out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof line, "  %-32s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    out << line;
  }
  for (const Metric& m : details_) {
    std::snprintf(line, sizeof line, "  %-32s %16.4f %s (unbounded)\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << line;
  }
  for (const auto& [name, s] : timings_) {
    std::snprintf(line, sizeof line,
                  "  timing %-25s n=%-8zu p50=%.1fus p99=%.1fus p%g=%.1fus\n", name.c_str(),
                  s.n, s.p50, s.p99, s.top_pct, s.top_value);
    out << line;
  }
  return out.str();
}

}  // namespace perfbench
