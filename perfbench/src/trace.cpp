#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    const std::int64_t dur = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns);
    out[i] = static_cast<double>(std::max<std::int64_t>(0, dur - covered));
  }
  return out;
}

std::map<std::string, double> layer_self_ns(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].layer] += self[i];
  return out;
}

std::int64_t Tracer::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool Tracer::write_chrome(const std::string& path, std::int64_t origin_ns,
                          std::uint64_t keep_every) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
  for (const Span& s : spans_) {
    if (s.request != 0 && keep_every > 1 && s.request % keep_every != 0) continue;
    tracks.emplace(s.pid, s.track);
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"request\":%llu}}",
                 s.name.c_str(), s.layer.c_str(),
                 static_cast<double>(s.start_ns - origin_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.pid,
                 s.track, static_cast<unsigned long long>(s.request));
  }
  for (const auto& [pid, track] : tracks) {
    sep();
    const char* label = pid == 1 ? "connection" : "probe";
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"name\":\"%s %u\"}}",
                 pid, track, label, track);
  }
  for (const std::uint32_t pid : {1u, 2u}) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 pid, pid == 1 ? "wire run (client view)" : "in-process layer probes");
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
