#pragma once

// Shared plumbing for the reproduction benches. Every bench binary prints
// the paper-style table(s) first (deterministic, seed-fixed reproduction of
// the corresponding table/figure) and then runs its google-benchmark timing
// section. Knobs:
//   DBR_TRIALS   Monte-Carlo trials per table row (default 1000)
//   DBR_SEED     RNG seed (default 42)

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

namespace dbr::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return fallback;
}

inline std::uint64_t trials() { return env_u64("DBR_TRIALS", 1000); }
inline std::uint64_t seed() { return env_u64("DBR_SEED", 42); }

/// True when DBR_FORMAT=csv: table-producing benches then emit CSV rows
/// (for plotting) instead of the aligned text rendering.
inline bool csv_output() {
  const char* v = std::getenv("DBR_FORMAT");
  return v != nullptr && std::string(v) == "csv";
}

inline void heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Renders a TextTable according to DBR_FORMAT.
template <typename Table>
void emit(const Table& table) {
  if (csv_output()) {
    std::cout << table.to_csv();
  } else {
    std::cout << table.to_string();
  }
}

/// Minimal streaming JSON emitter for the machine-readable `BENCH_*.json`
/// artifacts every bench can produce alongside its human-readable tables.
/// Caller is responsible for well-formed nesting (begin/end pairs and a key
/// before every value inside an object); commas and escaping are handled.
class JsonWriter {
 public:
  JsonWriter& begin_object() { separate(); out_ += '{'; has_items_.push_back(false); return *this; }
  JsonWriter& end_object() { out_ += '}'; has_items_.pop_back(); return *this; }
  JsonWriter& begin_array() { separate(); out_ += '['; has_items_.push_back(false); return *this; }
  JsonWriter& end_array() { out_ += ']'; has_items_.pop_back(); return *this; }

  JsonWriter& key(std::string_view k) {
    separate();
    append_string(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) { separate(); append_string(v); return *this; }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) { separate(); out_ += v ? "true" : "false"; return *this; }
  JsonWriter& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(std::uint64_t v) { separate(); out_ += std::to_string(v); return *this; }
  JsonWriter& value(std::int64_t v) { separate(); out_ += std::to_string(v); return *this; }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }

  template <typename T>
  JsonWriter& field(std::string_view k, T v) { return key(k).value(v); }

  const std::string& str() const { return out_; }

  /// Writes the document (plus trailing newline) to `path`; returns success.
  bool write_file(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << out_ << '\n';
    return static_cast<bool>(f);
  }

 private:
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!has_items_.empty()) {
      if (has_items_.back()) out_ += ',';
      has_items_.back() = true;
    }
  }

  void append_string(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> has_items_;
  bool pending_value_ = false;
};

/// One command-line flag's usage line.
struct UsageFlag {
  const char* flag;  ///< e.g. "--queries N"
  const char* help;  ///< one-line description
};

/// Prints the shared usage block: synopsis, the bench's own flags, the
/// google-benchmark pass-through note, and the common environment knobs.
/// Every bench main routes --help (and unknown-argument errors) through
/// this, so no binary silently ignores argv again.
inline void print_usage(std::ostream& os, const char* name,
                        const char* summary,
                        std::initializer_list<UsageFlag> flags,
                        bool benchmark_flags) {
  os << "usage: " << name << " [options]\n  " << summary << "\n";
  if (flags.size() > 0) {
    os << "\noptions:\n";
    for (const UsageFlag& f : flags) {
      std::string col = f.flag;
      if (col.size() < 22) col.resize(22, ' ');
      os << "  " << col << "  " << f.help << "\n";
    }
  }
  os << "  --help, -h              this message\n";
  if (benchmark_flags) {
    os << "\n  --benchmark_* flags pass through to google-benchmark\n"
          "  (e.g. --benchmark_filter=..., --benchmark_min_time=...)\n";
  }
  os << "\nenvironment:\n"
        "  DBR_TRIALS   Monte-Carlo trials per table row (default 1000)\n"
        "  DBR_SEED     RNG seed (default 42)\n"
        "  DBR_FORMAT   'csv' emits CSV tables instead of aligned text\n";
}

/// --help/unknown-argument handling for benches with their own flag loops:
/// returns 0 for --help/-h (usage printed to stdout), 64 for an argument
/// the caller did not recognize (usage printed to stderr), -1 to proceed.
inline int usage_exit(const char* arg, const char* name, const char* summary,
                      std::initializer_list<UsageFlag> flags,
                      bool benchmark_flags = false) {
  const std::string_view a = arg;
  if (a == "--help" || a == "-h") {
    print_usage(std::cout, name, summary, flags, benchmark_flags);
    return 0;
  }
  std::cerr << name << ": unknown argument: " << a << "\n\n";
  print_usage(std::cerr, name, summary, flags, benchmark_flags);
  return 64;  // EX_USAGE
}

/// Validates argv (only --help/-h and --benchmark_* flags are meaningful to
/// a table-reproduction bench), prints the table section, then hands over
/// to google-benchmark. Call from main() after registering benchmarks.
inline int run(int argc, char** argv, void (*print_tables)(),
               const char* name, const char* summary) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark_", 0) == 0) continue;  // google-benchmark's
    return usage_exit(argv[i], name, summary, {}, /*benchmark_flags=*/true);
  }
  print_tables();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace dbr::bench
