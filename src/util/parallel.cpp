#include "util/parallel.hpp"

#include <cstdlib>
#include <thread>

namespace dbr {

unsigned worker_count() {
  if (const char* env = std::getenv("DBR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

}  // namespace dbr
