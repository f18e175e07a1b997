// Standalone embed service: an EmbedEngine behind a net::Server, run until
// SIGTERM/SIGINT, then drained gracefully — in-flight solves finish, reply
// buffers flush, and the process exits 0. perfbench/run.py starts this
// binary, drives it over loopback, then SIGTERMs it and asserts the clean
// drain.
//
//   ./embed_server --port 4800
//
// Flags: --port N           TCP port (default 4800; 0 = ephemeral, printed)
//        --workers N        worker threads (default DBR_THREADS, else the
//                           hardware thread count)
//        --max-pending N    admission bound before kOverloaded (default 1024)
//        --timeout-ms F     per-request deadline (default off)
//        --solve-delay-ms F debug delay of solves run on a worker (loop-served
//                           cache hits are not delayed; test/CI hook, default off)
//        --repair           enable incremental session repair
//        --validate         oracle-check every computed answer

#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "net/server.hpp"
#include "service/engine.hpp"
#include "util/parallel.hpp"

using namespace dbr;
using namespace dbr::net;

namespace {

int usage(const char* arg) {
  std::cerr << "unknown flag: " << arg << "\n"
            << "usage: embed_server [--port N] [--workers N] "
               "[--max-pending N] [--timeout-ms F] [--solve-delay-ms F] "
               "[--repair] [--validate]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  options.port = 4800;
  service::EngineOptions engine_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--port")
      options.port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--workers")
      options.workers = std::strtoull(next(), nullptr, 10);
    else if (arg == "--max-pending")
      options.max_pending = std::strtoull(next(), nullptr, 10);
    else if (arg == "--timeout-ms")
      options.request_timeout_ms = std::strtod(next(), nullptr);
    else if (arg == "--solve-delay-ms")
      options.debug_solve_delay_ms = std::strtod(next(), nullptr);
    else if (arg == "--repair")
      engine_options.incremental_repair = true;
    else if (arg == "--validate")
      engine_options.validate_responses = true;
    else
      return usage(argv[i]);
  }

  // Block the shutdown signals *before* any thread spawns, so every server
  // thread inherits the mask and only the sigwait thread ever sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  service::EmbedEngine engine(engine_options);
  Server server(engine, options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "embed_server: " << e.what() << "\n";
    return 1;
  }
  std::cout << "embed_server listening on port " << server.port()
            << " (workers=" << (options.workers ? options.workers : worker_count())
            << ", max_pending=" << options.max_pending << ")" << std::endl;

  std::thread signal_thread([&] {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::cout << "embed_server: received "
              << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
              << ", draining" << std::endl;
    server.drain();
  });

  server.wait();  // returns once the drain completes
  signal_thread.join();

  const ServerStats stats = server.stats();
  std::cout << "embed_server drained: accepted=" << stats.accepted
            << " solves=" << stats.solves << " frames_in=" << stats.frames_in
            << " frames_out=" << stats.frames_out
            << " overloaded=" << stats.overloaded
            << " timeouts=" << stats.timeouts
            << " bad_frames=" << stats.bad_frames
            << " shutdown_rejects=" << stats.shutdown_rejects << std::endl;
  return 0;
}
