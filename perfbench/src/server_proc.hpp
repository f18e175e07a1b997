#pragma once

// An embed_server child process: spawned on an ephemeral loopback port,
// observed through /proc, and stopped with SIGTERM (graceful drain).

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `exe --port 0 <args...>` and blocks until it prints its
  /// listening port. Throws std::runtime_error if it exits or stays silent
  /// for 60 s.
  ServerProcess(const std::string& exe, const std::vector<std::string>& args);
  /// Stops the server if stop() was not called; SIGKILL after 10 s.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// User + system CPU seconds consumed so far (all threads).
  double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mb() const;

  /// SIGTERM, then waits for the drain; true when the server exited 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
