#include "server_proc.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

// Waits up to `timeout_ms` for the child to exit; true once it has been reaped.
bool reap(pid_t pid, int timeout_ms, int* status) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe, const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> argv_s = {exe, "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  if (rc != 0) {
    ::close(out_fd_);
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }

  // The server prints "embed_server listening on port N (...)" once bound.
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const std::string marker = "listening on port ";
  for (;;) {
    const std::size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::strtoul(text.c_str() + at + marker.size(), nullptr, 10));
      break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{out_fd_, POLLIN, 0};
    if (left.count() <= 0 || poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      stop();
      throw std::runtime_error("embed_server did not report a port");
    }
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      stop();
      throw std::runtime_error("embed_server exited before listening");
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

bool ServerProcess::stop() {
  if (pid_ <= 0) return true;
  int status = 0;
  kill(pid_, SIGTERM);
  if (!reap(pid_, 10000, &status)) {
    kill(pid_, SIGKILL);
    reap(pid_, 10000, &status);
    status = -1;
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
