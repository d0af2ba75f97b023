// Minimal fork/exec helpers for the multi-process serving tests (the
// *MultiProcess* cases of tests/test_net.cpp): spawn a real child process
// (pdbscan_server), discover its ephemeral port through a port file, and
// kill it — politely (SIGTERM) or mid-flight (SIGKILL, the fault-injection
// path).
#ifndef PDBSCAN_UTIL_SUBPROCESS_H_
#define PDBSCAN_UTIL_SUBPROCESS_H_

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pdbscan::util {

class ChildProcess {
 public:
  ChildProcess() = default;
  explicit ChildProcess(pid_t pid) : pid_(pid) {}
  ChildProcess(ChildProcess&& other) noexcept : pid_(other.pid_) {
    other.pid_ = -1;
  }
  ChildProcess& operator=(ChildProcess&& other) noexcept {
    if (this != &other) {
      KillAndWait(SIGKILL);
      pid_ = other.pid_;
      other.pid_ = -1;
    }
    return *this;
  }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() { KillAndWait(SIGKILL); }

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  void Kill(int sig) {
    if (pid_ > 0) ::kill(pid_, sig);
  }

  // Waits for exit; returns the raw waitpid status (use WIFEXITED /
  // WEXITSTATUS / WTERMSIG on it). -1 when there was no child.
  int Wait() {
    if (pid_ <= 0) return -1;
    int status = -1;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

  int KillAndWait(int sig) {
    if (pid_ <= 0) return -1;
    Kill(sig);
    return Wait();
  }

 private:
  pid_t pid_ = -1;
};

// fork + execv. argv[0] is the binary path. Throws std::runtime_error if
// the fork fails; a failed exec exits the child with 127 (surfaces in
// Wait()).
inline ChildProcess SpawnProcess(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    std::perror("execv");
    _exit(127);
  }
  return ChildProcess(pid);
}

// Polls for `path` to appear and contain a port number (the server writes
// it atomically). Throws std::runtime_error on timeout.
inline uint16_t ReadPortFile(const std::string& path,
                             uint64_t timeout_millis = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_millis);
  for (;;) {
    if (std::FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned port = 0;
      const int got = std::fscanf(f, "%u", &port);
      std::fclose(f);
      if (got == 1 && port > 0 && port < 65536) {
        return static_cast<uint16_t>(port);
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("timed out waiting for port file " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace pdbscan::util

#endif  // PDBSCAN_UTIL_SUBPROCESS_H_
