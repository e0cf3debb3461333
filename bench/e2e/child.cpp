#include "child.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

extern char** environ;

namespace closfair::e2e {
namespace {

/// posix_spawn `binary` with `args`; stdin from /dev/null, stderr into
/// `stderr_fd` when given (else inherited).
pid_t spawn(const std::string& binary, const std::vector<std::string>& args,
            int stderr_fd) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  if (stderr_fd >= 0) posix_spawn_file_actions_adddup2(&actions, stderr_fd, STDERR_FILENO);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  return pid;
}

/// waitpid that retries EINTR; returns the raw status.
int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return status;
}

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in " + status_path);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) < 0) throw std::runtime_error("pipe2 failed");
  try {
    pid_ = spawn(binary, args, fds[1]);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);
  stderr_fd_ = fds[0];

  // closfair_serve prints "listening on HOST:PORT" once it is bound.
  std::string text;
  const auto fail = [&](const std::string& why) {
    ::kill(pid_, SIGKILL);
    reap(pid_);
    pid_ = -1;
    ::close(stderr_fd_);
    stderr_fd_ = -1;
    throw std::runtime_error("closfair_serve did not start: " + why + " [" + text + "]");
  };
  while (text.find('\n') == std::string::npos) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 30'000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) fail("timed out");
    char buf[256];
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) fail("exited");
    text.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t colon = text.rfind(':', text.find('\n'));
  if (text.rfind("listening on ", 0) != 0 || colon == std::string::npos) fail("bad banner");
  port_ = static_cast<std::uint16_t>(std::stoi(text.substr(colon + 1)));
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    try {
      reap(pid_);
    } catch (...) {
    }
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

double ServerProcess::peak_rss_mb() const {
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const int status = reap(pid_);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("closfair_serve exited abnormally (status " +
                             std::to_string(status) + ")");
  }
}

std::vector<std::string> run_batch(const std::string& binary,
                                   const std::vector<std::string>& args,
                                   const std::vector<std::string>& lines,
                                   const std::string& workdir) {
  const std::string in_path = workdir + "/reference_in.jsonl";
  const std::string out_path = workdir + "/reference_out.jsonl";
  {
    std::ofstream in(in_path, std::ios::trunc);
    for (const std::string& line : lines) in << line << '\n';
    if (!in) throw std::runtime_error("cannot write " + in_path);
  }
  std::vector<std::string> full = args;
  full.insert(full.end(), {"--in", in_path, "--out", out_path});
  const int status = reap(spawn(binary, full, -1));
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("closfair_serve batch mode failed (status " +
                             std::to_string(status) + ")");
  }
  std::vector<std::string> responses;
  std::ifstream out(out_path);
  std::string line;
  while (std::getline(out, line)) responses.push_back(std::move(line));
  return responses;
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

}  // namespace closfair::e2e
