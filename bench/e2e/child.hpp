// The program under test as a child process: closfair_serve in server mode
// (reached over loopback) and in batch mode (the byte-identity reference).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace closfair::e2e {

/// One closfair_serve --listen child. The constructor spawns it and blocks
/// until it reports its bound port on stderr; the destructor kills and reaps
/// a child that stop() did not already end.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Peak resident set size (VmHWM) so far, in MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM (graceful drain) and wait for the exit. Throws when the child
  /// exits with a failure status.
  void stop();

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Run closfair_serve in batch mode over `lines` with `args` (plus --in/--out
/// files under `workdir`) and return its response lines. Throws on a failed
/// exit.
[[nodiscard]] std::vector<std::string> run_batch(const std::string& binary,
                                                 const std::vector<std::string>& args,
                                                 const std::vector<std::string>& lines,
                                                 const std::string& workdir);

/// Peak resident set size (VmHWM) of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

}  // namespace closfair::e2e
