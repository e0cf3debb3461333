// Open-loop latency is timed from each request's due time, so stopping the
// server for 100 ms (SIGSTOP ... SIGCONT) must show up in the p99 of the
// requests that were due during the stall, while the sender itself stays on
// schedule. Run by the e2e project's ctest.
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "child.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace closfair;
using namespace closfair::e2e;

int main() {
  const std::string serve =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() / "closfair_serve";
  ServerProcess server(serve, {"--listen", "127.0.0.1:0", "--workers", "2", "--cache", "65536"});
  wire::Client client;
  client.connect("127.0.0.1", server.port());

  // 2 s at 200 req/s: a 100 ms stall strands ~20 requests, well inside the
  // per-connection budget of 64 in-flight evaluations, so nothing is shed.
  constexpr double kRate = 200.0;
  constexpr std::size_t kCount = 400;
  constexpr double kStallAt = 1.0;
  constexpr double kStallMs = 100.0;
  std::vector<std::string> lines = cold_mix(1, 1.0).open;
  lines.resize(kCount);
  const std::vector<std::int64_t> offsets = poisson_offsets(kCount, kRate, 11);

  std::thread staller([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(kStallAt));
    ::kill(server.pid(), SIGSTOP);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kStallMs));
    ::kill(server.pid(), SIGCONT);
  });
  const PhaseResult run = run_open_loop(client, lines, offsets);
  staller.join();
  client.close();
  server.stop();

  std::vector<double> latency_ms;
  std::vector<double> due_s;
  std::vector<double> lag_ms;
  for (const Sample& s : run.samples) {
    latency_ms.push_back(static_cast<double>(s.recv_ns - s.due_ns) / 1e6);
    due_s.push_back(static_cast<double>(s.due_ns - run.start_ns) / 1e9);
    lag_ms.push_back(static_cast<double>(s.send_ns - s.due_ns) / 1e6);
  }
  // One window per 100 ms: the stall's window must carry it in its p99.
  double worst_window_p99 = 0.0;
  for (const std::vector<double>& window : split_windows(due_s, latency_ms, 0.0, 0.1, 20)) {
    if (!window.empty()) worst_window_p99 = std::max(worst_window_p99, percentile(window, 0.99));
  }
  const double pooled_p99 = percentile(latency_ms, 0.99);
  const double lag_p99 = percentile(lag_ms, 0.99);
  std::printf("stall_test: %zu/%zu answered, window p99 max %.1f ms, pooled p99 %.1f ms, "
              "lag p99 %.3f ms\n",
              run.responses.size(), kCount, worst_window_p99, pooled_p99, lag_p99);

  bool ok = run.failure.empty() && run.responses.size() == kCount;
  for (const std::string& r : run.responses) {
    ok = ok && r.find("\"error\":") == std::string::npos;
  }
  ok = ok && worst_window_p99 >= 0.7 * kStallMs && pooled_p99 >= 0.5 * kStallMs;
  // The generator kept sending through the stall (the kernel buffered it).
  ok = ok && lag_p99 < 5.0;
  if (!ok) std::fprintf(stderr, "stall_test: FAILED\n");
  return ok ? 0 : 1;
}
