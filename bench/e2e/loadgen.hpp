// Load generation over one wire connection: a sender thread and a receiver
// thread (the caller), open-loop or closed-loop.
//
// Open loop: line i is due at a fixed offset from the phase start, whether or
// not earlier responses have arrived, and its latency is timed from that due
// time — so a server stall is charged to every request that was due during
// it, not hidden by a sender that waited. How late the sender actually sent
// (lag) is recorded per request to validate the generator.
//
// Closed loop: at most `window` requests are outstanding; a request is due
// the moment a window slot frees (the response `window` requests earlier
// arrived). Throughput is completed requests over the phase's wall time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wire/client.hpp"

namespace closfair::e2e {

/// Steady-clock nanoseconds (the clock every sample uses).
[[nodiscard]] std::int64_t now_ns();

/// One request's client-side span, keyed by its sequence number (= index).
struct Sample {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;   ///< send() entered
  std::int64_t sent_ns = 0;   ///< send() returned
  std::int64_t recv_ns = 0;   ///< response decoded; 0 when it never came
};

struct PhaseResult {
  std::vector<Sample> samples;          ///< per line
  std::vector<std::string> responses;   ///< per line, in order (fewer on failure)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;              ///< last response
  std::string failure;                  ///< connection-level failure, if any

  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// Cumulative Poisson arrival offsets (ns from phase start) at `rate`/s.
[[nodiscard]] std::vector<std::int64_t> poisson_offsets(std::size_t count, double rate,
                                                        std::uint64_t seed);

/// Send line i at start + offsets_ns[i]; receive every response.
[[nodiscard]] PhaseResult run_open_loop(wire::Client& client,
                                        const std::vector<std::string>& lines,
                                        const std::vector<std::int64_t>& offsets_ns);

/// Keep at most `window` requests outstanding until every line is answered.
[[nodiscard]] PhaseResult run_closed_loop(wire::Client& client,
                                          const std::vector<std::string>& lines,
                                          std::size_t window);

}  // namespace closfair::e2e
