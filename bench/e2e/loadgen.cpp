#include "loadgen.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <atomic>
#include <cerrno>
#include <exception>
#include <semaphore>
#include <thread>

#include "util/rng.hpp"

namespace closfair::e2e {
namespace {

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{static_cast<time_t>(deadline_ns / 1'000'000'000),
              static_cast<long>(deadline_ns % 1'000'000'000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Receive one response per line into `result`, stamping recv_ns; `after`
/// runs after each response (the closed loop frees a window slot there).
template <typename After>
void receive_all(wire::Client& client, std::size_t count, PhaseResult& result,
                 After after) {
  try {
    for (std::size_t i = 0; i < count; ++i) {
      std::optional<std::string> response = client.recv();
      if (!response.has_value()) {
        result.failure = "server closed the connection after " + std::to_string(i) +
                         " of " + std::to_string(count) + " responses";
        return;
      }
      result.samples[i].recv_ns = now_ns();
      result.end_ns = result.samples[i].recv_ns;
      result.responses.push_back(std::move(*response));
      after();
    }
  } catch (const std::exception& e) {
    result.failure = e.what();
  }
}

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::vector<std::int64_t> poisson_offsets(std::size_t count, double rate,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> offsets;
  offsets.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.next_exponential(rate);
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

PhaseResult run_open_loop(wire::Client& client, const std::vector<std::string>& lines,
                          const std::vector<std::int64_t>& offsets_ns) {
  PhaseResult result;
  result.samples.resize(lines.size());
  result.responses.reserve(lines.size());
  // A short lead so the sender thread is running before the first due time.
  result.start_ns = now_ns() + 2'000'000;
  result.end_ns = result.start_ns;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    result.samples[i].due_ns = result.start_ns + offsets_ns[i];
  }
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    // Default timer slack (50 us) would make every wake-up late by that much.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        Sample& s = result.samples[i];
        sleep_until_ns(s.due_ns);
        s.send_ns = now_ns();
        client.send(lines[i]);
        s.sent_ns = now_ns();
      }
    } catch (const std::exception&) {
      send_failed.store(true);
    }
  });
  receive_all(client, lines.size(), result, [] {});
  sender.join();
  if (send_failed.load() && result.failure.empty()) result.failure = "send failed";
  return result;
}

PhaseResult run_closed_loop(wire::Client& client, const std::vector<std::string>& lines,
                            std::size_t window) {
  PhaseResult result;
  result.samples.resize(lines.size());
  result.responses.reserve(lines.size());
  std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(window));
  std::atomic<bool> send_failed{false};
  result.start_ns = now_ns();
  result.end_ns = result.start_ns;
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        slots.acquire();
        Sample& s = result.samples[i];
        // Due when its slot freed: at the start, or when the response
        // `window` requests earlier arrived (the release this acquire saw).
        s.due_ns = i < window ? result.start_ns : result.samples[i - window].recv_ns;
        s.send_ns = now_ns();
        client.send(lines[i]);
        s.sent_ns = now_ns();
      }
    } catch (const std::exception&) {
      send_failed.store(true);
    }
  });
  receive_all(client, lines.size(), result, [&] { slots.release(); });
  // A receiver that stopped early leaves the sender blocked on a slot.
  slots.release(static_cast<std::ptrdiff_t>(lines.size()));
  sender.join();
  if (send_failed.load() && result.failure.empty()) result.failure = "send failed";
  return result;
}

}  // namespace closfair::e2e
