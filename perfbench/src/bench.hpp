// Shared declarations of the repository benchmark: seeded inputs, the
// result of one repetition of a workload, the three workloads, and the
// layer microbenchmarks. See perfbench/README.md for the method.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "emc/common/bytes.hpp"
#include "emc/crypto/dh.hpp"
#include "emc/reliable/reliable.hpp"
#include "emc/trace/trace.hpp"

namespace perfbench {

using emc::Bytes;
using emc::BytesView;

/// SplitMix64 finalizer over a seed and up to three coordinates: every
/// seeded draw of the benchmark (payload windows, compute jitter, link
/// fault/jitter/cross-traffic seeds) is a pure function of these.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b = 0, std::uint64_t c = 0);

/// Seeded payload source. Each message's expected bytes are a window
/// of one seeded pool, at an offset drawn from the message's
/// coordinates, so the receiver can check every delivered byte with a
/// memcmp and a misrouted or reordered message fails the check.
class PayloadPool {
 public:
  PayloadPool(std::uint64_t seed, std::size_t max_len);
  [[nodiscard]] BytesView window(std::uint64_t key, std::size_t len) const;

 private:
  std::uint64_t seed_;
  Bytes bytes_;
};

enum class Workload { kSmall, kBulk, kLossy };

[[nodiscard]] std::optional<Workload> workload_by_name(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// One-time inputs of a workload, built from the seed before the first
/// timed repetition (this construction is what setup_s times).
struct Inputs {
  Workload workload;
  std::uint64_t seed;
  PayloadPool pool;
  /// DH test group of the link handshakes.
  emc::crypto::DhGroup group;
};

/// Builds the inputs: provider self-test, group-key schedule, seeded
/// payload pool and the DH test group. Throws on a failed self-test.
[[nodiscard]] Inputs make_inputs(Workload w, std::uint64_t seed);

/// Outcome of one repetition: the simulated result (virtual side), the
/// layer counts, and the host cost.
struct Rep {
  // ---- virtual side: must be bit-identical across reps of one seed
  double makespan = 0.0;          ///< World::run, virtual seconds
  std::vector<double> steps_us;   ///< per-step virtual latency
  std::uint64_t deliveries = 0;   ///< verified application deliveries
  std::uint64_t bytes = 0;        ///< verified plaintext bytes
  std::uint64_t attempted = 0;    ///< planned deliveries
  std::uint64_t failed = 0;       ///< attempted - verified
  std::uint64_t events = 0;       ///< Engine::scheduled_events()
  emc::reliable::ReliabilityStats rel{};
  std::uint64_t msgs_sealed = 0;
  std::uint64_t bytes_sealed = 0;
  std::uint64_t chunks_sealed = 0;
  std::uint64_t handshake_attempts = 0;
  std::vector<double> handshake_elapsed;  ///< virtual s, per endpoint
  std::uint64_t ratchets = 0;
  std::uint64_t catchup_opens = 0;
  std::vector<std::string> errors;  ///< what() of every caught failure
  // ---- host side
  double wall_s = 0.0;
  double cpu_s = 0.0;

  /// True when every virtual value and count equals @p o's.
  [[nodiscard]] bool same_virtual(const Rep& o) const;
};

/// Runs one repetition of the workload: the secure program, or with
/// @p encrypted false its unencrypted twin (same program and seed on a
/// plain Comm). @p trace, when set, is attached to the world.
[[nodiscard]] Rep run_rep(const Inputs& in, bool encrypted,
                          std::shared_ptr<emc::trace::TraceRecorder> trace =
                              nullptr);

/// Ranks of the workload's world (for sizing a trace recorder).
[[nodiscard]] int world_ranks(Workload w);

/// Host process CPU time (user + sys, all threads), seconds.
[[nodiscard]] double cpu_seconds();

// ---------------------------------------------------------- layer rows

/// Engine handoff: isolated Engine::run with @p procs processes doing
/// advance and notify/wait, host microseconds per engine event.
[[nodiscard]] double handoff_us_per_event(int procs, double budget_s);

/// Host ns per Comm::recv in a 2-rank world when each 16-message burst
/// is already queued and is received in tag order (@p reverse false:
/// every match is at the head of the unexpected queue) or in reverse
/// tag order (the match sits at depth 16, 15, ...).
[[nodiscard]] double match_ns(bool reverse, double budget_s);

/// Host ns per Fabric::reserve_path: on the 8x8 10 GbE topology
/// (@p wan false) or on a hostile wan_metro link (@p wan true).
[[nodiscard]] double reserve_ns(bool wan, double budget_s);

/// Isolated AeadKey throughput on boringssl-sim, MB/s of plaintext.
[[nodiscard]] double aead_mbps(std::size_t bytes, bool seal, double budget_s);

/// Isolated boringssl-sim seal + open of @p bytes, host microseconds.
[[nodiscard]] double seal_open_us(std::size_t bytes, double budget_s);

/// Host speed probe that runs no library code: host CPU milliseconds
/// of a fixed hash-and-copy loop over 2 MiB. It tracks how fast the
/// host is running at the moment, apart from any change to the program.
[[nodiscard]] double calibration_ms();

}  // namespace perfbench
