// Argument validation shared by every communicator implementation.
//
// Both the plain Comm and the encrypted SecureComm validate user tags
// and peer ranks through these helpers, so the two layers reject bad
// arguments with identical error text — and the secure layer can
// reject them *before* spending crypto time sealing a payload that
// could never be sent.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "emc/mpi/types.hpp"
#include "emc/verify/verifier.hpp"

namespace emc::mpi {

/// Throws MpiError unless 0 <= tag <= kMaxUserTag.
inline void validate_user_tag(int tag) {
  if (tag < 0 || tag > kMaxUserTag) {
    throw MpiError("user tag out of range: " + std::to_string(tag) +
                   " (valid range [0, " + std::to_string(kMaxUserTag) + "])");
  }
}

/// Like validate_user_tag, but kAnyTag is accepted (receive matching).
inline void validate_recv_tag(int tag) {
  if (tag != kAnyTag) validate_user_tag(tag);
}

/// Throws MpiError unless 0 <= peer < size.
inline void validate_peer(int peer, int size) {
  if (peer < 0 || peer >= size) {
    throw MpiError("peer rank out of range: " + std::to_string(peer) +
                   " (world size " + std::to_string(size) + ")");
  }
}

/// Like validate_peer, but kAnySource is accepted (receive matching).
inline void validate_recv_peer(int peer, int size) {
  if (peer != kAnySource) validate_peer(peer, size);
}

/// alltoallv layout check, run by both layers before anything is
/// sealed or posted: @p counts and @p displs hold @p n entries and
/// every block [displs[i], displs[i] + counts[i]) lies inside a buffer
/// of @p size bytes. Written so that no sum can wrap.
inline void validate_alltoallv_blocks(std::size_t n,
                                      std::span<const std::size_t> counts,
                                      std::span<const std::size_t> displs,
                                      std::size_t size) {
  if (counts.size() != n || displs.size() != n) {
    throw MpiError(
        "alltoallv: count/displacement arrays must have size() entries");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (displs[i] > size || counts[i] > size - displs[i]) {
      throw MpiError("alltoallv: block " + std::to_string(i) + " (displ " +
                     std::to_string(displs[i]) + ", count " +
                     std::to_string(counts[i]) + ") overruns its " +
                     std::to_string(size) + "-byte buffer");
    }
  }
}

/// Shared rejection path for wait() on an invalid request: reports a
/// double wait to the verifier (when attached) and throws MpiError
/// either way, so misuse is loud even without verification.
[[noreturn]] inline void throw_invalid_wait(verify::Verifier* vrf, int rank,
                                            const Request& request) {
  if (vrf != nullptr) vrf->on_wait_invalid(rank, request.consumed());
  throw MpiError(request.consumed()
                     ? "wait on an already-completed request (double wait)"
                     : "wait on an empty request");
}

}  // namespace emc::mpi
