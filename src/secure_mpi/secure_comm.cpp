#include "emc/secure_mpi/secure_comm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "emc/common/rng.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/validate.hpp"
#include "emc/common/timer.hpp"

namespace emc::secure {

namespace {

using crypto::kGcmNonceBytes;
using crypto::kWireOverhead;

/// Request state for a non-blocking encrypted send: keeps the wire
/// buffer alive until completion (rendezvous references it in place).
struct SecureSendState final : mpi::detail::RequestState {
  Bytes wire;
  mpi::Request inner;
};

/// Request state for a non-blocking encrypted receive: the ciphertext
/// lands in `wire`; decryption into `user` happens inside wait().
/// `src`/`tag` are kept so wait() can re-post the inner receive after
/// absorbing a benign fabric duplicate.
struct SecureRecvState final : mpi::detail::RequestState {
  Bytes wire;
  MutBytes user;
  int src = mpi::kAnySource;
  int tag = mpi::kAnyTag;
  mpi::Request inner;
};

/// Request state for a non-blocking pipelined send. Every chunk was
/// already dispatched in isend (send_chunk never blocks — the sender
/// only pays per-chunk CPU overhead), so the request is born complete
/// and wait() just hands back the status.
struct SecurePipeSendState final : mpi::detail::RequestState {
  mpi::Status status;
};

/// A received frame is a pipelined chunk when it is long enough to
/// hold the chunk header plus a minimal AEAD frame and leads with the
/// magic (see kPipeMagic's collision analysis in pipeline.hpp).
bool looks_like_chunk(BytesView frame) {
  return frame.size() >= kPipeHeaderBytes + kWireOverhead &&
         load_be32(frame.data()) == kPipeMagic;
}

/// Pre-authentication header sanity: pure bounds checks against the
/// frame length and the receive capacity. Field integrity is enforced
/// later — the header is the AAD prefix of its chunk, so any tampered
/// field fails the tag.
bool pipe_header_plausible(const PipeChunkHeader& h, std::size_t frame_bytes,
                           std::size_t capacity) {
  return h.count >= 1 && h.index < h.count && h.offset <= capacity &&
         h.chunk_len <= capacity - h.offset &&
         frame_bytes == kPipeHeaderBytes + SecureComm::wire_size(h.chunk_len);
}

/// Analytic virtual seconds of one seal (@p encrypt) or open of
/// @p bytes plaintext bytes.
double model_cost(const CryptoCostModel& m, std::size_t bytes, bool encrypt) {
  return encrypt
             ? m.seal_per_op + static_cast<double>(bytes) * m.seal_per_byte
             : m.open_per_op + static_cast<double>(bytes) * m.open_per_byte;
}

constexpr std::size_t kContextBytes = 24;

enum class AadKind : std::uint32_t { kP2p = 0, kCollective = 1 };

/// A frame's AAD, on the stack (docs/PIPELINE.md, "Wire format").
struct FrameAad {
  std::array<std::uint8_t, kPipeHeaderBytes + kContextBytes> bytes{};
  std::size_t len = 0;
  [[nodiscard]] BytesView view() const { return {bytes.data(), len}; }
};

/// The one AAD builder: the chunk header when @p chunk_header is
/// non-null (pipelined chunks authenticate every field the receiver
/// steers by), then, with @p bind (SecureConfig::bind_context), the
/// 24-byte context src(4) || dst(4) || tag(4) || kind(4) || seq(8),
/// big-endian. dst -1 addresses every rank of a collective.
FrameAad frame_aad(bool bind, const std::uint8_t* chunk_header, int src,
                   int dst, int tag, AadKind kind, std::uint64_t seq) {
  FrameAad aad;
  if (chunk_header != nullptr) {
    std::memcpy(aad.bytes.data(), chunk_header, kPipeHeaderBytes);
    aad.len = kPipeHeaderBytes;
  }
  if (bind) {
    std::uint8_t* ctx = aad.bytes.data() + aad.len;
    store_be32(ctx, static_cast<std::uint32_t>(src));
    store_be32(ctx + 4, static_cast<std::uint32_t>(dst));
    store_be32(ctx + 8, static_cast<std::uint32_t>(tag));
    store_be32(ctx + 12, static_cast<std::uint32_t>(kind));
    store_be64(ctx + 16, seq);
    aad.len += kContextBytes;
  }
  return aad;
}

}  // namespace

SecureComm::SecureComm(mpi::Comm& comm, const SecureConfig& config)
    : comm_(&comm),
      config_(config),
      key_(crypto::make_aes_gcm(config.provider, config.key)) {
  if (config_.replay_window > 0 && !config_.bind_context) {
    throw std::invalid_argument(
        "SecureConfig: replay_window requires bind_context (the window "
        "slides over the authenticated per-channel sequence numbers)");
  }
  net::RelayPolicy relay;  // kEndToEnd: sealed forwarding, free relays
  if (config_.relay_trust == RelayTrust::kHopTrusted) {
    relay.hop_integrity = true;  // each hop re-verifies before re-sealing
    if (config_.charge_crypto && config_.cost_model) {
      // One open + one seal of analytic crypto time per payload per
      // relay. Without a cost model relay crypto is unbilled (relays
      // are not simulated processes, so wall-clock charging has no
      // process to bill).
      const CryptoCostModel& m = *config_.cost_model;
      relay.per_hop_fixed = m.open_per_op + m.seal_per_op;
      relay.per_hop_byte = m.open_per_byte + m.seal_per_byte;
    }
  }
  comm_->set_relay_policy(relay);
  exposure_base_ = comm_->world().fabric().relay_exposures();
  if (config_.pipeline.enabled) {
    if (config_.pipeline.chunk_bytes == 0) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.chunk_bytes must be >= 1");
    }
    if (config_.pipeline.chunk_bytes >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.chunk_bytes must fit the 32-bit "
          "chunk-length header field");
    }
    if (config_.pipeline.helper_cores < 0) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.helper_cores must be >= 0");
    }
    if (config_.charge_crypto && !config_.cost_model) {
      throw std::invalid_argument(
          "SecureConfig: the pipeline requires a cost_model while "
          "charge_crypto is on — helper cores are not simulated "
          "processes, so their per-chunk crypto can only be billed "
          "analytically (docs/PIPELINE.md)");
    }
    helper_free_.assign(static_cast<std::size_t>(config_.pipeline.helper_cores),
                        0.0);
  }
}

double SecureComm::charged_crypto(const std::function<void()>& work,
                                  std::size_t bytes, bool encrypt) {
  const auto category = encrypt ? trace::Category::kCryptoEncrypt
                                : trace::Category::kCryptoDecrypt;
  if (!config_.charge_crypto || config_.cost_model) {
    // EMC_LINT_ALLOW(det-clock): measurement-mode only — the host
    // seconds feed BENCH JSON metrics, never the virtual timeline.
    WallTimer timer;
    work();
    const double elapsed = timer.seconds();
    if (config_.charge_crypto) {
      // Analytic billing: the crypto really executes (semantics and
      // counters unchanged) but virtual time advances by the model, so
      // encrypted timelines are deterministic.
      bill(model_cost(*config_.cost_model, bytes, encrypt), category, -1,
           bytes);
    }
    return elapsed;
  }
  // Wall-clock billing: the engine charge observer records the span;
  // retag it from the default kCompute before charging.
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    rec->set_charge_category(comm_->process().index(), category);
  }
  return comm_->process().charge(work);
}

void SecureComm::bill(double seconds, trace::Category category, int peer,
                      std::uint64_t bytes) {
  sim::Process& proc = comm_->process();
  const double begin = proc.now();
  proc.advance(seconds);
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    // Trace rows are world-rank-indexed; on a shrunken communicator the
    // local rank() no longer names the right row.
    rec->record(proc.index(), category, begin, proc.now(), peer, bytes);
  }
}

bool SecureComm::keyring_link(int peer) const noexcept {
  return config_.keyring != nullptr && peer >= 0;
}

const crypto::AeadKey* SecureComm::seal_key(
    int peer, std::uint8_t nonce[kGcmNonceBytes]) {
  if (!keyring_link(peer)) {
    next_nonce(nonce);
    return key_.get();
  }
  keys::LinkKeyring& ring = *config_.keyring;
  const int link = comm_->to_world(peer);
  const keys::LinkKeyring::SealKey sk =
      ring.seal_key(link, comm_->now(), config_.nonce_rekey_threshold);
  if (sk.ratcheted) {
    // The epoch advanced in place — traffic continues under the next
    // chain key instead of stopping on NonceExhaustedError. Bill the
    // chain step analytically on the key_mgmt lane.
    ++counters_.link_ratchets;
    bill(ring.ratchet().step_cost, trace::Category::kKeyMgmt, link);
  }
  // Both endpoints seal under the same epoch key; the sender's world
  // rank prefixes the per-epoch sequence so the two directions' nonce
  // streams can never collide.
  store_be32(nonce, static_cast<std::uint32_t>(comm_->to_world(rank())));
  store_be64(nonce + 4, sk.seq);
  return sk.aead;
}

void SecureComm::next_nonce(std::uint8_t out[kGcmNonceBytes]) {
  // Fail-closed rekey gate: refuse to seal past the per-key invocation
  // budget rather than risk a repeated (key, nonce) pair. Counted in
  // both modes — random nonces hit the NIST birthday bound at 2^32
  // invocations just as surely as a wrapped counter would repeat.
  if (config_.nonce_rekey_threshold != 0 &&
      nonce_counter_ >= config_.nonce_rekey_threshold) {
    throw NonceExhaustedError(nonce_counter_, config_.nonce_rekey_threshold);
  }
  if (config_.nonce_mode == NonceMode::kRandom) {
    ++nonce_counter_;
    // EMC_LINT_ALLOW(nonce-source): NonceMode::kRandom reproduces the
    // paper's random-IV configuration as a studied design point; the
    // nonce-exhaustion guard above still bounds draws per key, and
    // kCounter is the default for production-shaped runs.
    random_nonce(MutBytes(out, kGcmNonceBytes));
    return;
  }
  store_be32(out, static_cast<std::uint32_t>(rank()));
  store_be64(out + 4, nonce_counter_++);
}

void SecureComm::charge_relay_reseals(int peer) {
  if (peer < 0 || config_.relay_trust != RelayTrust::kHopTrusted ||
      keyring_link(peer)) {
    return;
  }
  const net::Fabric& fabric = comm_->world().fabric();
  const net::RouteSpec* route =
      fabric.route_for(fabric.node_of(comm_->to_world(rank())),
                       fabric.node_of(comm_->to_world(peer)));
  if (route == nullptr) return;
  // Every hop-trusted relay on the route re-seals this payload under
  // the same group key: those AEAD invocations spend the key's nonce
  // budget exactly like local seals. Count them against the
  // fail-closed guard, or the true invocation count under the key
  // silently overruns the configured threshold. (Keyring links are
  // exempt: their per-link budget rotates the epoch online instead.)
  const auto hops = static_cast<std::uint64_t>(route->via.size());
  if (config_.nonce_rekey_threshold != 0 &&
      nonce_counter_ + hops >= config_.nonce_rekey_threshold) {
    throw NonceExhaustedError(nonce_counter_ + hops,
                              config_.nonce_rekey_threshold);
  }
  nonce_counter_ += hops;
}

void SecureComm::rekey(BytesView new_key) {
  key_ = crypto::make_aes_gcm(config_.provider, new_key);
  config_.key.assign(new_key.begin(), new_key.end());
  // Every key-scoped stream restarts: nonces, per-channel sequence
  // numbers, replay-window bookkeeping. The fresh key makes the reset
  // safe (no (key, nonce) or (key, seq) pair can repeat).
  nonce_counter_ = 0;
  send_seq_.clear();
  recv_seq_.clear();
  extra_copies_.clear();
  pipe_msg_id_ = 0;
  pipe_recv_next_.clear();
  ++counters_.rekeys;
}

double SecureComm::seal_frame(BytesView pt, MutBytes out, BytesView aad,
                              int peer, Billing billing) {
  charge_relay_reseals(peer);
  // Key and nonce are drawn outside the billed region, so a keyring
  // ratchet lands on the key_mgmt lane, not inside the seal span.
  const crypto::AeadKey* aead = seal_key(peer, out.data());
  const auto seal = [&] {
    aead->seal(out.first(kGcmNonceBytes), aad, pt,
               out.subspan(kGcmNonceBytes));
  };
  double ready = 0.0;
  if (billing == Billing::kHelper) {
    seal();
    ++counters_.chunks_sealed;
    ready = helper_crypto(pt.size(), /*encrypt=*/true);
  } else {
    counters_.seal_seconds +=
        charged_crypto(seal, pt.size(), /*encrypt=*/true);
    ready = comm_->now();
  }
  ++counters_.messages_sealed;
  counters_.bytes_sealed += pt.size();
  return ready;
}

std::optional<double> SecureComm::open_frame(BytesView wire, MutBytes out,
                                             BytesView aad, int peer,
                                             Billing billing) {
  const auto trial = [&](const crypto::AeadKey* aead) {
    bool ok = false;
    const auto open = [&] {
      ok = aead->open(wire.first(kGcmNonceBytes), aad,
                      wire.subspan(kGcmNonceBytes), out);
    };
    if (billing == Billing::kCharged) {
      counters_.open_seconds +=
          charged_crypto(open, out.size(), /*encrypt=*/false);
    } else {
      open();  // billed once, on success, by helper_crypto
    }
    return ok;
  };
  const auto ready = [&] {
    return billing == Billing::kHelper
               ? helper_crypto(out.size(), /*encrypt=*/false)
               : comm_->now();
  };
  if (!keyring_link(peer)) {
    if (!trial(key_.get())) return std::nullopt;
    return ready();
  }
  keys::LinkKeyring& ring = *config_.keyring;
  const int link = comm_->to_world(peer);
  std::vector<keys::LinkKeyring::OpenCandidate> cands;
  ring.open_candidates(link, comm_->now(), cands);
  for (const auto& cand : cands) {
    if (!trial(cand.aead)) continue;
    switch (ring.note_open(link, cand.epoch, comm_->now())) {
      case keys::LinkKeyring::OpenKind::kGrace:
        ++counters_.grace_opens;
        break;
      case keys::LinkKeyring::OpenKind::kCatchup:
        ++counters_.catchup_opens;
        break;
      case keys::LinkKeyring::OpenKind::kCurrent:
        break;
    }
    return ready();
  }
  return std::nullopt;
}

void SecureComm::reject(std::uint64_t& detections, const std::string& what) {
  ++detections;
  throw IntegrityError(what + " (rank " + std::to_string(rank()) + ")");
}

std::size_t SecureComm::checked_pt_len(std::size_t wire_bytes,
                                       std::size_t capacity) {
  if (wire_bytes < kWireOverhead || wire_bytes > wire_size(capacity)) {
    reject(counters_.length_failures,
           "wire message of " + std::to_string(wire_bytes) +
               " bytes outside the valid [" + std::to_string(kWireOverhead) +
               ", " + std::to_string(wire_size(capacity)) +
               "] range for this receive: truncated or oversized in transit");
  }
  return wire_bytes - kWireOverhead;
}

SecureComm::P2pOpen SecureComm::open_p2p(BytesView wire, MutBytes out,
                                         int src, int tag) {
  // One trial per candidate channel sequence number (the sequence
  // number only enters the AAD with bind_context).
  const auto opens = [&](std::uint64_t seq) {
    return open_frame(wire, out,
                      frame_aad(config_.bind_context, nullptr, src, rank(),
                                tag, AadKind::kP2p, seq)
                          .view(),
                      src, Billing::kCharged)
        .has_value();
  };
  // The channel counter advances only when a message authenticates, so
  // damaged traffic cannot desynchronize honest traffic behind it. With
  // a replay window, sequence numbers slightly ahead (dropped
  // predecessors) still authenticate, and numbers behind are
  // trial-checked to separate benign fabric duplicates from replay
  // attacks.
  std::uint64_t& expected = recv_seq_[{src, tag}];
  const std::uint64_t ahead =
      config_.replay_window > 0 ? config_.replay_window : 1;
  for (std::uint64_t k = 0; k < ahead; ++k) {
    if (opens(expected + k)) {
      expected += k + 1;
      ++counters_.messages_opened;
      counters_.bytes_opened += out.size();
      return P2pOpen::kDelivered;
    }
  }
  for (std::uint64_t back = 1;
       back <= config_.replay_window && back <= expected; ++back) {
    if (opens(expected - back)) {
      secure_zero(out);  // never hand a repeated plaintext to the caller
      const std::uint64_t seq = expected - back;
      const std::uint32_t copies = ++extra_copies_[{src, tag, seq}];
      if (copies == 1) {
        // First extra copy: the fabric duplicated the frame. Absorb it
        // silently; the caller loops for the next real message.
        ++counters_.duplicates_suppressed;
        return P2pOpen::kDuplicate;
      }
      // The same sequence number injected yet again: an attacker
      // replaying captured traffic, not a duplicating wire.
      reject(counters_.replays_rejected,
             "replayed message rejected: sequence " + std::to_string(seq) +
                 " from rank " + std::to_string(src) +
                 " was already delivered");
    }
  }
  return P2pOpen::kForged;
}

// ------------------------------------------------------ chunked pipeline

bool SecureComm::pipeline_engages(std::size_t bytes) const noexcept {
  const PipelineConfig& p = config_.pipeline;
  // A message that fits one chunk gains nothing from chunk framing.
  return p.enabled && bytes > p.chunk_bytes && bytes >= p.min_bytes;
}

double SecureComm::helper_crypto(std::size_t bytes, bool encrypt) {
  sim::Process& proc = comm_->process();
  if (!config_.charge_crypto || !config_.cost_model) {
    // Charge-free functional mode, or a wall-clock-billed peer
    // receiving chunked traffic: the crypto really executed but no
    // virtual time is billed (measuring host time here would break
    // the determinism of src/secure_mpi — see docs/PIPELINE.md).
    return proc.now();
  }
  const double cost = model_cost(*config_.cost_model, bytes, encrypt);
  if (helper_free_.empty()) {
    // helper_cores == 0: chunk framing without overlap — the chunk's
    // crypto is billed serially on the rank itself.
    bill(cost,
         encrypt ? trace::Category::kCryptoEncrypt
                 : trace::Category::kCryptoDecrypt,
         -1, bytes);
    return proc.now();
  }
  // Earliest-free core wins, lowest index on ties: a pure function of
  // the simulated timeline, so helper schedules replay bit-exact
  // (EMC-DET). The chunk cannot start before its data exists on this
  // rank (`now`), nor before the core drained its queue.
  std::size_t core = 0;
  for (std::size_t c = 1; c < helper_free_.size(); ++c) {
    if (helper_free_[c] < helper_free_[core]) core = c;
  }
  const double start = std::max(helper_free_[core], proc.now());
  const double done = start + cost;
  helper_free_[core] = done;
  (encrypt ? counters_.helper_seal_seconds
           : counters_.helper_open_seconds) += cost;
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    rec->record(proc.index(), trace::Category::kCryptoHelper, start, done,
                static_cast<int>(core), bytes);
  }
  return done;
}

void SecureComm::send_pipelined(BytesView data, int dst, int tag) {
  const std::size_t chunk = config_.pipeline.chunk_bytes;
  const auto count = static_cast<std::uint32_t>((data.size() + chunk - 1) /
                                                chunk);
  const std::uint64_t msg_id = pipe_msg_id_++;
  ++counters_.messages_pipelined;
  Bytes frame;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t off = std::size_t{k} * chunk;
    const std::size_t len = std::min(chunk, data.size() - off);
    frame.resize(kPipeHeaderBytes + wire_size(len));
    PipeChunkHeader h;
    h.msg_id = msg_id;
    h.index = k;
    h.count = count;
    h.chunk_len = static_cast<std::uint32_t>(len);
    h.offset = off;
    store_pipe_header(frame.data(), h);
    // One fresh channel sequence number per chunk: consecutive draws
    // from the same stream as unchunked traffic.
    const double sealed_at = seal_frame(
        data.subspan(off, len), MutBytes(frame).subspan(kPipeHeaderBytes),
        frame_aad(config_.bind_context, frame.data(), rank(), dst, tag,
                  AadKind::kP2p, send_seq_[{dst, tag}]++)
            .view(),
        dst, Billing::kHelper);
    // The frame flies as soon as both the NIC is free and the helper
    // core sealed it; the sender's own clock only pays the per-chunk
    // CPU overhead + copy, which is how encryption hides behind the
    // transfer of earlier chunks.
    comm_->send_chunk(frame, dst, tag, sealed_at);
  }
}

std::optional<mpi::Status> SecureComm::open_any(
    MutBytes wire_buf, const mpi::Status& wire_status, MutBytes user) {
  const MutBytes frame = wire_buf.first(wire_status.bytes);
  const int src = wire_status.source;
  const int tag = wire_status.tag;
  // Up to two rounds: if the first fails and the ARQ stash can prove
  // the damage happened on the wire, the clean copy is NACKed back in
  // (recover_damaged_recv rewrites `frame`) and classified afresh, as
  // the damage may have hit the chunk magic. A second failure, or one
  // the stash cannot explain, is a genuine integrity error.
  for (int round = 0;; ++round) {
    const bool chunk = looks_like_chunk(frame);
    if (chunk && pipe_header_plausible(load_pipe_header(frame.data()),
                                       frame.size(), user.size())) {
      return open_pipelined(wire_buf, wire_status, user);
    }
    if (!chunk) {
      const std::size_t pt_len = checked_pt_len(frame.size(), user.size());
      switch (open_p2p(frame, user.first(pt_len), src, tag)) {
        case P2pOpen::kDelivered:
          return mpi::Status{src, tag, pt_len};
        case P2pOpen::kDuplicate:
          return std::nullopt;
        case P2pOpen::kForged:
          break;
      }
    }
    if (round == 0 && comm_->recover_damaged_recv(frame, src, tag)) {
      ++counters_.nacks_sent;
      ++counters_.retransmits_recovered;
      continue;
    }
    if (chunk) {
      reject(counters_.length_failures,
             "pipelined chunk header inconsistent with its frame length: "
             "truncated, corrupted, or forged in transit");
    }
    reject(counters_.auth_failures,
           "authentication tag mismatch: message was tampered with, "
           "corrupted, or spliced from another channel");
  }
}

std::optional<mpi::Status> SecureComm::open_pipelined(
    MutBytes wire_buf, const mpi::Status& wire_status, MutBytes user) {
  const int src = wire_status.source;
  const int tag = wire_status.tag;
  const MutBytes first_frame = wire_buf.first(wire_status.bytes);
  const PipeChunkHeader first = load_pipe_header(first_frame.data());
  std::uint64_t& next_id = pipe_recv_next_[{src, tag}];
  if (first.msg_id < next_id) {
    // Stale frame of an already-delivered message (a fabric duplicate
    // straggling in behind completion): absorb without crypto.
    ++counters_.duplicates_suppressed;
    return std::nullopt;
  }
  const std::uint64_t msg_id = first.msg_id;
  const std::uint32_t count = first.count;
  const std::size_t cap = user.size();
  // Chunk k authenticates channel sequence base + k — the sender drew
  // count consecutive numbers; the channel advances only on delivery.
  const std::uint64_t base = recv_seq_[{src, tag}];

  sim::Process& proc = comm_->process();
  std::vector<std::uint8_t> have(count, 0);
  std::vector<std::uint8_t> extra(count, 0);
  std::uint32_t have_n = 0;
  std::size_t bytes_accepted = 0;
  std::size_t total_len = 0;  ///< offset+len of chunk count-1
  double crypto_done = proc.now();

  // Validates, deduplicates, authenticates, and places one frame;
  // loops over the single allowed ARQ recovery round exactly like
  // open_any (a recovery may change the header, so it re-parses).
  auto accept_chunk = [&](MutBytes frame) {
    for (int round = 0;; ++round) {
      const PipeChunkHeader h = load_pipe_header(frame.data());
      const bool frame_ok = h.msg_id == msg_id && h.count == count &&
                            pipe_header_plausible(h, frame.size(), cap);
      if (frame_ok && have[h.index] != 0) {
        // Another copy of an accepted chunk. The first extra copy is
        // a benign fabric duplicate, absorbed without crypto (the
        // frame carries nothing the message still needs); the second
        // is classified as a replay attack, like open_p2p's window.
        if (extra[h.index]++ == 0) {
          ++counters_.duplicates_suppressed;
          return;
        }
        secure_zero(user);
        reject(counters_.replays_rejected,
               "replayed pipelined chunk rejected: chunk " +
                   std::to_string(h.index) + " of message " +
                   std::to_string(msg_id) + " from rank " +
                   std::to_string(src) + " was already delivered twice");
      }
      if (frame_ok) {
        // The open runs on a helper core from the moment the frame is
        // in memory; the main timeline keeps receiving chunk k+1 while
        // this one decrypts.
        const std::optional<double> opened = open_frame(
            BytesView(frame).subspan(kPipeHeaderBytes),
            user.subspan(h.offset, h.chunk_len),
            frame_aad(config_.bind_context, frame.data(), src, rank(), tag,
                      AadKind::kP2p, base + h.index)
                .view(),
            src, Billing::kHelper);
        if (opened) {
          have[h.index] = 1;
          ++have_n;
          bytes_accepted += h.chunk_len;
          if (h.index == count - 1) total_len = h.offset + h.chunk_len;
          ++counters_.messages_opened;
          ++counters_.chunks_opened;
          counters_.bytes_opened += h.chunk_len;
          crypto_done = std::max(crypto_done, *opened);
          return;
        }
      }
      if (round == 0 && comm_->recover_damaged_recv(frame, src, tag)) {
        ++counters_.nacks_sent;
        ++counters_.retransmits_recovered;
        continue;  // the e2e NACK recovered this one chunk, not the message
      }
      secure_zero(user);  // never leak a partially verified message
      if (!frame_ok) {
        reject(counters_.length_failures,
               "pipelined chunk frame inconsistent mid-message: header "
               "does not match message " +
                   std::to_string(msg_id));
      }
      reject(counters_.auth_failures,
             "authentication tag mismatch on pipelined chunk: message was "
             "tampered with, corrupted, or spliced from another channel");
    }
  };

  // accept_chunk is done with a frame when it returns, so the later
  // frames are received into the same buffer.
  accept_chunk(first_frame);
  while (have_n < count) {
    const mpi::Status ws = comm_->recv(wire_buf, src, tag);
    const MutBytes frame = wire_buf.first(ws.bytes);
    if (!looks_like_chunk(frame)) {
      // A non-chunk frame inside a pipelined message: wire damage
      // destroyed the magic (recoverable under ARQ) or the channel is
      // being abused.
      if (comm_->recover_damaged_recv(frame, src, tag)) {
        ++counters_.nacks_sent;
        ++counters_.retransmits_recovered;
      }
      if (!looks_like_chunk(frame)) {
        secure_zero(user);
        reject(counters_.length_failures,
               "unchunked frame interleaved into pipelined message " +
                   std::to_string(msg_id) + " from rank " +
                   std::to_string(src));
      }
    }
    if (load_pipe_header(frame.data()).msg_id < msg_id) {
      // Stale duplicate from an older message, arriving mid-stream.
      ++counters_.duplicates_suppressed;
      continue;
    }
    accept_chunk(frame);
  }
  if (bytes_accepted != total_len) {
    // Unreachable for an honest sender (headers are authenticated and
    // indices deduplicated), kept as a cheap defence in depth.
    secure_zero(user);
    reject(counters_.length_failures,
           "pipelined chunks do not tile the message: " +
               std::to_string(bytes_accepted) + " bytes accepted for a " +
               std::to_string(total_len) + "-byte message");
  }
  next_id = msg_id + 1;
  recv_seq_[{src, tag}] = base + count;
  // Stall only for crypto the wire did not hide: the receive is
  // complete when the last helper core finishes its last chunk.
  const double stall = crypto_done - proc.now();
  if (stall > 0.0) {
    counters_.pipeline_stall_seconds += stall;
    bill(stall, trace::Category::kPipelineStall, src, bytes_accepted);
  }
  return mpi::Status{src, tag, total_len};
}

// ------------------------------------------------------- point-to-point

Bytes SecureComm::seal_p2p(BytesView data, int dst, int tag) {
  Bytes wire(wire_size(data.size()));
  seal_frame(data, wire,
             frame_aad(config_.bind_context, nullptr, rank(), dst, tag,
                       AadKind::kP2p, send_seq_[{dst, tag}]++)
                 .view(),
             dst, Billing::kCharged);
  return wire;
}

void SecureComm::send(BytesView data, int dst, int tag) {
  // Reject bad arguments before spending crypto time on the payload.
  mpi::validate_user_tag(tag);
  mpi::validate_peer(dst, size());
  if (pipeline_engages(data.size())) {
    send_pipelined(data, dst, tag);
    return;
  }
  const Bytes wire = seal_p2p(data, dst, tag);
  comm_->send(wire, dst, tag);
}

mpi::Status SecureComm::recv(MutBytes buf, int src, int tag) {
  mpi::validate_recv_tag(tag);
  mpi::validate_recv_peer(src, size());
  // Sized so any frame fits: an unchunked message of up to buf.size()
  // payload bytes, or one pipelined chunk (header + AEAD frame of a
  // chunk no larger than the message).
  Bytes wire(recv_wire_capacity(buf.size()));
  for (;;) {
    const mpi::Status wire_status = comm_->recv(wire, src, tag);
    if (const auto status = open_any(wire, wire_status, buf)) {
      return *status;
    }
    // Benign fabric duplicate absorbed: wait for the next message.
  }
}

mpi::Request SecureComm::isend(BytesView data, int dst, int tag) {
  mpi::validate_user_tag(tag);
  mpi::validate_peer(dst, size());
  if (pipeline_engages(data.size())) {
    // Every chunk is dispatched right here: send_chunk never blocks
    // (eager shape, wire gated by wire_not_before), so the request is
    // born complete and wait() is a lookup.
    send_pipelined(data, dst, tag);
    auto state = std::make_unique<SecurePipeSendState>();
    state->status = mpi::Status{dst, tag, data.size()};
    return mpi::Request(std::move(state));
  }
  auto state = std::make_unique<SecureSendState>();
  state->wire = seal_p2p(data, dst, tag);
  state->inner = comm_->isend(state->wire, dst, tag);
  return mpi::Request(std::move(state));
}

mpi::Request SecureComm::irecv(MutBytes buf, int src, int tag) {
  mpi::validate_recv_tag(tag);
  mpi::validate_recv_peer(src, size());
  auto state = std::make_unique<SecureRecvState>();
  state->wire.resize(recv_wire_capacity(buf.size()));
  state->user = buf;
  state->src = src;
  state->tag = tag;
  state->inner = comm_->irecv(state->wire, src, tag);
  return mpi::Request(std::move(state));
}

mpi::Status SecureComm::wait(mpi::Request& request) {
  if (!request.valid()) {
    mpi::throw_invalid_wait(comm_->world().verifier(), rank(), request);
  }
  auto owned = request.take();
  if (auto* send_state = dynamic_cast<SecureSendState*>(owned.get())) {
    return comm_->wait(send_state->inner);
  }
  if (auto* pipe_state = dynamic_cast<SecurePipeSendState*>(owned.get())) {
    return pipe_state->status;  // chunks were all dispatched in isend
  }
  if (auto* recv_state = dynamic_cast<SecureRecvState*>(owned.get())) {
    mpi::Status wire_status = comm_->wait(recv_state->inner);
    for (;;) {
      if (const auto status =
              open_any(recv_state->wire, wire_status, recv_state->user)) {
        return *status;
      }
      // Benign fabric duplicate absorbed: re-post and wait again.
      recv_state->inner =
          comm_->irecv(recv_state->wire, recv_state->src, recv_state->tag);
      wire_status = comm_->wait(recv_state->inner);
    }
  }
  throw mpi::MpiError("request does not belong to this secure communicator");
}

std::vector<mpi::Status> SecureComm::waitall(
    std::span<mpi::Request> requests) {
  // Every inner request is drained even when a decryption fails:
  // abandoning the rest would leave rendezvous senders parked on
  // their handshakes and deadlock the simulation. The first failure
  // is rethrown once all completions have run.
  std::vector<mpi::Status> statuses(requests.size());
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      statuses[i] = wait(requests[i]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return statuses;
}

mpi::Status SecureComm::sendrecv(BytesView senddata, int dst, int sendtag,
                                 MutBytes recvbuf, int src, int recvtag) {
  mpi::Request rr = irecv(recvbuf, src, recvtag);
  mpi::Request rs = isend(senddata, dst, sendtag);
  const mpi::Status status = wait(rr);
  wait(rs);
  return status;
}

// ---------------------------------------------------------- collectives

void SecureComm::barrier() { comm_->barrier(); }

std::vector<SecureComm::Block> SecureComm::per_rank(std::size_t n,
                                                    std::size_t len) {
  std::vector<Block> blocks(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks[i] = {i * len, len, static_cast<int>(i)};
  }
  return blocks;
}

void SecureComm::sealed_exchange(
    BytesView send, std::span<const Block> send_blocks, MutBytes recv,
    std::span<const Block> recv_blocks, bool to_all,
    const std::function<void(Wire&, Wire&)>& plain) {
  const auto layout = [](std::span<const Block> blocks) {
    Wire w;
    w.counts.reserve(blocks.size());
    w.displs.reserve(blocks.size());
    std::size_t total = 0;
    for (const Block& b : blocks) {
      w.counts.push_back(wire_size(b.len));
      w.displs.push_back(total);
      total += w.counts.back();
    }
    w.buf.resize(total);
    return w;
  };
  const std::uint64_t seq = coll_seq_++;
  // Every block authenticates its origin and addressee: a sent block
  // goes from this rank to its peer, a received one from its peer to
  // this rank; to_all names every rank (-1) as the addressee instead.
  const auto aad = [&](int src, int dst) {
    return frame_aad(config_.bind_context, nullptr, src, to_all ? -1 : dst,
                     0, AadKind::kCollective, seq);
  };
  Wire ws = layout(send_blocks);
  Wire wr = layout(recv_blocks);
  for (std::size_t i = 0; i < send_blocks.size(); ++i) {
    const Block& b = send_blocks[i];
    seal_frame(send.subspan(b.offset, b.len),
               MutBytes(ws.buf).subspan(ws.displs[i], ws.counts[i]),
               aad(rank(), b.peer).view(), -1, Billing::kCharged);
  }
  plain(ws, wr);
  for (std::size_t i = 0; i < recv_blocks.size(); ++i) {
    const Block& b = recv_blocks[i];
    if (!open_frame(BytesView(wr.buf).subspan(wr.displs[i], wr.counts[i]),
                    recv.subspan(b.offset, b.len), aad(b.peer, rank()).view(),
                    -1, Billing::kCharged)) {
      reject(counters_.auth_failures,
             "authentication tag mismatch: message was tampered with or "
             "corrupted");
    }
    ++counters_.messages_opened;
    counters_.bytes_opened += b.len;
  }
}

void SecureComm::bcast(MutBytes data, int root) {
  mpi::validate_peer(root, size());
  const bool is_root = rank() == root;
  const Block block{0, data.size(), root};
  const std::span<const Block> one(&block, 1);
  sealed_exchange(data, is_root ? one : std::span<const Block>{}, data,
                  is_root ? std::span<const Block>{} : one, /*to_all=*/true,
                  [&](Wire& ws, Wire& wr) {
                    comm_->bcast(is_root ? ws.buf : wr.buf, root);
                  });
}

void SecureComm::allgather(BytesView sendpart, MutBytes recvall) {
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = sendpart.size();
  if (recvall.size() != block * n) {
    throw mpi::MpiError("allgather: recv buffer must be size()*block bytes");
  }
  const Block mine{0, block, -1};
  sealed_exchange(sendpart, {&mine, 1}, recvall, per_rank(n, block),
                  /*to_all=*/true, [&](Wire& ws, Wire& wr) {
                    comm_->allgather(ws.buf, wr.buf);
                  });
}

void SecureComm::alltoall(BytesView sendbuf, MutBytes recvbuf,
                          std::size_t block) {
  const auto n = static_cast<std::size_t>(size());
  const auto total = block * n;
  if (sendbuf.size() != total || recvbuf.size() != total) {
    throw mpi::MpiError("alltoall: buffers must be size()*block bytes");
  }
  const std::vector<Block> blocks = per_rank(n, block);
  sealed_exchange(sendbuf, blocks, recvbuf, blocks, /*to_all=*/false,
                  [&](Wire& ws, Wire& wr) {
                    comm_->alltoall(ws.buf, wr.buf, wire_size(block));
                  });
}

void SecureComm::alltoallv(BytesView sendbuf,
                           std::span<const std::size_t> sendcounts,
                           std::span<const std::size_t> senddispls,
                           MutBytes recvbuf,
                           std::span<const std::size_t> recvcounts,
                           std::span<const std::size_t> recvdispls) {
  const auto n = static_cast<std::size_t>(size());
  mpi::validate_alltoallv_blocks(n, sendcounts, senddispls, sendbuf.size());
  mpi::validate_alltoallv_blocks(n, recvcounts, recvdispls, recvbuf.size());
  std::vector<Block> send(n);
  std::vector<Block> recv(n);
  for (std::size_t i = 0; i < n; ++i) {
    send[i] = {senddispls[i], sendcounts[i], static_cast<int>(i)};
    recv[i] = {recvdispls[i], recvcounts[i], static_cast<int>(i)};
  }
  sealed_exchange(sendbuf, send, recvbuf, recv, /*to_all=*/false,
                  [&](Wire& ws, Wire& wr) {
                    comm_->alltoallv(ws.buf, ws.counts, ws.displs, wr.buf,
                                     wr.counts, wr.displs);
                  });
}

void SecureComm::gather(BytesView sendpart, MutBytes recvall, int root) {
  mpi::validate_peer(root, size());
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = sendpart.size();
  const bool is_root = rank() == root;
  if (is_root && recvall.size() != block * n) {
    throw mpi::MpiError("gather: root recv buffer must be size()*block");
  }
  const Block mine{0, block, root};
  sealed_exchange(sendpart, {&mine, 1}, recvall,
                  per_rank(is_root ? n : 0, block), /*to_all=*/false,
                  [&](Wire& ws, Wire& wr) {
                    comm_->gather(ws.buf, wr.buf, root);
                  });
}

void SecureComm::scatter(BytesView sendall, MutBytes recvpart, int root) {
  mpi::validate_peer(root, size());
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = recvpart.size();
  const bool is_root = rank() == root;
  if (is_root && sendall.size() != block * n) {
    throw mpi::MpiError("scatter: root send buffer must be size()*block");
  }
  const Block mine{0, block, root};
  sealed_exchange(sendall, per_rank(is_root ? n : 0, block), recvpart,
                  {&mine, 1}, /*to_all=*/false, [&](Wire& ws, Wire& wr) {
                    comm_->scatter(ws.buf, wr.buf, root);
                  });
}

double run_secure_world(const mpi::WorldConfig& world_config,
                        const SecureConfig& secure_config,
                        const std::function<void(SecureComm&)>& body) {
  return mpi::run_world(world_config, [&](mpi::Comm& comm) {
    SecureComm secure(comm, secure_config);
    body(secure);
  });
}

}  // namespace emc::secure
