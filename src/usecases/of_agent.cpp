#include "usecases/of_agent.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace esw::uc {

namespace {

/// Blocking full write for the controller helper: loops across partial
/// writes and EINTR (signals land mid-send in real deployments; a one-shot
/// send() that asserts on n <= 0 tears the whole session down for a retryable
/// condition).  MSG_NOSIGNAL: the agent end may be closed mid-reconnect.
void ctrl_send_all(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ESW_CHECK_MSG(n > 0, "OpenFlow channel write failed");
    off += static_cast<size_t>(n);
  }
}

/// Appends whatever is queued on the fd to `buf` without blocking, retrying
/// through EINTR.  Returns bytes read.
size_t drain_fd(int fd, std::vector<uint8_t>& buf) {
  size_t total = 0;
  uint8_t tmp[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, MSG_DONTWAIT);
    if (n > 0) {
      buf.insert(buf.end(), tmp, tmp + n);
      total += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ESW_CHECK_MSG(n >= 0, "OpenFlow channel read failed");
    break;  // n == 0: peer closed; stop reading
  }
  return total;
}

/// Splits complete frames off the front of `buf`; invokes fn(frame, len).
/// A frame is consumed *before* fn runs, so a throwing handler never causes
/// already-dispatched frames (or the offending one) to be replayed on the
/// next poll.  A header length below 8 is unrecoverable (no way to resync the
/// stream): the buffer is dropped and the error propagates.
template <typename Fn>
uint32_t for_each_frame(std::vector<uint8_t>& buf, Fn&& fn) {
  uint32_t count = 0;
  size_t off = 0;
  while (buf.size() - off >= 8) {
    const size_t frame_len = flow::openflow_frame_len(buf.data() + off, buf.size() - off);
    if (frame_len < 8) {
      buf.clear();
      ESW_CHECK_MSG(false, "bad OpenFlow frame length");
    }
    if (buf.size() - off < frame_len) break;  // wait for the rest
    const size_t frame_off = off;
    off += frame_len;  // committed regardless of what fn does
    ++count;
    try {
      fn(buf.data() + frame_off, frame_len);
    } catch (...) {
      buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
      throw;
    }
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
  return count;
}

}  // namespace

// ---------------------------------------------------------------------------
// OfAgent
// ---------------------------------------------------------------------------

OfAgent::OfAgent(Callbacks cbs, uint64_t datapath_id)
    : cbs_(std::move(cbs)), datapath_id_(datapath_id) {
  ESW_CHECK_MSG(cbs_.on_flow_mod_batch != nullptr,
                "OfAgent needs an on_flow_mod_batch callback");
  open_channel();
}

OfAgent::~OfAgent() {
  if (switch_fd_ >= 0) ::close(switch_fd_);
  if (ctrl_fd_ >= 0) ::close(ctrl_fd_);
}

void OfAgent::open_channel() {
  int fds[2];
  ESW_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0, "socketpair failed");
  switch_fd_ = fds[0];
  ctrl_fd_ = fds[1];
  send(flow::encode_hello({next_xid()}));  // both sides HELLO at connect
}

void OfAgent::mark_channel_down() {
  if (channel_down_) return;
  channel_down_ = true;
  reconnect_wait_ = reconnect_backoff_;
  // Next loss waits longer before re-opening — don't hammer a flapping peer.
  reconnect_backoff_ = std::min<uint32_t>(reconnect_backoff_ * 2, 64);
}

void OfAgent::reconnect() {
  if (switch_fd_ >= 0) ::close(switch_fd_);
  if (ctrl_fd_ >= 0) ::close(ctrl_fd_);
  switch_fd_ = ctrl_fd_ = -1;
  rxbuf_.clear();           // a torn partial frame must not desync the stream
  peer_hello_seen_ = false; // the new session gates on a fresh controller HELLO
  channel_down_ = false;
  ++stats_.reconnects;
  open_channel();
}

/// Full blocking write on the switch fd, looping across partial writes and
/// EINTR.  Returns false on a hard error (peer gone) — the caller marks the
/// channel down; nothing here asserts, because losing the controller must
/// never take the dataplane with it.  The `ofagent.write` failpoint injects
/// EINTR-equivalent retries and `ofagent.write_short` forces 1-byte writes
/// (both bounded so an `always` arming cannot spin forever).
bool OfAgent::send_all(const uint8_t* data, size_t len) {
  size_t off = 0;
  uint32_t injected = 0;
  while (off < len) {
    if (injected < 64 && ESW_FAILPOINT("ofagent.write")) {
      ++injected;
      ++stats_.io_retries;
      continue;  // as if send() had returned -1/EINTR
    }
    const size_t chunk =
        ESW_FAILPOINT("ofagent.write_short") ? 1 : len - off;
    const ssize_t n = ::send(switch_fd_, data + off, chunk, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      ++stats_.io_retries;
      continue;
    }
    if (n <= 0) return false;  // EPIPE/ECONNRESET: controller is gone
    if (static_cast<size_t>(n) < len - off) ++stats_.io_retries;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Drains the switch fd into rxbuf_ without blocking, retrying through EINTR
/// (real or injected via `ofagent.read`).  Peer close / hard errors mark the
/// channel down instead of throwing.
size_t OfAgent::drain_rx() {
  size_t total = 0;
  uint8_t tmp[4096];
  uint32_t injected = 0;
  for (;;) {
    if (injected < 64 && ESW_FAILPOINT("ofagent.read")) {
      ++injected;
      ++stats_.io_retries;
      continue;
    }
    const ssize_t n = ::recv(switch_fd_, tmp, sizeof tmp, MSG_DONTWAIT);
    if (n > 0) {
      rxbuf_.insert(rxbuf_.end(), tmp, tmp + n);
      total += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      ++stats_.io_retries;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    mark_channel_down();  // n == 0 (peer closed) or a hard error
    break;
  }
  return total;
}

void OfAgent::send(const std::vector<uint8_t>& bytes) {
  if (channel_down_) {
    ++stats_.tx_dropped;
    return;
  }
  if (!send_all(bytes.data(), bytes.size())) {
    mark_channel_down();
    ++stats_.tx_dropped;
    return;
  }
  ++stats_.messages_tx;
  stats_.bytes_tx += bytes.size();
}

bool OfAgent::try_send(const std::vector<uint8_t>& bytes) {
  // Async events (PACKET_IN, FLOW_REMOVED) must never block the datapath
  // loop: when the channel is full they are dropped and counted — lossy by
  // design, like a real switch's punt path.  A *partially* accepted frame is
  // completed blocking (bounded by one frame) so the stream never desyncs.
  if (channel_down_) {
    ++stats_.tx_dropped;
    return false;
  }
  const ssize_t n =
      ::send(switch_fd_, bytes.data(), bytes.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    ++stats_.tx_dropped;
    return false;
  }
  if (n < 0 && errno != EINTR) {
    mark_channel_down();
    ++stats_.tx_dropped;
    return false;
  }
  const size_t accepted = n > 0 ? static_cast<size_t>(n) : 0;
  if (accepted < bytes.size() &&
      !send_all(bytes.data() + accepted, bytes.size() - accepted)) {
    mark_channel_down();
    ++stats_.tx_dropped;
    return false;
  }
  ++stats_.messages_tx;
  stats_.bytes_tx += bytes.size();
  return true;
}

void OfAgent::send_error(uint32_t xid, uint16_t type, uint16_t code,
                         const uint8_t* frame, size_t len) {
  flow::Error err;
  err.xid = xid;
  err.type = type;
  err.code = code;
  err.data.assign(frame, frame + std::min<size_t>(len, 64));  // per spec: ≥64 bytes
  send(flow::encode_error(err));
  ++stats_.errors_sent;
}

uint32_t OfAgent::poll() {
  if (channel_down_) {
    // Capped exponential backoff, paced in poll() calls: sit out the window,
    // then re-open (fresh socketpair + HELLO) and let the controller redo the
    // handshake on the new controller_fd().
    if (reconnect_wait_ > 0) {
      --reconnect_wait_;
      return 0;
    }
    reconnect();
    return 0;
  }
  stats_.bytes_rx += drain_rx();
  const uint32_t n = for_each_frame(
      rxbuf_, [this](const uint8_t* frame, size_t len) { dispatch(frame, len); });
  stats_.messages_rx += n;
  // A run of FLOW_MODs ending the drain lands now — batches never straddle
  // polls, so between polls the datapath always reflects every received mod.
  flush_flow_mods();
  return n;
}

void OfAgent::dispatch(const uint8_t* frame, size_t len) {
  flow::OfMsg msg;
  try {
    msg = flow::decode_message(frame, len);
  } catch (const CheckError&) {
    // Frame-level garbage: answer BAD_REQUEST; the header length already
    // advanced the stream past it, so the session survives.  Pending mods
    // flush first so the error keeps its wire position after the run.
    flush_flow_mods();
    const flow::OfHeader h = flow::peek_header(frame, len);
    send_error(h.xid, flow::kErrTypeBadRequest, flow::kErrCodeBadType, frame, len);
    return;
  }
  handle(msg, frame, len);
}

void OfAgent::handle(const flow::OfMsg& msg, const uint8_t* frame, size_t len) {
  // Batched ingestion keeps barrier semantics: any non-FLOW_MOD message ends
  // the current run — the whole batch (and its per-mod errors/FLOW_REMOVEDs)
  // lands before this message is acted on or answered, so a BARRIER_REPLY
  // still certifies every earlier mod took effect.
  if (!pending_mods_.empty() && !std::holds_alternative<flow::FlowMod>(msg))
    flush_flow_mods();

  // Session gate: before the controller's HELLO only HELLO and ECHO pass.
  if (!peer_hello_seen_ && !std::holds_alternative<flow::Hello>(msg) &&
      !std::holds_alternative<flow::EchoRequest>(msg)) {
    send_error(flow::peek_header(frame, len).xid, flow::kErrTypeBadRequest,
               flow::kErrCodeBadType, frame, len);
    return;
  }

  if (std::holds_alternative<flow::Hello>(msg)) {
    peer_hello_seen_ = true;
    reconnect_backoff_ = 1;  // a completed (re)handshake resets the backoff
  } else if (const auto* m = std::get_if<flow::EchoRequest>(&msg)) {
    ++stats_.echoes;
    send(flow::encode_echo_reply({m->xid, m->payload}));
  } else if (const auto* m = std::get_if<flow::FeaturesRequest>(&msg)) {
    flow::FeaturesReply fr;
    fr.xid = m->xid;  // replies echo the request xid
    fr.datapath_id = datapath_id_;
    fr.n_tables = 255;
    fr.capabilities = 0x1 | 0x2;  // OFPC_FLOW_STATS | OFPC_TABLE_STATS
    send(flow::encode_features_reply(fr));
  } else if (const auto* m = std::get_if<flow::BarrierRequest>(&msg)) {
    // All earlier messages were dispatched synchronously in order, so the
    // barrier guarantee already holds; acknowledge with the same xid.
    ++stats_.barriers;
    send(flow::encode_barrier_reply({m->xid}));
  } else if (const auto* m = std::get_if<flow::FlowMod>(&msg)) {
    // Park the mod for the run's single flush.  The error frame prefix is
    // captured now; whether an ERROR or the FLOW_REMOVEDs go out is decided by
    // the mod's status at flush time.
    ++stats_.flow_mods;
    PendingMod p;
    p.fm = *m;
    p.frame_head.assign(frame, frame + std::min<size_t>(len, 64));
    if (m->command == flow::FlowMod::Cmd::kDelete &&
        (m->flags & flow::FlowMod::kFlagSendFlowRem) != 0 && cbs_.on_collect_removed) {
      // The removed set must reflect every earlier mod: land the run first.
      flush_flow_mods();
      p.removed = cbs_.on_collect_removed(*m);
    }
    pending_mods_.push_back(std::move(p));
  } else if (const auto* m = std::get_if<flow::PacketOut>(&msg)) {
    ++stats_.packet_outs;
    try {
      if (cbs_.on_packet_out) cbs_.on_packet_out(*m);
    } catch (const CheckError&) {
      send_error(m->xid, flow::kErrTypeBadRequest, flow::kErrCodeBadType, frame, len);
    }
  } else if (const auto* m = std::get_if<flow::FlowStatsRequest>(&msg)) {
    flow::FlowStatsReply reply;
    reply.xid = m->xid;
    if (cbs_.on_flow_stats) reply.entries = cbs_.on_flow_stats(*m);
    send(flow::encode_flow_stats_reply(reply));
  } else if (const auto* m = std::get_if<flow::TableStatsRequest>(&msg)) {
    flow::TableStatsReply reply;
    reply.xid = m->xid;
    if (cbs_.on_table_stats) reply.entries = cbs_.on_table_stats();
    send(flow::encode_table_stats_reply(reply));
  } else if (std::holds_alternative<flow::EchoReply>(msg) ||
             std::holds_alternative<flow::Error>(msg)) {
    // Tolerated quietly: our own echoes' replies and controller error notes.
  } else {
    // Controller-bound message types arriving at the switch (PACKET_IN,
    // FLOW_REMOVED, replies): protocol misuse.
    send_error(flow::peek_header(frame, len).xid, flow::kErrTypeBadRequest,
               flow::kErrCodeBadType, frame, len);
  }
}

/// Hands the accumulated FLOW_MOD run to the batch callback and settles each
/// mod's wire effects in order: an applied delete emits its buffered
/// FLOW_REMOVEDs, a refused mod gets exactly one ERROR (TABLE_FULL for a
/// capacity refusal, FLOW_MOD_FAILED/unknown otherwise) while the rest of the
/// run stands.
void OfAgent::flush_flow_mods() {
  if (pending_mods_.empty()) return;
  std::vector<PendingMod> pending = std::exchange(pending_mods_, {});
  std::vector<flow::FlowMod> fms;
  fms.reserve(pending.size());
  for (const PendingMod& p : pending) fms.push_back(p.fm);
  const std::vector<core::ModStatus> statuses = cbs_.on_flow_mod_batch(fms);
  ESW_CHECK_MSG(statuses.size() == pending.size(),
                "batch callback must report one status per mod");
  for (size_t i = 0; i < pending.size(); ++i) {
    PendingMod& p = pending[i];
    switch (statuses[i]) {
      case core::ModStatus::kApplied:
        for (flow::FlowRemoved& r : p.removed) {
          r.xid = next_xid();
          if (try_send(flow::encode_flow_removed(r))) ++stats_.flow_removed_sent;
        }
        break;
      case core::ModStatus::kRefusedTableFull:
        send_error(p.fm.xid, flow::kErrTypeFlowModFailed, flow::kErrCodeTableFull,
                   p.frame_head.data(), p.frame_head.size());
        break;
      case core::ModStatus::kRefusedInvalid:
        send_error(p.fm.xid, flow::kErrTypeFlowModFailed, flow::kErrCodeFlowModUnknown,
                   p.frame_head.data(), p.frame_head.size());
        break;
    }
  }
}

void OfAgent::send_packet_in(const uint8_t* frame, size_t len, uint32_t in_port,
                             uint8_t table_id, flow::PacketIn::Reason reason) {
  flow::PacketIn pin;
  pin.xid = next_xid();
  pin.reason = reason;
  pin.table_id = table_id;
  pin.in_port = in_port;
  pin.frame.assign(frame, frame + len);
  if (try_send(flow::encode_packet_in(pin))) ++stats_.packet_ins_sent;
}

// ---------------------------------------------------------------------------
// OfController
// ---------------------------------------------------------------------------

uint32_t OfController::send_tracked(std::vector<uint8_t> bytes, uint32_t xid,
                                    bool expect_reply) {
  ctrl_send_all(fd_, bytes.data(), bytes.size());
  ++messages_;
  bytes_ += bytes.size();
  if (expect_reply) outstanding_.push_back(xid);
  return xid;
}

void OfController::settle(uint32_t xid) {
  for (size_t i = 0; i < outstanding_.size(); ++i) {
    if (outstanding_[i] == xid) {
      outstanding_[i] = outstanding_.back();
      outstanding_.pop_back();
      return;
    }
  }
  ESW_CHECK_MSG(false, "reply with unknown xid");
}

uint32_t OfController::send_hello() {
  const uint32_t xid = next_xid_++;
  return send_tracked(flow::encode_hello({xid}), xid, false);
}

uint32_t OfController::send_echo(std::vector<uint8_t> payload) {
  const uint32_t xid = next_xid_++;
  return send_tracked(flow::encode_echo_request({xid, std::move(payload)}), xid, true);
}

uint32_t OfController::send_features_request() {
  const uint32_t xid = next_xid_++;
  return send_tracked(flow::encode_features_request({xid}), xid, true);
}

uint32_t OfController::send_barrier() {
  const uint32_t xid = next_xid_++;
  return send_tracked(flow::encode_barrier_request({xid}), xid, true);
}

uint32_t OfController::send_flow_mod(flow::FlowMod fm) {
  fm.xid = next_xid_++;
  return send_tracked(flow::encode_flow_mod(fm), fm.xid, false);
}

uint32_t OfController::send_packet_out(flow::PacketOut po) {
  po.xid = next_xid_++;
  return send_tracked(flow::encode_packet_out(po), po.xid, false);
}

uint32_t OfController::send_flow_stats_request(flow::FlowStatsRequest req) {
  req.xid = next_xid_++;
  return send_tracked(flow::encode_flow_stats_request(req), req.xid, true);
}

uint32_t OfController::send_table_stats_request() {
  const uint32_t xid = next_xid_++;
  return send_tracked(flow::encode_table_stats_request({xid}), xid, true);
}

uint32_t OfController::poll() {
  drain_fd(fd_, rxbuf_);
  return for_each_frame(rxbuf_, [this](const uint8_t* frame, size_t len) {
    const flow::OfMsg msg = flow::decode_message(frame, len);
    if (std::holds_alternative<flow::Hello>(msg)) {
      hello_seen_ = true;
    } else if (const auto* m = std::get_if<flow::EchoReply>(&msg)) {
      settle(m->xid);
    } else if (const auto* m = std::get_if<flow::FeaturesReply>(&msg)) {
      settle(m->xid);
      features_ = *m;
    } else if (const auto* m = std::get_if<flow::BarrierReply>(&msg)) {
      settle(m->xid);
      barrier_replies_.push_back(m->xid);
    } else if (const auto* m = std::get_if<flow::FlowStatsReply>(&msg)) {
      settle(m->xid);
      flow_stats_.push_back(*m);
    } else if (const auto* m = std::get_if<flow::TableStatsReply>(&msg)) {
      settle(m->xid);
      table_stats_.push_back(*m);
    } else if (const auto* m = std::get_if<flow::PacketIn>(&msg)) {
      packet_ins_.push_back(*m);
    } else if (const auto* m = std::get_if<flow::FlowRemoved>(&msg)) {
      flow_removed_.push_back(*m);
    } else if (const auto* m = std::get_if<flow::Error>(&msg)) {
      errors_.push_back(*m);
    } else if (const auto* m = std::get_if<flow::EchoRequest>(&msg)) {
      // Keepalive from the agent: answer it.
      send_tracked(flow::encode_echo_reply({m->xid, m->payload}), m->xid, false);
    }
  });
}

std::vector<flow::PacketIn> OfController::take_packet_ins() {
  return std::exchange(packet_ins_, {});
}
std::vector<flow::FlowRemoved> OfController::take_flow_removed() {
  return std::exchange(flow_removed_, {});
}
std::vector<flow::FlowStatsReply> OfController::take_flow_stats() {
  return std::exchange(flow_stats_, {});
}
std::vector<flow::TableStatsReply> OfController::take_table_stats() {
  return std::exchange(table_stats_, {});
}
std::vector<flow::Error> OfController::take_errors() {
  return std::exchange(errors_, {});
}
std::vector<uint32_t> OfController::take_barrier_replies() {
  return std::exchange(barrier_replies_, {});
}

void run_handshake(OfAgent& agent, OfController& ctrl) {
  ctrl.send_hello();
  agent.poll();   // agent sees the controller HELLO; its own is already queued
  ctrl.poll();    // controller sees the agent HELLO
  ctrl.send_features_request();
  agent.poll();
  ctrl.poll();
  ESW_CHECK_MSG(agent.session_open() && ctrl.features().has_value(),
                "OpenFlow handshake failed");
}

}  // namespace esw::uc
