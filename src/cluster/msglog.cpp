#include "cluster/msglog.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/crc64.hpp"
#include "util/serialize.hpp"

namespace ckpt::cluster {
namespace {

/// Charge model for log appends.
constexpr sim::CostModel kCosts{};

template <typename Sink>
void encode_envelope(Sink& s, const LoggedMessage& m, std::uint64_t crc) {
  s.template put<std::int32_t>(m.src);
  s.template put<std::int32_t>(m.dst);
  s.put(m.seq);
  s.put(m.tag);
  s.put(m.sent_at);
  s.put_bytes(m.payload);
  s.put(crc);
}

LoggedMessage decode_envelope(util::Deserializer& d) {
  LoggedMessage m;
  m.src = d.get<std::int32_t>();
  m.dst = d.get<std::int32_t>();
  m.seq = d.get<std::uint64_t>();
  m.tag = d.get<std::uint64_t>();
  m.sent_at = d.get<SimTime>();
  m.payload = d.get_bytes();
  m.crc = d.get<std::uint64_t>();
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// LoggedMessage
// ---------------------------------------------------------------------------

std::uint64_t LoggedMessage::envelope_bytes() const {
  util::SizeCounter c;
  encode_envelope(c, *this, 0);
  return c.size();
}

std::uint64_t LoggedMessage::compute_crc() const {
  util::Serializer s;
  encode_envelope(s, *this, 0);
  return util::crc64(s.bytes());
}

// ---------------------------------------------------------------------------
// MessageLog
// ---------------------------------------------------------------------------

SimTime MessageLog::record(LoggedMessage message) {
  if (!options_.log_payloads) message.payload.clear();
  message.crc = message.compute_crc();
  const std::uint64_t bytes = message.envelope_bytes();
  channels_[{message.src, message.dst}].push_back(std::move(message));
  ++total_recorded_;
  // Pessimistic logging: the copy into the log plus the CRC pass happen
  // before the message leaves the sender.
  return kCosts.mem_copy_cost(bytes) + kCosts.hash_cost(bytes);
}

bool MessageLog::covers(int src, int dst, std::uint64_t from_seq, std::uint64_t to_seq,
                        const std::set<int>& dead_logs) const {
  if (from_seq > to_seq) return true;  // empty range
  if (dead_logs.contains(src)) return false;
  auto it = channels_.find({src, dst});
  if (it == channels_.end()) return false;
  // Entries are in ascending seq order; scan the needed window.
  std::uint64_t expect = from_seq;
  for (const LoggedMessage& m : it->second) {
    if (m.seq < expect) continue;
    if (m.seq > expect) return false;  // gap (trimmed or never logged)
    if (m.payload.empty() || m.crc != m.compute_crc()) return false;
    if (expect == to_seq) return true;
    ++expect;
  }
  return false;
}

std::vector<const LoggedMessage*> MessageLog::suffix(int src, int dst,
                                                     std::uint64_t after_seq) const {
  std::vector<const LoggedMessage*> out;
  auto it = channels_.find({src, dst});
  if (it == channels_.end()) return out;
  for (const LoggedMessage& m : it->second) {
    if (m.seq <= after_seq) continue;
    if (m.crc != m.compute_crc()) {
      ++crc_failures_;
      continue;
    }
    out.push_back(&m);
  }
  return out;
}

std::uint64_t MessageLog::trim_delivered(int dst,
                                         const std::map<int, std::uint64_t>& delivered_up_to) {
  std::uint64_t trimmed = 0;
  for (auto& [key, entries] : channels_) {
    if (key.second != dst) continue;
    auto found = delivered_up_to.find(key.first);
    if (found == delivered_up_to.end()) continue;
    const std::uint64_t up_to = found->second;
    while (!entries.empty() && entries.front().seq <= up_to) {
      entries.pop_front();
      ++trimmed;
    }
  }
  total_trimmed_ += trimmed;
  return trimmed;
}

std::uint64_t MessageLog::drop_sender(int src) {
  std::uint64_t dropped = 0;
  for (auto& [key, entries] : channels_) {
    if (key.first != src) continue;
    dropped += entries.size();
    entries.clear();
  }
  return dropped;
}

std::vector<std::byte> MessageLog::encode_sender(int src) const {
  util::Serializer s;
  std::uint64_t count = 0;
  for (const auto& [key, entries] : channels_) {
    if (key.first == src) count += entries.size();
  }
  s.put(count);
  for (const auto& [key, entries] : channels_) {
    if (key.first != src) continue;
    for (const LoggedMessage& m : entries) encode_envelope(s, m, m.crc);
  }
  return std::move(s).take();
}

std::uint64_t MessageLog::restore_sender(int src, const std::vector<std::byte>& blob) {
  util::Deserializer d(blob);
  const auto count = d.get<std::uint64_t>();
  std::map<std::pair<int, int>, std::deque<LoggedMessage>> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    LoggedMessage m = decode_envelope(d);
    if (m.src != src) throw util::SerializeError("message log blob owner mismatch");
    restored[{m.src, m.dst}].push_back(std::move(m));
  }
  drop_sender(src);
  for (auto& [key, entries] : restored) channels_[key] = std::move(entries);
  return count;
}

std::uint64_t MessageLog::message_count() const {
  std::uint64_t count = 0;
  for (const auto& [key, entries] : channels_) count += entries.size();
  return count;
}

std::uint64_t MessageLog::resident_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [key, entries] : channels_) {
    for (const LoggedMessage& m : entries) bytes += m.envelope_bytes();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// RecoveryLine
// ---------------------------------------------------------------------------

std::string RecoveryLine::describe() const {
  std::ostringstream out;
  out << "recovery line: width=" << width << " depth=" << depth
      << " cascade_rounds=" << cascade_rounds << " missing=" << missing_messages
      << (bounded ? " (bounded)" : " (UNBOUNDED domino)");
  return out.str();
}

// ---------------------------------------------------------------------------
// RollbackResolver
// ---------------------------------------------------------------------------

const ChannelCut* RollbackResolver::cut_channels(int rank, int index) const {
  auto it = cuts_.find(rank);
  if (it == cuts_.end() || index < 0 ||
      index >= static_cast<int>(it->second.size())) {
    return nullptr;
  }
  return &it->second[static_cast<std::size_t>(index)].channels;
}

std::uint64_t RollbackResolver::sent_frontier(int src, int dst,
                                              const std::map<int, int>& line) const {
  // A rank on the line will re-execute from its cut: its send frontier is
  // the cut's, not the live one (messages past the cut will be re-sent, so
  // the receiver need not replay them from the log).
  auto placed = line.find(src);
  if (placed != line.end()) {
    if (placed->second == RecoveryLine::kToStart) return 0;
    const ChannelCut* channels = cut_channels(src, placed->second);
    if (channels == nullptr) return 0;
    auto sent = channels->sent.find(dst);
    return sent == channels->sent.end() ? 0 : sent->second;
  }
  auto live = current_sent_.find({src, dst});
  return live == current_sent_.end() ? 0 : live->second;
}

RecoveryLine RollbackResolver::resolve(const std::vector<int>& failed_ranks,
                                       const std::set<int>& dead_logs) const {
  RecoveryLine line;
  // Seed: every failed rank restarts from its newest cut (or from program
  // start if it never checkpointed).
  for (int rank : failed_ranks) {
    auto it = cuts_.find(rank);
    line.restart_cut[rank] =
        (it == cuts_.end() || it->second.empty())
            ? RecoveryLine::kToStart
            : static_cast<int>(it->second.size()) - 1;
  }

  // Fixpoint: a rank at cut C must replay every message delivered after C.
  // For each sender s of such messages, the window (delivered_at_cut,
  // sender_frontier] must be covered by s's log; if not, s joins the line at
  // its newest cut whose send frontier makes the window coverable — cut
  // indices only ever decrease, so this terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    // Snapshot: demotions discovered this round apply against the line as it
    // stood at round start, keeping the result order-independent.
    const std::map<int, int> snapshot = line.restart_cut;
    for (const auto& [rank, cut_index] : snapshot) {
      if (cut_index == RecoveryLine::kToStart) continue;
      const ChannelCut* channels = cut_channels(rank, cut_index);
      if (channels == nullptr) continue;
      // Consider every potential sender: any rank with a known channel to
      // `rank`, per cut metadata or the live frontier.
      std::set<int> senders;
      for (const auto& [key, frontier] : current_sent_) {
        if (key.second == rank) senders.insert(key.first);
      }
      for (const auto& [s, d] : channels->delivered) {
        (void)d;
        senders.insert(s);
      }
      for (int src : senders) {
        if (src == rank) continue;
        auto delivered = channels->delivered.find(src);
        const std::uint64_t replay_from =
            (delivered == channels->delivered.end() ? 0 : delivered->second) + 1;
        const std::uint64_t replay_to = sent_frontier(src, rank, snapshot);
        if (replay_from > replay_to) continue;  // nothing to replay
        if (log_.covers(src, rank, replay_from, replay_to, dead_logs)) continue;

        // Log cannot supply the suffix: src must roll back until its own
        // send frontier to `rank` drops to at-or-below what `rank`'s cut
        // already delivered.
        line.missing_messages += replay_to - replay_from + 1;
        auto src_cuts = cuts_.find(src);
        int target = RecoveryLine::kToStart;
        if (src_cuts != cuts_.end()) {
          for (int i = static_cast<int>(src_cuts->second.size()) - 1; i >= 0; --i) {
            const ChannelCut& c = src_cuts->second[static_cast<std::size_t>(i)].channels;
            auto sent = c.sent.find(rank);
            const std::uint64_t frontier = sent == c.sent.end() ? 0 : sent->second;
            if (frontier < replay_from ||
                log_.covers(src, rank, replay_from, frontier, dead_logs)) {
              target = i;
              break;
            }
          }
        }
        auto existing = line.restart_cut.find(src);
        const int current = existing == line.restart_cut.end()
                                ? std::numeric_limits<int>::max()
                                : existing->second;
        const int current_key =
            current == RecoveryLine::kToStart ? -1 : current;
        const int target_key = target == RecoveryLine::kToStart ? -1 : target;
        if (target_key < current_key) {
          line.restart_cut[src] = target;
          changed = true;
        }
      }
    }
    if (changed) ++line.cascade_rounds;
  }

  // Summarize.
  line.width = static_cast<std::uint32_t>(line.restart_cut.size());
  for (const auto& [rank, cut_index] : line.restart_cut) {
    std::uint32_t steps;
    auto it = cuts_.find(rank);
    const std::uint32_t have =
        it == cuts_.end() ? 0 : static_cast<std::uint32_t>(it->second.size());
    if (cut_index == RecoveryLine::kToStart) {
      line.bounded = line.bounded && have == 0;  // never-checkpointed rank is fine
      steps = have + 1;
      if (have == 0) steps = 1;  // cold start was the only option anyway
    } else {
      steps = have - static_cast<std::uint32_t>(cut_index);
    }
    line.depth = std::max(line.depth, steps);
  }
  return line;
}

}  // namespace ckpt::cluster
