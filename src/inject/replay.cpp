#include "inject/replay.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include <map>

#include "cluster/mpi.hpp"
#include "cluster/uncoordinated.hpp"
#include "core/systemlevel.hpp"
#include "obs/flightrec.hpp"
#include "storage/backend.hpp"
#include "storage/replicated.hpp"
#include "storage/image.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"

namespace ckpt::inject {
namespace {

constexpr sim::VAddr kBase = 0x10000;

// --- journal_crash_replay geometry ----------------------------------------
constexpr std::uint64_t kReplaySeed = 0x5eed;
/// Commits in the recorded sequence (the acceptance floor is 30).
constexpr std::uint64_t kCommits = 32;
/// Rng-chosen single-byte corruption cases (the acceptance floor is 200).
constexpr std::uint64_t kFuzzOffsets = 220;
/// Log geometry for the recorded sequence.  Small segments force many
/// seal/open rollovers so segment-boundary crash points are well covered;
/// the ring still holds the whole sequence (migration stays off while
/// recording so the ledger's logical offsets are stable).
constexpr std::uint64_t kSegmentBytes = 48 * 1024;
constexpr std::uint32_t kSegments = 24;
/// Data pages per recorded image.
constexpr std::uint64_t kPagesPerImage = 3;
/// Run the recovered journal's migrator and re-verify through the home
/// store on every Nth case.
constexpr std::uint64_t kMigrateEvery = 8;

// --- mpi_uncoordinated scenario -------------------------------------------
constexpr int kRanks = 8;
constexpr int kNodes = 4;
/// Fixed per-rank checkpoint interval (adaptation off for determinism).
constexpr SimTime kInterval = 20 * kMillisecond;
/// Per-rank guest state and per-neighbour exchange size.
constexpr std::uint64_t kRankArrayBytes = 32 * 1024;
constexpr std::uint64_t kHaloBytes = 512;

/// One recorded image: mostly rng pages, with an occasional repeated page so
/// the per-commit chunk table has something to dedup (groups then contain
/// fewer kChunk records than pages — the realistic shape).
storage::CheckpointImage make_image(util::Rng& rng, std::uint64_t index,
                                    std::uint64_t pages) {
  storage::CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.pid = 7;
  image.process_name = "replay";
  image.sequence = index;
  image.taken_at = index * 1000;
  image.threads.push_back(storage::ThreadImage{1, {}});
  image.threads[0].regs.pc = index;
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(kBase), pages, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::uint64_t p = 0; p < pages; ++p) {
    storage::PageImage page;
    page.page = seg.vma.first_page + p;
    page.data.resize(sim::kPageSize);
    if (rng.next_below(4) == 0) {
      std::fill(page.data.begin(), page.data.end(),
                static_cast<std::byte>(index & 0xFF));
    } else {
      for (std::size_t off = 0; off < page.data.size(); off += 8) {
        const std::uint64_t word = rng.next_u64();
        std::memcpy(page.data.data() + off, &word,
                    std::min<std::size_t>(8, page.data.size() - off));
      }
    }
    seg.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(seg));
  return image;
}

}  // namespace

std::string CrashReplayReport::summary() const {
  std::string out = "replay: " + std::to_string(commits_recorded) + " commits over " +
                    std::to_string(log_bytes_recorded) + " log bytes, " +
                    std::to_string(boundary_cases) + " boundary + " +
                    std::to_string(fuzz_cases) + " fuzz cases, " +
                    std::to_string(torn_tails) + " torn tails, " +
                    std::to_string(images_reverified) + " payloads re-verified, " +
                    std::to_string(flight_appends) + " flight appends (" +
                    std::to_string(flight_reverified) + " re-verified), " +
                    std::to_string(migrations_checked) + " migration checks, " +
                    std::to_string(failures) + " failures";
  for (const std::string& diagnostic : diagnostics) out += "\n  " + diagnostic;
  return out;
}

CrashReplayReport JournalCrashReplay::run() {
  CrashReplayReport report;
  util::Rng rng(kReplaySeed);

  const sim::CostModel costs{};
  storage::JournalOptions journal_options;
  journal_options.segment_bytes = kSegmentBytes;
  journal_options.segments = kSegments;
  // Migration must stay off while recording: the append ledger's logical
  // offsets are the coordinate system every crash point below is cut in.
  journal_options.migrate_on_demand = false;

  // --- 1. Record the commit sequence ---------------------------------------
  storage::LocalDiskBackend record_home(costs);
  storage::LogStructuredBackend journal(&record_home, journal_options);
  struct Recorded {
    storage::ImageId id = storage::kBadImageId;
    std::vector<std::byte> truth;      ///< flat serialization, the byte oracle
    std::uint64_t commit_end = 0;      ///< log offset one past the kCommit record
  };
  std::vector<Recorded> commits;
  commits.reserve(kCommits);
  // Flight records bracket every commit, the way the fleet's black box
  // persists an open "commit" span before the group and a closed one after.
  struct FlightAppend {
    std::uint64_t key = 0;
    std::vector<std::byte> payload;
    std::uint64_t end = 0;  ///< log offset one past the kFlightRecord record
  };
  std::vector<FlightAppend> flights;
  std::map<std::uint64_t, obs::FlightRecorder> recorders;
  constexpr std::uint64_t kFlightKeys = 3;
  const auto append_flight = [&](std::uint64_t key, const obs::FlightRecorder& fr) {
    std::vector<std::byte> payload = fr.serialize();
    if (!journal.append_flight_record(key, payload, storage::ChargeFn{})) {
      throw std::logic_error("JournalCrashReplay: log geometry cannot hold the flight records");
    }
    const storage::JournalRecordInfo& record = journal.appended_records().back();
    flights.push_back({key, std::move(payload), record.log_offset + record.bytes});
    ++report.flight_appends;
  };
  for (std::uint64_t i = 0; i < kCommits; ++i) {
    const std::uint64_t key = i % kFlightKeys;
    obs::FlightRecorder& recorder =
        recorders.try_emplace(key, obs::FlightRecorder(8)).first->second;
    recorder.span_begin(i * 1000, "commit", i);
    append_flight(key, recorder);
    const storage::CheckpointImage image = make_image(rng, i, kPagesPerImage);
    const storage::ImageId id = journal.store(image, storage::ChargeFn{});
    if (id == storage::kBadImageId) {
      throw std::logic_error(
          "JournalCrashReplay: log geometry cannot hold the recorded sequence");
    }
    // store() always appends the group's kCommit record last.
    const storage::JournalRecordInfo& commit_record = journal.appended_records().back();
    commits.push_back({id, image.serialize(),
                       commit_record.log_offset + commit_record.bytes});
    recorder.span_end(i * 1000 + 500, "commit", i);
    recorder.counter(i * 1000 + 500, "commits", i + 1);
    append_flight(key, recorder);
  }
  const storage::JournalMedia media = journal.media_snapshot();
  const std::vector<storage::JournalRecordInfo> ledger = journal.appended_records();
  report.commits_recorded = commits.size();
  report.log_bytes_recorded = ledger.back().log_offset + ledger.back().bytes;

  // --- Shared case machinery ------------------------------------------------
  util::Serializer digest;
  std::uint64_t case_index = 0;

  // The claim under test, stated as data: a crash whose damage begins at
  // logical offset `cutoff` must recover exactly the commits whose kCommit
  // record ended at or before `cutoff`.
  const auto run_case = [&](storage::JournalMedia damaged, std::uint64_t cutoff,
                            const char* kind, std::uint64_t at) {
    std::vector<const Recorded*> expected;
    for (const Recorded& recorded : commits) {
      if (recorded.commit_end <= cutoff) expected.push_back(&recorded);
    }

    storage::LocalDiskBackend home(costs);
    storage::LogStructuredBackend replayed(&home, journal_options, std::move(damaged));
    const storage::JournalRecoveryReport recovery = replayed.recover(storage::ChargeFn{});
    if (recovery.tail_torn) ++report.torn_tails;

    bool case_ok = true;
    const auto fail = [&](const std::string& what) {
      case_ok = false;
      ++report.failures;
      if (report.diagnostics.size() < 16) {
        report.diagnostics.push_back(std::string(kind) + " @" + std::to_string(at) +
                                     ": " + what);
      }
    };

    std::vector<storage::ImageId> expected_ids;
    expected_ids.reserve(expected.size());
    for (const Recorded* recorded : expected) expected_ids.push_back(recorded->id);
    std::vector<storage::ImageId> got = replayed.list();
    std::sort(got.begin(), got.end());
    if (got != expected_ids || recovery.recovered_ids != expected_ids) {
      fail("recovered id set != newest fully-committed prefix (got " +
           std::to_string(got.size()) + ", want " + std::to_string(expected_ids.size()) +
           ")");
    } else {
      for (const Recorded* recorded : expected) {
        const auto image = replayed.load(recorded->id, storage::ChargeFn{});
        if (!image || image->serialize() != recorded->truth) {
          fail("image " + std::to_string(recorded->id) +
               " failed byte re-verification after recovery");
          break;
        }
        ++report.images_reverified;
      }
    }

    // Flight-record half of the prefix claim: per key, exactly the newest
    // payload whose append landed inside the surviving prefix is recovered.
    std::map<std::uint64_t, const FlightAppend*> expected_flight;
    for (const FlightAppend& flight : flights) {
      if (flight.end <= cutoff) expected_flight[flight.key] = &flight;
    }
    const auto check_flights = [&](const char* when) {
      for (std::uint64_t key = 0; key < kFlightKeys; ++key) {
        const auto want = expected_flight.find(key);
        const auto got_payload = replayed.flight_record_of(key);
        if (want == expected_flight.end()) {
          if (got_payload.has_value()) {
            fail("flight key " + std::to_string(key) + " recovered " + when +
                 " but no append survives the cutoff");
          }
        } else if (!got_payload.has_value() || *got_payload != want->second->payload) {
          fail("flight key " + std::to_string(key) +
               " != newest surviving payload " + when);
        } else {
          ++report.flight_reverified;
        }
      }
    };
    if (recovery.flight_recovered != expected_flight.size()) {
      fail("flight_recovered count " + std::to_string(recovery.flight_recovered) +
           " != surviving key count " + std::to_string(expected_flight.size()));
    }
    check_flights("after recovery");

    if (case_ok && case_index % kMigrateEvery == 0) {
      const storage::LogStructuredBackend::MigrateReport drained =
          replayed.migrate(storage::ChargeFn{});
      if (!drained.complete || drained.images_drained != expected_ids.size()) {
        fail("migrator drain incomplete after recovery (" +
             std::to_string(drained.images_drained) + "/" +
             std::to_string(expected_ids.size()) + ")");
      } else if (home.list().size() != expected_ids.size()) {
        fail("home store count != survivors after drain");
      } else {
        for (const Recorded* recorded : expected) {
          const auto image = replayed.load(recorded->id, storage::ChargeFn{});
          if (!image || image->serialize() != recorded->truth) {
            fail("image " + std::to_string(recorded->id) +
                 " failed byte re-verification after migration");
            break;
          }
        }
        if (case_ok) {
          ++report.migrations_checked;
          // Reclaim may have compacted flight records forward; the payload
          // each key surfaces must be unchanged by that movement.
          check_flights("after migration");
        }
      }
    }

    digest.put<std::uint64_t>(cutoff);
    digest.put<std::uint64_t>(at);
    digest.put<std::uint64_t>(got.size());
    digest.put<std::uint8_t>(recovery.tail_torn ? 1 : 0);
    for (const storage::ImageId id : got) digest.put<std::uint64_t>(id);
    for (std::uint64_t key = 0; key < kFlightKeys; ++key) {
      const auto got_payload = replayed.flight_record_of(key);
      digest.put<std::uint8_t>(got_payload.has_value() ? 1 : 0);
      if (got_payload.has_value()) digest.put<std::uint64_t>(util::crc64(*got_payload));
    }
    ++case_index;
  };

  // Power loss at logical offset `cut`: every byte at or past the cut is
  // gone (the device never wrote it), everything before survives verbatim.
  const auto truncate_at = [&](std::uint64_t cut) {
    storage::JournalMedia out = media;
    for (const storage::JournalRecordInfo& record : ledger) {
      if (record.log_offset + record.bytes <= cut) continue;
      const std::uint64_t keep = record.log_offset >= cut ? 0 : cut - record.log_offset;
      std::vector<std::byte>& slot = out.slots[record.slot];
      std::fill(slot.begin() + static_cast<std::ptrdiff_t>(record.slot_offset + keep),
                slot.begin() + static_cast<std::ptrdiff_t>(record.slot_offset + record.bytes),
                std::byte{0});
    }
    return out;
  };

  // --- 2. Truncate at every record boundary ---------------------------------
  run_case(truncate_at(0), 0, "truncate", 0);
  ++report.boundary_cases;
  for (const storage::JournalRecordInfo& record : ledger) {
    const std::uint64_t cut = record.log_offset + record.bytes;
    run_case(truncate_at(cut), cut, "truncate", cut);
    ++report.boundary_cases;
  }

  // --- 3. Flip one byte at fuzzed intra-record offsets ----------------------
  for (std::uint64_t f = 0; f < kFuzzOffsets; ++f) {
    const std::uint64_t at = rng.next_below(report.log_bytes_recorded);
    const auto next = std::upper_bound(
        ledger.begin(), ledger.end(), at,
        [](std::uint64_t value, const storage::JournalRecordInfo& record) {
          return value < record.log_offset;
        });
    const storage::JournalRecordInfo& record = *std::prev(next);
    storage::JournalMedia damaged = media;
    damaged.slots[record.slot][record.slot_offset + (at - record.log_offset)] ^=
        std::byte{0xFF};
    // Any damage inside a record invalidates its CRC64 envelope, so the
    // recoverable prefix ends where the damaged record begins.
    run_case(std::move(damaged), record.log_offset, "corrupt", at);
    ++report.fuzz_cases;
  }

  report.outcome_digest = util::crc64(digest.bytes());
  return report;
}

// ---------------------------------------------------------------------------
// mpi_uncoordinated mode
// ---------------------------------------------------------------------------

std::string MpiReplayReport::summary() const {
  std::string out = "mpi replay: " + std::to_string(cases) + " cases, " +
                    std::to_string(recoveries) + " recoveries, " +
                    std::to_string(commits) + " commits, " +
                    std::to_string(replayed_messages) + " replayed, " +
                    std::to_string(lost_messages) + " lost, " +
                    std::to_string(duplicates_dropped) + " dup-dropped, depth<=" +
                    std::to_string(max_rollback_depth) + ", " +
                    std::to_string(failures) + " failures";
  for (const std::string& diagnostic : diagnostics) out += "\n  " + diagnostic;
  return out;
}

namespace {

bool all_ranks_have_cuts(const cluster::UncoordinatedMpi& manager, int nranks) {
  for (int r = 0; r < nranks; ++r) {
    auto it = manager.cuts().find(r);
    if (it == manager.cuts().end() || it->second.empty()) return false;
  }
  return true;
}

}  // namespace

MpiReplayReport MpiCrashReplay::run() {
  MpiReplayReport report;
  util::Serializer digest;
  std::unique_ptr<util::ThreadPool> pinned;
  if (options_.workers > 0) {
    pinned = std::make_unique<util::ThreadPool>(options_.workers);
  }

  auto fail_case = [&](std::uint64_t k, const std::string& what) {
    ++report.failures;
    if (report.diagnostics.size() < 8) {
      report.diagnostics.push_back("case " + std::to_string(k) + ": " + what);
    }
  };

  for (std::uint64_t k = 0; k < options_.crash_points; ++k) {
    // Fresh deterministic scenario per case: the crash point (which node,
    // after how much progress) is the only thing that varies with k.
    cluster::Cluster cluster(kNodes, cluster::NodeConfig{});
    storage::ReplicatedOptions store_options;
    store_options.pool = pinned.get();
    storage::ReplicatedStore store({&cluster.remote_storage()}, store_options);

    cluster::MpiFabric::FabricOptions fabric_options;
    fabric_options.latency = cluster.node(0).kernel().costs().net_latency_ns;
    fabric_options.sender_logging = true;

    cluster::MpiRankGuest::Config config;
    config.array_bytes = kRankArrayBytes;
    config.halo_bytes = kHaloBytes;
    cluster::MpiJob job(cluster, kRanks, config, fabric_options);
    job.launch();

    std::vector<std::unique_ptr<core::CheckpointEngine>> engines;
    std::vector<core::CheckpointEngine*> raw_engines;
    for (int n = 0; n < kNodes; ++n) {
      sim::SimKernel& kernel = cluster.node(n).kernel();
      sim::KernelModule& module = kernel.load_module("blcr");
      engines.push_back(std::make_unique<core::KernelThreadEngine>(
          "blcr", &store, core::EngineOptions{}, kernel,
          core::KernelThreadEngine::ThreadConfig{}, &module));
      raw_engines.push_back(engines.back().get());
    }

    std::unique_ptr<storage::LogStructuredBackend> journal;
    cluster::UncoordinatedOptions manager_options;
    manager_options.policy.initial_interval = kInterval;
    manager_options.policy.adapt_interval = false;
    manager_options.epoch = 2 * kMillisecond;
    if (options_.journal_logs) {
      journal = std::make_unique<storage::LogStructuredBackend>(&cluster.remote_storage());
      manager_options.log_journal = journal.get();
    }
    cluster::UncoordinatedMpi manager(cluster, job, raw_engines, manager_options);

    // Run to the case-specific crash point, making sure every rank holds at
    // least one checkpoint so the recovery line has images to anchor on.
    manager.run_until(kInterval * static_cast<SimTime>(2 + k % 3));
    for (int extra = 0; extra < 8 && !all_ranks_have_cuts(manager, kRanks); ++extra) {
      manager.run_until(cluster.now() + kInterval);
    }
    if (!all_ranks_have_cuts(manager, kRanks)) {
      fail_case(k, "some rank never checkpointed before the crash point");
      continue;
    }
    // Let every rank execute well past its newest cut before the crash, so
    // recovery genuinely rolls state back and re-execution re-sends
    // sequences the receivers already delivered (the dedup seam).  A fixed
    // window is not enough: each commit advances the host node's local
    // kernel clock past cluster time, and those leads are uneven across
    // nodes — a rank whose host leads by more than the window would crash
    // still sitting exactly at its cut frontier.  So run the cluster in
    // chunks (no further commits) until every rank's live send frontier
    // provably exceeds its newest checkpoint cut.
    {
      const auto past_cuts = [&](std::uint64_t margin) {
        const auto sent = job.fabric().current_sent();
        for (const auto& [rank, history] : manager.cuts()) {
          for (const auto& [dst, cut_seq] : history.back().channels.sent) {
            auto live = sent.find({rank, dst});
            const std::uint64_t live_seq = live == sent.end() ? 0 : live->second;
            if (live_seq < cut_seq + margin) return false;
          }
        }
        return true;
      };
      for (int chunk = 0; chunk < 16 && !past_cuts(10); ++chunk) {
        cluster.run_until(cluster.now() + 2 * kInterval, 2 * kMillisecond);
      }
    }

    const int victim = static_cast<int>(k) % kNodes;
    cluster.fail_node(victim);
    if (options_.double_failure) {
      cluster.fail_node((victim + 1) % kNodes);
    }
    const std::vector<int> up = cluster.up_nodes();
    if (up.empty()) {
      fail_case(k, "no surviving node to recover onto");
      continue;
    }
    const cluster::UncoordinatedMpi::RecoverResult recovered =
        manager.recover_failed_node(victim, up.front());
    if (!recovered.ok) {
      fail_case(k, "recovery failed: " + recovered.error);
      continue;
    }
    ++report.recoveries;
    report.replayed_messages += recovered.replayed_messages;
    report.journal_restored_logs += recovered.journal_restored_logs;
    report.max_rollback_depth =
        std::max(report.max_rollback_depth, recovered.line.depth);

    // Run forward WITHOUT further commits: the recovery target now hosts
    // extra ranks and its kernel clock sits ahead of cluster time after the
    // restarts, so a manager-driven window would spend it all on checkpoint
    // work.  Driving the cluster directly lets the restarted ranks actually
    // re-execute — the job must make real progress, re-execution re-sends
    // must be absorbed as duplicates, and no receiver may ever observe a
    // sequence gap (lost message).
    // The window scales with the recovery width: the target node's clock
    // leads cluster time by the restart charges, and each restarted rank
    // shares the target CPU — re-executing past its cut (so duplicates are
    // provably absorbed) takes proportionally longer the more ranks were
    // rolled back.
    const SimTime window =
        static_cast<SimTime>(4 + 2 * recovered.line.width) * kInterval;
    cluster.run_until(cluster.now() + window, 2 * kMillisecond);
    const std::uint64_t progress = job.min_iteration(cluster);
    if (progress == 0) {
      fail_case(k, "no progress after recovery");
    }
    cluster::MpiFabric& fabric = job.fabric();
    report.lost_messages += fabric.sequence_violations();
    report.duplicates_dropped += fabric.duplicates_dropped();
    report.commits += manager.stats().commits;

    // Fold the recovered outcome: per-rank iteration + order-sensitive
    // receive digest are a byte-level fingerprint of guest state evolution.
    digest.put(k);
    digest.put(progress);
    digest.put<std::uint32_t>(recovered.line.depth);
    digest.put<std::uint32_t>(recovered.line.width);
    digest.put(recovered.replayed_messages);
    for (int r = 0; r < kRanks; ++r) {
      const cluster::MpiJob::Placement placement =
          job.placements()[static_cast<std::size_t>(r)];
      sim::Process* proc =
          cluster.node(placement.node).kernel().find_process(placement.pid);
      if (proc == nullptr || !proc->alive()) {
        fail_case(k, "rank " + std::to_string(r) + " dead after recovery");
        continue;
      }
      digest.put(cluster::MpiRankGuest::read_iteration(*proc));
      digest.put(cluster::MpiRankGuest::read_recv_digest(*proc));
    }
    ++report.cases;
  }

  report.outcome_digest = util::crc64(digest.bytes());
  return report;
}

}  // namespace ckpt::inject
