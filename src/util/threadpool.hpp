// Deterministic fixed-size thread pool + reusable buffer pool for the
// parallel checkpoint commit pipeline.
//
// The paper's "direction forward" (§4.1) argues for concurrent kernel-thread
// checkpointing: overlap the expensive parts of taking a checkpoint with
// application progress.  Our host-side analogue is a worker pool that
// parallelizes the commit pipeline's hot stages — per-segment image
// encoding, CRC64 verification, and replica fan-out — while keeping every
// observable output *bit-identical* to a serial run:
//
//   * No work stealing, no completion-order dependence: run(n, body) hands
//     out indices 0..n-1 from a shared counter and every result is written
//     into the caller's per-index slot, so joins are ordered by index and
//     output never depends on which worker ran what.
//   * Simulated-time accounting is the caller's job: parallel stages must
//     ledger their ChargeFn calls per index and replay them in index order
//     after the join (see ReplicatedStore::store_verbose).  Parallelism is
//     host wall-clock only; the sim clock sees the exact serial sequence.
//   * A 1-worker pool executes inline on the calling thread — the serial
//     reference the determinism tests compare an 8-worker run against.
//
// There is no process-wide pool: a component runs host threads only on a
// pool its owner passes in, and a null pool means the caller's thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ckpt::util {

class ThreadPool {
 public:
  /// `workers` is clamped to >= 1.  A 1-worker pool spawns no threads at
  /// all: run() executes inline on the caller, the serial reference.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const { return worker_count_; }

  /// Run body(0..count-1), blocking until every index completed.  The
  /// calling thread participates, so a pool is never slower than inline by
  /// more than the dispatch handshake.  If any body throws, the exception
  /// from the *lowest* index is rethrown after all indices ran (lowest, so
  /// the error surfaced does not depend on scheduling).  Nested calls from
  /// inside a worker execute inline rather than deadlocking.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t refs = 0;  ///< workers currently inside process() (under mu_)
    std::mutex error_mu;
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  void worker_main();
  void process(Job& job);
  static void record_error(Job& job, std::size_t index);

  unsigned worker_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  std::mutex run_mu_;  ///< one run() at a time
};

/// Convenience: run on `pool` when non-null, inline (index order) otherwise.
/// Same contract as ThreadPool::run — callers own determinism: any sim-time
/// the bodies would charge must be ledgered per index and replayed in index
/// order after the call, never charged from inside a body.
void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Bounded freelist of byte buffers so per-checkpoint scratch allocations
/// (shard encoders, staging copies) reuse capacity instead of regrowing a
/// fresh vector every commit.  Purely a host-allocation optimization:
/// buffers come back cleared, so pooling can never leak bytes between
/// commits or change any output, and it charges no sim time.
class BufferPool {
 public:
  /// An empty buffer, with whatever capacity a previous release() left in it.
  [[nodiscard]] std::vector<std::byte> acquire();

  /// Return a buffer for reuse; contents are cleared, capacity retained.
  /// Buffers beyond the retention bound are simply freed.
  void release(std::vector<std::byte> buffer);

  [[nodiscard]] std::size_t pooled() const;

  static BufferPool& shared();

 private:
  static constexpr std::size_t kMaxRetained = 64;

  mutable std::mutex mu_;
  std::vector<std::vector<std::byte>> free_;
};

}  // namespace ckpt::util
