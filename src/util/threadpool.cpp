#include "util/threadpool.hpp"

#include <algorithm>

namespace ckpt::util {

namespace {

/// The pool the current thread is a worker of, so nested run() calls from a
/// task body execute inline instead of deadlocking on their own pool.
thread_local const ThreadPool* tl_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned workers) : worker_count_(std::max(workers, 1u)) {
  if (worker_count_ < 2) return;  // 1-worker pool: strictly inline
  workers_.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::record_error(Job& job, std::size_t index) {
  std::lock_guard<std::mutex> lock(job.error_mu);
  if (job.error == nullptr || index < job.error_index) {
    job.error = std::current_exception();
    job.error_index = index;
  }
}

void ThreadPool::process(Job& job) {
  while (true) {
    const std::size_t index = job.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.count) return;
    try {
      (*job.body)(index);
    } catch (...) {
      record_error(job, index);
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_main() {
  tl_worker_of = this;
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_generation = 0;
  while (true) {
    cv_work_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen_generation);
    });
    if (stop_) return;
    Job* job = job_;
    seen_generation = generation_;
    ++job->refs;
    lock.unlock();
    process(*job);
    lock.lock();
    if (--job->refs == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Inline paths: serial pool, single task, or a task body re-entering its
  // own pool.  Index order is ascending, matching any multi-worker join.
  if (workers_.empty() || count == 1 || tl_worker_of == this) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_mu_);
  Job job;
  job.body = &body;
  job.count = count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  cv_work_.notify_all();
  // The caller pulls indices too.  While it does, it counts as a worker of
  // this pool so a body that re-enters run() executes inline instead of
  // self-deadlocking on run_mu_.
  const ThreadPool* const prev_worker_of = tl_worker_of;
  tl_worker_of = this;
  process(job);
  tl_worker_of = prev_worker_of;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return job.done == job.count && job.refs == 0; });
    job_ = nullptr;
  }
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->run(count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
}

std::vector<std::byte> BufferPool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) return {};
  std::vector<std::byte> buffer = std::move(free_.back());
  free_.pop_back();
  return buffer;
}

void BufferPool::release(std::vector<std::byte> buffer) {
  if (buffer.capacity() == 0) return;
  buffer.clear();
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.size() >= kMaxRetained) return;  // beyond the bound: just free
  free_.push_back(std::move(buffer));
}

std::size_t BufferPool::pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

BufferPool& BufferPool::shared() {
  static BufferPool pool;
  return pool;
}

}  // namespace ckpt::util
