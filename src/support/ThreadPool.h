//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool in the shape of HotSpot's GC task
/// manager: a fixed set of workers, per-worker Chase-Lev deques, and two
/// entry points -- run() for a work-stealing parallel loop over task
/// indices, and runOnWorkers() for barrier-style parallel regions where
/// each worker executes one long-lived body (the form the collector's
/// scavenge phases use).
///
/// Design constraints:
///   * Worker ids are stable: id W maps to the same OS thread across every
///     region, so owner-only data structures (deques, PLAB cursors, tally
///     counters) can be indexed by worker id and carried between regions.
///   * The caller participates as worker 0; a pool of one worker never
///     spawns a thread and degenerates to plain serial execution.
///   * Nested regions execute inline and serially, so code that is reached
///     both from inside and outside a region behaves identically.
///   * ThreadSanitizer-clean: the deque is the seq_cst formulation of
///     Chase-Lev (no standalone fences, which TSan does not model) and
///     elements live in std::atomic slots.
///
/// Task bodies must not throw: an escaping exception would unwind a worker
/// thread. Callers that can fail capture their error state and rethrow
/// after the region joins.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_SUPPORT_THREADPOOL_H
#define PANTHERA_SUPPORT_THREADPOOL_H

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace panthera {
namespace support {

/// Chase-Lev work-stealing deque (Chase & Lev, SPAA '05). The owning
/// worker pushes and pops at the bottom; any other thread steals from the
/// top. Grows by doubling; old buffers are retired (not freed) until the
/// deque is destroyed because a concurrent thief may still be reading one.
template <typename T> class ChaseLevDeque {
public:
  explicit ChaseLevDeque(size_t InitialCapacity = 64) {
    size_t Cap = 8;
    while (Cap < InitialCapacity)
      Cap *= 2;
    Buf.store(new Buffer(Cap), std::memory_order_relaxed);
  }

  ~ChaseLevDeque() { delete Buf.load(std::memory_order_relaxed); }

  ChaseLevDeque(const ChaseLevDeque &) = delete;
  ChaseLevDeque &operator=(const ChaseLevDeque &) = delete;

  /// Owner-only: pushes \p V at the bottom.
  void push(T V) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_acquire);
    Buffer *A = Buf.load(std::memory_order_relaxed);
    if (B - Tp >= static_cast<int64_t>(A->Cap))
      A = grow(A, Tp, B);
    A->slot(B).store(V, std::memory_order_relaxed);
    Bottom.store(B + 1, std::memory_order_seq_cst);
  }

  /// Owner-only: pops the most recently pushed element.
  bool pop(T &Out) {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Buffer *A = Buf.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_seq_cst);
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    if (Tp < B) {
      Out = A->slot(B).load(std::memory_order_relaxed);
      return true;
    }
    bool Got = false;
    if (Tp == B) {
      // Last element: race the thieves for it via the top counter.
      Out = A->slot(B).load(std::memory_order_relaxed);
      Got = Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
    }
    Bottom.store(B + 1, std::memory_order_seq_cst);
    return Got;
  }

  /// Any thread: steals the oldest element.
  bool steal(T &Out) {
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (Tp >= B)
      return false;
    Buffer *A = Buf.load(std::memory_order_acquire);
    T V = A->slot(Tp).load(std::memory_order_relaxed);
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return false;
    Out = V;
    return true;
  }

  bool empty() const {
    return Top.load(std::memory_order_seq_cst) >=
           Bottom.load(std::memory_order_seq_cst);
  }

private:
  struct Buffer {
    explicit Buffer(size_t C)
        : Cap(C), Slots(std::make_unique<std::atomic<T>[]>(C)) {}
    size_t Cap;
    std::unique_ptr<std::atomic<T>[]> Slots;
    std::atomic<T> &slot(int64_t I) {
      return Slots[static_cast<size_t>(I) & (Cap - 1)];
    }
  };

  /// Owner-only: doubles the buffer, copying the live range [Tp, B).
  Buffer *grow(Buffer *A, int64_t Tp, int64_t B) {
    Buffer *N = new Buffer(A->Cap * 2);
    for (int64_t I = Tp; I < B; ++I)
      N->slot(I).store(A->slot(I).load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    Buf.store(N, std::memory_order_release);
    Retired.emplace_back(A);
    return N;
  }

  std::atomic<int64_t> Top{0};
  std::atomic<int64_t> Bottom{0};
  std::atomic<Buffer *> Buf{nullptr};
  std::vector<std::unique_ptr<Buffer>> Retired;
};

/// The GC worker pool. One instance per Runtime, sized by
/// RuntimeConfig::NumThreads; injected into the Collector.
class WorkStealingPool {
public:
  /// \p NumWorkers includes the caller; 0 is treated as 1.
  explicit WorkStealingPool(unsigned NumWorkers);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool &) = delete;
  WorkStealingPool &operator=(const WorkStealingPool &) = delete;

  unsigned numWorkers() const { return Workers; }

  /// Barrier-style parallel region: every worker W in [0, numWorkers())
  /// runs Fn(W) exactly once; returns after all of them finish. The caller
  /// runs worker 0's share. Nested calls execute inline and serially.
  void runOnWorkers(const std::function<void(unsigned)> &Fn);

  /// Work-stealing parallel loop: runs Fn(Task, Worker) for every Task in
  /// [0, NumTasks), distributed over per-worker deques with stealing.
  /// Returns after every task has finished.
  void run(size_t NumTasks, const std::function<void(size_t, unsigned)> &Fn);

private:
  void startThreads();
  void workerLoop(unsigned Id);

  unsigned Workers;
  std::vector<std::thread> Threads;
  bool ThreadsStarted = false;

  std::mutex M;
  std::condition_variable JobCv;
  std::condition_variable DoneCv;
  uint64_t JobGen = 0;
  const std::function<void(unsigned)> *Job = nullptr;
  unsigned Outstanding = 0;
  bool ShuttingDown = false;
};

/// The worker count RuntimeConfig::NumThreads == 0 ("auto") resolves to:
/// the PANTHERA_THREADS environment variable if set, otherwise
/// std::thread::hardware_concurrency().
unsigned resolveAutoThreads();

} // namespace support
} // namespace panthera

#endif // PANTHERA_SUPPORT_THREADPOOL_H
