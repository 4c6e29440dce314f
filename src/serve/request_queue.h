#ifndef DBG4ETH_SERVE_REQUEST_QUEUE_H_
#define DBG4ETH_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Micro-batching parameters.
struct RequestQueueConfig {
  /// Dispatch as soon as this many requests have accumulated...
  int max_batch = 16;
  /// ...or once this long has passed since the batch started forming,
  /// whichever comes first. The wait applies only while no other popper
  /// is idle inside PopBatch: an idle popper would take any request that
  /// arrives meanwhile, so holding the batch could not grow it.
  int64_t max_wait_us = 2000;
  /// Bound on queued (not yet popped) requests; Push blocks beyond it.
  size_t capacity = 4096;
};

/// \brief Bounded MPMC request queue with micro-batching on the pop side.
///
/// Producers `Push` single requests; the service's workers each
/// `PopBatch` up to `max_batch` of them. A lone popper waits at most
/// `max_wait_us` from the moment the first request of the forming batch is
/// visible — so a full batch dispatches immediately and a lone request
/// dispatches after the wait bound, trading a little latency for amortized
/// dispatch. When another popper is (or becomes) idle, the forming batch
/// ships at once instead: the idle popper would take anything that
/// arrives during the wait, so waiting only delays the batch.
class RequestQueue {
 public:
  explicit RequestQueue(const RequestQueueConfig& config);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueues one request, blocking while the queue is at capacity.
  /// Returns false (request not enqueued) once the queue is closed.
  bool Push(ScoreRequest request);

  /// Outcome of a non-blocking TryPush.
  enum class PushResult {
    kAccepted,  ///< Enqueued.
    kFull,      ///< Queue at capacity — admission control should shed.
    kClosed,    ///< Queue closed — service shutting down.
  };

  /// Non-blocking Push for admission control: never waits on capacity.
  /// On kFull / kClosed the request (and its promise) is destroyed.
  PushResult TryPush(ScoreRequest request);

  /// Blocks until a batch is ready (max_batch requests available, the
  /// first request's age >= max_wait_us, or another popper idle), fills
  /// `out` with 1..max_batch requests and returns true — never an empty
  /// batch: a popper whose forming batch another popper took goes back to
  /// waiting. Returns false only when the queue is closed and fully
  /// drained. Safe to call from any number of threads.
  bool PopBatch(std::vector<ScoreRequest>* out);

  /// Rejects further Pushes and wakes every waiter. Requests already
  /// queued remain poppable until drained.
  void Close();

  bool closed() const;
  size_t size() const;
  /// Threads currently blocked inside PopBatch.
  int poppers() const;
  const RequestQueueConfig& config() const { return config_; }

 private:
  const RequestQueueConfig config_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<ScoreRequest> queue_;
  bool closed_ = false;
  int poppers_ = 0;       ///< Threads inside PopBatch.
  bool filling_ = false;  ///< A lone popper is waiting for its batch to fill.
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_REQUEST_QUEUE_H_
