#include "serve/request_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace dbg4eth {
namespace serve {

RequestQueue::RequestQueue(const RequestQueueConfig& config)
    : config_(config) {
  DBG4ETH_CHECK_GE(config.max_batch, 1);
  DBG4ETH_CHECK_GE(config.max_wait_us, 0);
  DBG4ETH_CHECK_GE(config.capacity, 1u);
}

bool RequestQueue::Push(ScoreRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this] {
    return closed_ || queue_.size() < config_.capacity;
  });
  if (closed_) return false;
  queue_.push_back(std::move(request));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

RequestQueue::PushResult RequestQueue::TryPush(ScoreRequest request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (queue_.size() >= config_.capacity) return PushResult::kFull;
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return PushResult::kAccepted;
}

bool RequestQueue::PopBatch(std::vector<ScoreRequest>* out) {
  out->clear();
  std::unique_lock<std::mutex> lock(mu_);
  // A batch another popper is holding open can no longer grow: anything
  // arriving during its wait would come to this popper instead.
  if (++poppers_ > 1 && filling_) not_empty_.notify_all();
  for (;;) {
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) {  // Closed and drained.
      --poppers_;
      return false;
    }
    if (poppers_ == 1) {
      // The lone popper: gather more requests until the batch is full, the
      // wait bound expires, the queue closes, or another popper turns up.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(config_.max_wait_us);
      filling_ = true;
      not_empty_.wait_until(lock, deadline, [this] {
        return closed_ || poppers_ > 1 || queue_.empty() ||
               static_cast<int>(queue_.size()) >= config_.max_batch;
      });
      filling_ = false;
      // Another popper took the forming batch; wait for the next one.
      if (queue_.empty()) continue;
    }
    break;
  }

  const size_t take =
      std::min(queue_.size(), static_cast<size_t>(config_.max_batch));
  out->reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  --poppers_;
  lock.unlock();
  not_full_.notify_all();
  return true;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int RequestQueue::poppers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poppers_;
}

}  // namespace serve
}  // namespace dbg4eth
