#ifndef DBA_SERVICE_ADMISSION_H_
#define DBA_SERVICE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include <string_view>

#include "common/status.h"

namespace dba::service {

/// Why a request was shed instead of executed. Every shed path is
/// explicit and typed; the reason labels the
/// dba_service_shed_total{reason=...} counter family.
enum class ShedReason : uint8_t {
  kQueueFull = 0,     // admission overflow -> kUnavailable
  kDeadline = 1,      // deadline expired while queued -> kDeadlineExceeded
  kRateLimited = 2,   // tenant token bucket dry -> kRateLimited
};

inline std::string_view ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kDeadline:
      return "deadline";
    case ShedReason::kRateLimited:
      return "rate_limited";
  }
  return "unknown";
}

/// Bounded admission queue with strict priority ordering: Pop returns
/// the highest-priority item, FIFO within a priority level. A Push
/// beyond capacity is rejected with kUnavailable -- load shedding is
/// always an explicit error to the caller, never a silent drop.
///
/// Not internally synchronized: the owner (QueryService) serializes
/// access under its own mutex, which also guards the condition
/// variables admission interacts with.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Enqueues at `priority` (higher runs first). Fails with
  /// kUnavailable when the queue is at capacity; `item` is untouched.
  Status Push(int priority, T&& item) {
    if (size_ >= capacity_) {
      return Status::Unavailable("admission queue full (capacity " +
                                 std::to_string(capacity_) + ")");
    }
    by_priority_[priority].push_back(std::move(item));
    ++size_;
    return Status::Ok();
  }

  /// Dequeues the oldest item of the highest non-empty priority.
  /// Returns false when empty.
  bool Pop(T* out) {
    if (size_ == 0) return false;
    auto it = by_priority_.begin();  // descending: highest priority first
    *out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) by_priority_.erase(it);
    --size_;
    return true;
  }

  /// Visits every queued item in priority-then-FIFO order (e.g. to find
  /// the oldest enqueue time for the batch window).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [priority, items] : by_priority_) {
      (void)priority;
      for (const T& item : items) fn(item);
    }
  }

  /// Moves every queued item out through `fn` (e.g. failing pending
  /// promises at shutdown) and empties the queue.
  template <typename Fn>
  void ConsumeAll(Fn&& fn) {
    for (auto& [priority, items] : by_priority_) {
      (void)priority;
      for (T& item : items) fn(std::move(item));
    }
    by_priority_.clear();
    size_ = 0;
  }

 private:
  size_t capacity_;
  size_t size_ = 0;
  // Descending priority; deque gives FIFO within a level.
  std::map<int, std::deque<T>, std::greater<int>> by_priority_;
};

}  // namespace dba::service

#endif  // DBA_SERVICE_ADMISSION_H_
