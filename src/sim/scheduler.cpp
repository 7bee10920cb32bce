#include "src/sim/scheduler.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

namespace micropnp {

namespace {

constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();
constexpr size_t kArity = 4;

template <typename Entry>
bool Earlier(const Entry& a, const Entry& b) {
  return a.when_ns != b.when_ns ? a.when_ns < b.when_ns : a.sequence < b.sequence;
}

// 4-ary min-heap on (when, sequence): half the depth of a binary heap, and a
// node's children share a cache line or two.
template <typename Entry>
void SiftUp(std::vector<Entry>& heap, size_t i) {
  const Entry moving = heap[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Earlier(moving, heap[parent])) {
      break;
    }
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = moving;
}

template <typename Entry>
void SiftDown(std::vector<Entry>& heap, size_t i) {
  const size_t n = heap.size();
  const Entry moving = heap[i];
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t end = std::min(first + kArity, n);
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap[c], heap[best])) {
        best = c;
      }
    }
    if (!Earlier(heap[best], moving)) {
      break;
    }
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = moving;
}

template <typename Entry>
void PopTop(std::vector<Entry>& heap) {
  heap.front() = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    SiftDown(heap, 0);
  }
}

}  // namespace

Scheduler::EventId Scheduler::ScheduleAt(SimTime when, Action action) {
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  if (when <= now_) {
    due_.push_back(DueEntry{slot, s.generation});  // clamped to now: FIFO lane
  } else {
    heap_.push_back(Entry{when.nanos(), next_sequence_++, slot, s.generation});
    SiftUp(heap_, heap_.size() - 1);
  }
  ++live_;
  ++stats_.scheduled;
  return (EventId{s.generation} << 32) | slot;
}

void Scheduler::Release(uint32_t slot) {
  uint32_t& generation = slots_[slot].generation;
  if (++generation == 0) {
    generation = 1;  // keep id 0 unissued across wraparound
  }
  free_.push_back(slot);
  --live_;
}

bool Scheduler::IsPending(EventId id) const {
  const uint32_t slot = static_cast<uint32_t>(id);
  // A free slot already carries the generation of its next id, so only a
  // non-empty action marks the slot as pending.
  return slot < slots_.size() && slots_[slot].generation == static_cast<uint32_t>(id >> 32) &&
         slots_[slot].action;
}

bool Scheduler::Cancel(EventId id) {
  if (!IsPending(id)) {
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(id);
  slots_[slot].action = nullptr;  // destroy the closure now, not when its entry surfaces
  Release(slot);
  ++stats_.cancelled;
  MaybeCompact();
  return true;
}

void Scheduler::MaybeCompact() {
  const size_t tombstones = heap_.size() + (due_.size() - due_head_) - live_;
  if (tombstones <= kCompactFloor || tombstones <= live_) {
    return;
  }
  std::erase_if(heap_, [this](const Entry& e) { return !IsLive(e); });
  for (size_t i = heap_.size(); i-- > 0;) {
    SiftDown(heap_, i);  // bottom-up heapify (a leaf's sift is a no-op)
  }
  due_.erase(due_.begin(), due_.begin() + static_cast<std::ptrdiff_t>(due_head_));
  due_head_ = 0;
  std::erase_if(due_, [this](const DueEntry& e) { return !IsLive(e); });  // keeps FIFO order
  ++stats_.compactions;
}

void Scheduler::PopDue() {
  if (++due_head_ == due_.size()) {
    due_.clear();  // the lane drains before every clock advance
    due_head_ = 0;
  }
}

bool Scheduler::LiveTopBy(uint64_t limit_ns) {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    PopTop(heap_);
  }
  while (due_head_ < due_.size() && !IsLive(due_[due_head_])) {
    PopDue();
  }
  if (due_head_ < due_.size()) {
    return now_.nanos() <= limit_ns;  // the next event is due now, lane or heap
  }
  return !heap_.empty() && heap_.front().when_ns <= limit_ns;
}

void Scheduler::ExecuteTop() {
  uint32_t slot;
  if (due_head_ == due_.size() || (!heap_.empty() && heap_.front().when_ns == now_.nanos())) {
    // A heap entry due now was scheduled before the clock got here, so it
    // runs ahead of the whole lane.
    slot = heap_.front().slot;
    now_ = SimTime::FromNanos(heap_.front().when_ns);
    PopTop(heap_);
  } else {
    slot = due_[due_head_].slot;
    PopDue();
    ++stats_.immediate;
  }
  Action action = std::move(slots_[slot].action);
  slots_[slot].action = nullptr;
  Release(slot);
  MaybeCompact();
  ++executed_;
  action();
}

bool Scheduler::Step() {
  if (!LiveTopBy(kNoLimit)) {
    return false;
  }
  ExecuteTop();
  return true;
}

size_t Scheduler::Run() {
  size_t count = 0;
  while (Step()) {
    ++count;
  }
  return count;
}

size_t Scheduler::RunUntil(SimTime deadline) {
  size_t count = 0;
  while (LiveTopBy(deadline.nanos())) {
    ExecuteTop();
    ++count;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return count;
}

}  // namespace micropnp
