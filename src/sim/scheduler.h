// Discrete-event scheduler: a 4-ary min-heap over a slab of actions.
//
// Events are closures ordered by (time, insertion sequence).  Equal-time
// events run in FIFO order, which keeps the simulation deterministic.
//
// Each pending event owns a slab slot (its action plus a generation counter);
// freed slots are recycled through a free list.  The heap holds small
// (when, sequence, slot, generation) entries.  An EventId is
// `generation << 32 | slot`; generations start at 1, so id 0 is never issued
// and callers may use it as "no event".
//
// An event due at the current time (zero delay, or a past time clamped to
// now) skips the heap: it joins the back of a FIFO lane of due-now events.
// Every heap entry due now was scheduled before the clock reached now, so it
// precedes every lane entry in (time, sequence) order.  The scheduler
// therefore runs the heap top while it is due now, then the lane, and only
// then advances the clock — exactly the heap's own order, minus a push and a
// pop per same-instant event.
//
// Cancel() is lazy: it destroys the closure at once (releasing whatever it
// captured), bumps the slot's generation and frees the slot, but leaves the
// heap or lane entry behind as a tombstone, skipped when it reaches the
// front.  When tombstones outnumber live entries (above kCompactFloor) one
// linear pass sweeps both queues, so memory stays O(pending events) and
// Cancel amortised O(1).
//
// tests/scheduler_test.cpp checks execution order differentially against
// ReferenceScheduler (src/sim/reference_scheduler.h).

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/clock.h"

namespace micropnp {

// Cheap monotonic probes of the scheduler's work, used by the complexity
// tests.  `held` is a snapshot: heap and lane entries, tombstones included.
struct SchedulerStats {
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  uint64_t compactions = 0;  // tombstone sweeps of the heap and lane
  uint64_t immediate = 0;    // events run from the due-now lane
  size_t held = 0;
};

class Scheduler {
 public:
  using Action = std::function<void()>;
  using EventId = uint64_t;

  // Tombstones below this count are never swept: compaction runs only when
  // they exceed both this floor and the number of live events.
  static constexpr size_t kCompactFloor = 64;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  // Schedules `action` to run at absolute time `when` (clamped to now).
  // Returns a nonzero id usable with Cancel().
  EventId ScheduleAt(SimTime when, Action action);

  // Schedules `action` to run `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  // Cancels a pending event.  Returns false if it already ran or is unknown.
  bool Cancel(EventId id);

  // True while `id` is scheduled and has neither run nor been cancelled.
  bool IsPending(EventId id) const;

  // Runs events until the queue drains.  Returns the number of events run.
  size_t Run();

  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to `deadline`.  Returns the number of events run.
  size_t RunUntil(SimTime deadline);

  // Runs a single event if one is pending.  Returns true if an event ran.
  bool Step();

  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }

  // Total events executed since construction (for sanity checks in tests).
  uint64_t executed() const { return executed_; }

  SchedulerStats stats() const {
    SchedulerStats stats = stats_;
    stats.held = heap_.size() + (due_.size() - due_head_);
    return stats;
  }

 private:
  struct Entry {
    uint64_t when_ns;
    uint64_t sequence;
    uint32_t slot;
    uint32_t generation;
  };
  // A due-now lane entry; its time is now_ and FIFO position is its order.
  struct DueEntry {
    uint32_t slot;
    uint32_t generation;
  };
  struct Slot {
    Action action;
    uint32_t generation = 1;
  };

  template <typename E>
  bool IsLive(const E& entry) const {
    return slots_[entry.slot].generation == entry.generation;
  }
  // Invalidates the slot's outstanding id and returns it to the free list.
  void Release(uint32_t slot);
  // Sweeps tombstones once they outnumber live entries (above the floor).
  void MaybeCompact();
  // Consumes the lane front; a drained lane restarts at index 0.
  void PopDue();
  // Pops tombstones off both fronts; true if a live event due by `limit_ns`
  // is next.
  bool LiveTopBy(uint64_t limit_ns);
  // Runs the next event (caller checked LiveTopBy): the heap top if it is due
  // now or the lane is empty, otherwise the lane front.
  void ExecuteTop();

  SimTime now_;
  uint64_t next_sequence_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  std::vector<Entry> heap_;    // min-heap on (when_ns, sequence)
  std::vector<DueEntry> due_;  // FIFO lane of events due at now_, from due_head_
  size_t due_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  SchedulerStats stats_;
};

}  // namespace micropnp

#endif  // SRC_SIM_SCHEDULER_H_
