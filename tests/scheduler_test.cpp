// Differential and algorithmic tests for the heap Scheduler.
//
// The scheduler (src/sim/scheduler.h) must be observationally identical to
// the seed heap (src/sim/reference_scheduler.h): same execution order, same
// clock, same executed()/pending() counts, same Cancel() verdicts — for any
// trace of ScheduleAt / ScheduleAfter / Cancel / Step / RunUntil / Run,
// including actions that schedule or cancel from inside the callback,
// bursts of far-future timers that are mostly cancelled (the lazy-cancel
// compaction path), and same-instant clusters whose callbacks queue and
// cancel zero-delay chains while earlier entries at that instant are still
// in the heap (the due-now lane).  The property test below replays >= 1000
// seeded random traces against both.
//
// The algorithmic half pins the scheduler's complexity and memory: a 100k
// schedule+cancel workload must finish in time linear in the operation count
// (the seed's linear-scan tombstone vector was quadratic here), and the heap
// may never hold more than 2 * pending + kCompactFloor entries, tombstones
// included.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/reference_scheduler.h"
#include "src/sim/scheduler.h"

namespace micropnp {
namespace {

// ---------------------------------------------------------- deterministic ---

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromMillis(5.0);
  s.ScheduleAt(t, [&] { order.push_back(1); });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  EXPECT_EQ(s.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), t);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler s;
  s.ScheduleAt(SimTime::FromMillis(10.0), [] {});
  s.RunUntil(SimTime::FromMillis(20.0));
  std::vector<int> order;
  s.ScheduleAt(SimTime::FromMillis(3.0), [&] { order.push_back(1); });  // in the past
  s.ScheduleAfter(SimTime::FromNanos(0), [&] { order.push_back(2); });
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), SimTime::FromMillis(20.0));
}

TEST(SchedulerTest, RunUntilIsInclusiveAndAdvancesClock) {
  Scheduler s;
  int ran = 0;
  s.ScheduleAt(SimTime::FromMillis(10.0), [&] { ++ran; });
  s.ScheduleAt(SimTime::FromMillis(10.0) + SimTime::FromNanos(1), [&] { ++ran; });
  EXPECT_EQ(s.RunUntil(SimTime::FromMillis(10.0)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), SimTime::FromMillis(10.0));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, CancelRemovesPendingEvent) {
  Scheduler s;
  int ran = 0;
  Scheduler::EventId id = s.ScheduleAt(SimTime::FromMillis(1.0), [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // already cancelled
  EXPECT_EQ(s.Run(), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, CancelAfterExecutionReturnsFalse) {
  Scheduler s;
  Scheduler::EventId id = s.ScheduleAt(SimTime::FromMillis(1.0), [] {});
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_FALSE(s.Cancel(id));
}

TEST(SchedulerTest, FarFutureEventsBeyondWheelSpanStillRun) {
  // Times past 2^60 ns (where the former timing wheel spilled into an
  // overflow map) order like any other.
  Scheduler s;
  const uint64_t span_ns = uint64_t{1} << 60;
  int ran = 0;
  s.ScheduleAt(SimTime::FromNanos(span_ns + 12345), [&] { ++ran; });
  s.ScheduleAt(SimTime::FromNanos(17), [&] { ++ran; });
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), SimTime::FromNanos(span_ns + 12345));
}

TEST(SchedulerTest, CancelThenCascadePreservesFifoAtSlotAlignedTimes) {
  // A cancelled entry's tombstone among equal-time entries must not disturb
  // the survivors' FIFO order.
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromNanos(64);
  const Scheduler::EventId first = s.ScheduleAt(t, [&] { order.push_back(1); });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  EXPECT_TRUE(s.Cancel(first));
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));

  // Larger pattern at a whole-millisecond time, with cancels interleaved
  // through the batch.
  order.clear();
  const SimTime t2 = SimTime::FromMillis(5.0);
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(s.ScheduleAt(t2, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 16; i += 3) {
    EXPECT_TRUE(s.Cancel(ids[i]));
  }
  EXPECT_EQ(s.Run(), 10u);
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, CancelThenOverflowMigrationPreservesFifo) {
  // Same corner at 2^60 ns.
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromNanos(uint64_t{1} << 60);
  const Scheduler::EventId first = s.ScheduleAt(t, [&] { order.push_back(1); });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  EXPECT_TRUE(s.Cancel(first));
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(SchedulerTest, ActionsCanScheduleAndCancelReentrantly) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::EventId victim = s.ScheduleAt(SimTime::FromMillis(5.0), [&] { order.push_back(99); });
  s.ScheduleAt(SimTime::FromMillis(1.0), [&] {
    order.push_back(1);
    EXPECT_TRUE(s.Cancel(victim));
    s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { order.push_back(2); });
    s.ScheduleAfter(SimTime::FromNanos(0), [&] { order.push_back(3); });  // same-instant
  });
  EXPECT_EQ(s.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SchedulerTest, IdsAreNonzeroAndCancelZeroIsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.Cancel(0));
  const Scheduler::EventId id = s.ScheduleAfter(SimTime::FromMillis(1.0), [] {});
  EXPECT_NE(id, 0u);
  EXPECT_FALSE(s.Cancel(0));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.Cancel(~uint64_t{0}));  // slot out of range
  EXPECT_EQ(s.Run(), 1u);
}

TEST(SchedulerTest, StaleIdIsRejectedAfterItsSlotIsReused) {
  Scheduler s;
  int ran = 0;
  const Scheduler::EventId cancelled = s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(cancelled));
  const Scheduler::EventId reused = s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { ++ran; });
  // Same slot (low 32 bits), new generation.
  EXPECT_EQ(static_cast<uint32_t>(reused), static_cast<uint32_t>(cancelled));
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(s.Cancel(cancelled));
  EXPECT_EQ(s.pending(), 1u);

  // The same holds for an id whose event ran.
  EXPECT_EQ(s.Run(), 1u);
  const Scheduler::EventId next = s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { ++ran; });
  EXPECT_EQ(static_cast<uint32_t>(next), static_cast<uint32_t>(reused));
  EXPECT_FALSE(s.Cancel(reused));
  EXPECT_TRUE(s.Cancel(next));
  EXPECT_EQ(s.Run(), 0u);
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, CancelDestroysTheClosureImmediately) {
  // Captured buffers (e.g. a received driver image) must be freed at
  // Cancel, not when the cancelled entry would have come due.
  Scheduler s;
  auto payload = std::make_shared<int>(7);
  const Scheduler::EventId id =
      s.ScheduleAfter(SimTime::FromMillis(1000.0), [payload] { (void)payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(s.stats().held, 1u);  // the tombstone stays until it surfaces

  s.ScheduleAfter(SimTime::FromMillis(1.0), [payload] { (void)payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_EQ(payload.use_count(), 1);  // and an executed one after it ran
  EXPECT_EQ(s.stats().held, 0u);
}

TEST(SchedulerTest, DueNowLaneRunsAfterEarlierEntriesAtTheSameInstant) {
  // Entries at t scheduled before the clock reached t precede every
  // zero-delay event scheduled at t, and RunUntil(t) drains the lane.
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromMillis(5.0);
  s.ScheduleAt(t, [&] {
    order.push_back(1);
    s.ScheduleAfter(SimTime::FromNanos(0), [&] {
      order.push_back(4);
      s.ScheduleAt(t, [&] { order.push_back(6); });  // chained, still due at t
    });
    s.ScheduleAt(SimTime::FromMillis(1.0), [&] { order.push_back(5); });  // past: clamps to t
  });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  s.ScheduleAt(t + SimTime::FromNanos(1), [&] { order.push_back(7); });
  EXPECT_EQ(s.RunUntil(t), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(s.now(), t);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.stats().immediate, 3u);
  EXPECT_EQ(s.stats().held, 1u);
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_EQ(order.back(), 7);
  EXPECT_EQ(s.stats().immediate, 3u);
}

TEST(SchedulerTest, CancelledLaneEntriesAreSweptAndSurvivorsStayFifo) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(SimTime::FromMillis(1.0), [&] {
    std::vector<Scheduler::EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(s.ScheduleAfter(SimTime::FromNanos(0), [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 10 != 0) {
        EXPECT_TRUE(s.Cancel(ids[i]));
        EXPECT_LE(s.stats().held, 2 * s.pending() + Scheduler::kCompactFloor) << i;
      }
    }
  });
  EXPECT_EQ(s.Run(), 101u);
  std::vector<int> expected;
  for (int i = 0; i < 1000; i += 10) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_GT(s.stats().compactions, 0u);
  EXPECT_EQ(s.stats().immediate, 100u);
  EXPECT_EQ(s.stats().held, 0u);
}

// ----------------------------------------------------------- differential ---

// Applies an identical random trace to both schedulers, comparing every
// observable after every operation.  The two issue different EventIds (the
// reference counts from 1; the heap encodes generation and slot), so ids are
// paired by issue index: Cancel() targets ids[pick] in each replica.
template <typename S>
struct Replica {
  S sched;
  std::vector<uint64_t> log;             // tags of executed events, in order
  std::vector<typename S::EventId> ids;  // top-level events, for Cancel
  std::vector<uint64_t> tags;            // tag of ids[i]
  std::unordered_map<uint64_t, typename S::EventId> live;  // pending: tag -> id
  // Zero-delay chain links: tags from their own range, issued in execution
  // order (so equal across replicas that agree), and each link's victim.
  uint64_t next_link_tag = uint64_t{1} << 62;
  std::unordered_map<uint64_t, std::pair<uint64_t, typename S::EventId>> victims;

  // Every new id must be nonzero and distinct from every pending event's id.
  void Issued(uint64_t tag, typename S::EventId id) {
    ASSERT_NE(id, 0u);
    for (const auto& [other_tag, other] : live) {
      ASSERT_NE(id, other) << "id of pending tag " << other_tag << " reissued";
    }
    live.emplace(tag, id);
  }

  // Queues a zero-delay chain of `depth` + 1 links.  With `victim`, each link
  // also queues a victim right behind its successor; the successor cancels
  // it while it still waits in the due-now lane, and logs the verdict.
  void Link(uint64_t depth, bool victim) {
    const uint64_t tag = next_link_tag++;
    Issued(tag, sched.ScheduleAfter(SimTime::FromNanos(0), [this, tag, depth, victim] {
      log.push_back(tag);
      live.erase(tag);
      if (auto it = victims.find(tag); it != victims.end()) {
        const auto [victim_tag, victim_id] = it->second;
        victims.erase(it);
        if (sched.Cancel(victim_id)) {
          log.push_back(victim_tag | (uint64_t{1} << 61));
          live.erase(victim_tag);
        }
      }
      if (depth == 0) {
        return;
      }
      const uint64_t successor = next_link_tag;
      Link(depth - 1, victim);
      if (victim) {
        const uint64_t victim_tag = next_link_tag++;
        const auto id = sched.ScheduleAfter(SimTime::FromNanos(0), [this, victim_tag] {
          log.push_back(victim_tag);
          live.erase(victim_tag);
        });
        Issued(victim_tag, id);
        victims[successor] = {victim_tag, id};
      }
    }));
  }
};

// Returns the production scheduler's stats at the end of the trace.
SchedulerStats RunTrace(uint64_t seed) {
  Replica<Scheduler> prod;
  Replica<ReferenceScheduler> ref;
  Rng rng(seed);

  uint64_t next_tag = 1;
  // Schedules one top-level event in each replica.  Some actions schedule a
  // follow-up from inside the callback.
  auto schedule = [&](bool absolute, SimTime when, uint64_t delay_ns) {
    const uint64_t tag = next_tag++;
    const bool nested = rng.Bernoulli(0.2);
    const uint64_t nested_delay = rng.UniformInt(0, 1'000'000);
    auto make_action = [&](auto& replica) {
      auto* r = &replica;
      return [r, tag, nested, nested_delay] {
        r->log.push_back(tag);
        r->live.erase(tag);
        if (nested) {
          const uint64_t nested_tag = tag | (uint64_t{1} << 63);
          r->Issued(nested_tag,
                    r->sched.ScheduleAfter(SimTime::FromNanos(nested_delay), [r, nested_tag] {
                      r->log.push_back(nested_tag);
                      r->live.erase(nested_tag);
                    }));
        }
      };
    };
    auto issue = [&](auto& replica) {
      const auto id = absolute ? replica.sched.ScheduleAt(when, make_action(replica))
                               : replica.sched.ScheduleAfter(SimTime::FromNanos(delay_ns),
                                                             make_action(replica));
      replica.ids.push_back(id);
      replica.tags.push_back(tag);
      replica.Issued(tag, id);
    };
    issue(prod);
    issue(ref);
  };
  // A same-instant cluster member: when it runs it starts a zero-delay chain
  // while its later siblings still wait in the heap at the same time.
  auto schedule_cluster_member = [&](SimTime when, uint64_t depth, bool victim) {
    const uint64_t tag = next_tag++;
    auto issue = [&](auto& replica) {
      auto* r = &replica;
      const auto id = replica.sched.ScheduleAt(when, [r, tag, depth, victim] {
        r->log.push_back(tag);
        r->live.erase(tag);
        r->Link(depth, victim);
      });
      replica.ids.push_back(id);
      replica.tags.push_back(tag);
      replica.Issued(tag, id);
    };
    issue(prod);
    issue(ref);
  };
  auto cancel = [&](size_t pick) {
    const bool cancelled = prod.sched.Cancel(prod.ids[pick]);
    EXPECT_EQ(cancelled, ref.sched.Cancel(ref.ids[pick])) << "seed " << seed << " pick " << pick;
    if (cancelled) {
      prod.live.erase(prod.tags[pick]);
      ref.live.erase(ref.tags[pick]);
    }
  };

  const int ops = static_cast<int>(rng.UniformInt(20, 120));
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.UniformInt(0, 99);
    if (kind < 43) {  // schedule
      // Mostly near-future delays; occasionally zero-delay, far-future, or
      // beyond 2^60 ns.
      uint64_t delay_ns;
      const uint64_t shape = rng.UniformInt(0, 9);
      bool align64 = false;
      if (shape == 0) {
        delay_ns = 0;
      } else if (shape == 1) {
        delay_ns = rng.UniformInt(uint64_t{1} << 40, uint64_t{1} << 45);
      } else if (shape == 2) {
        delay_ns = (uint64_t{1} << 60) + rng.UniformInt(0, 1u << 20);
      } else if (shape == 3) {
        // 64-aligned absolute targets: equal-time batches.
        delay_ns = rng.UniformInt(0, 1'000'000);
        align64 = true;
      } else {
        delay_ns = rng.UniformInt(0, 10'000'000);  // <= 10 ms
      }
      const bool absolute = align64 || rng.Bernoulli(0.3);
      SimTime when = prod.sched.now() + SimTime::FromNanos(delay_ns);
      if (align64) {
        when = SimTime::FromNanos(when.nanos() & ~uint64_t{63});  // may clamp to now
      }
      schedule(absolute, when, delay_ns);
    } else if (kind < 45) {
      // Burst of far-future timers (more than the compaction floor), most of
      // them cancelled again in random order: the request-deadline pattern
      // that drives lazy cancel into compaction.
      const size_t first = prod.ids.size();
      const size_t burst = Scheduler::kCompactFloor + rng.UniformInt(8, 96);
      for (size_t i = 0; i < burst; ++i) {
        const uint64_t delay_ns = rng.UniformInt(uint64_t{1} << 30, uint64_t{1} << 40);
        schedule(false, SimTime(), delay_ns);
      }
      std::vector<size_t> victims;
      for (size_t i = first; i < prod.ids.size(); ++i) {
        if (!rng.Bernoulli(0.1)) {
          victims.push_back(i);
        }
      }
      for (size_t i = victims.size(); i > 1; --i) {
        std::swap(victims[i - 1], victims[rng.UniformInt(0, i - 1)]);
      }
      for (size_t pick : victims) {
        cancel(pick);
      }
    } else if (kind < 50) {
      // Same-instant cluster, at now (all in the lane) or a little later
      // (heap entries that precede the lane once the clock gets there).
      const SimTime when =
          prod.sched.now() + SimTime::FromNanos(rng.Bernoulli(0.25) ? 0 : rng.UniformInt(1, 2000));
      const uint64_t members = rng.UniformInt(2, 6);
      for (uint64_t i = 0; i < members; ++i) {
        schedule_cluster_member(when, rng.UniformInt(0, 3), rng.Bernoulli(0.5));
      }
    } else if (kind < 60) {  // cancel a previously issued id (maybe stale)
      if (!prod.ids.empty()) {
        cancel(rng.UniformInt(0, prod.ids.size() - 1));
      }
    } else if (kind < 75) {  // step
      EXPECT_EQ(prod.sched.Step(), ref.sched.Step()) << "seed " << seed << " op " << op;
    } else if (kind < 95) {  // bounded run
      const uint64_t horizon = rng.UniformInt(0, 20'000'000);
      const SimTime deadline = prod.sched.now() + SimTime::FromNanos(horizon);
      EXPECT_EQ(prod.sched.RunUntil(deadline), ref.sched.RunUntil(deadline))
          << "seed " << seed << " op " << op;
    } else {  // full drain
      EXPECT_EQ(prod.sched.Run(), ref.sched.Run()) << "seed " << seed << " op " << op;
    }
    if (::testing::Test::HasFailure()) {
      return {};
    }
    EXPECT_EQ(prod.sched.now().nanos(), ref.sched.now().nanos()) << "seed " << seed << " op " << op;
    EXPECT_EQ(prod.sched.pending(), ref.sched.pending()) << "seed " << seed << " op " << op;
    EXPECT_EQ(prod.sched.pending(), prod.live.size()) << "seed " << seed << " op " << op;
    EXPECT_EQ(prod.sched.executed(), ref.sched.executed()) << "seed " << seed << " op " << op;
    EXPECT_EQ(prod.log, ref.log) << "seed " << seed << " op " << op;
    EXPECT_LE(prod.sched.stats().held, 2 * prod.sched.pending() + Scheduler::kCompactFloor)
        << "seed " << seed << " op " << op;
    if (::testing::Test::HasFailure()) {
      return {};
    }
  }
  // Drain completely: the tail must agree too.
  EXPECT_EQ(prod.sched.Run(), ref.sched.Run()) << "seed " << seed;
  EXPECT_EQ(prod.log, ref.log) << "seed " << seed;
  EXPECT_TRUE(prod.sched.empty());
  EXPECT_EQ(prod.sched.stats().held, 0u) << "seed " << seed;
  EXPECT_EQ(prod.sched.now().nanos(), ref.sched.now().nanos()) << "seed " << seed;
  return prod.sched.stats();
}

TEST(SchedulerDifferentialTest, MatchesReferenceSchedulerOnRandomTraces) {
  uint64_t compactions = 0;
  uint64_t immediate = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    const SchedulerStats stats = RunTrace(seed);
    compactions += stats.compactions;
    immediate += stats.immediate;
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // The burst shape must actually reach the compaction path, and the
  // cluster and zero-delay shapes the due-now lane.
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(immediate, 0u);
}

// ------------------------------------------------------------- complexity ---

TEST(SchedulerLinearityTest, HundredThousandScheduleCancelIsLinear) {
  constexpr int kOps = 100'000;
  Scheduler s;
  Rng rng(0x5eed);
  std::vector<Scheduler::EventId> ids;
  ids.reserve(kOps);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    ids.push_back(s.ScheduleAfter(SimTime::FromNanos(rng.UniformInt(1, 100'000'000)), [] {}));
  }
  size_t max_excess = 0;  // held - (2 * pending + floor), when positive
  for (Scheduler::EventId id : ids) {
    EXPECT_TRUE(s.Cancel(id));
    const size_t bound = 2 * s.pending() + Scheduler::kCompactFloor;
    max_excess = std::max(max_excess, s.stats().held > bound ? s.stats().held - bound : 0);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  const SchedulerStats stats = s.stats();
  EXPECT_EQ(stats.scheduled, static_cast<uint64_t>(kOps));
  EXPECT_EQ(stats.cancelled, static_cast<uint64_t>(kOps));
  // Tombstones stay O(pending): the deterministic memory witness (the seed
  // implementation also did O(pending) work per Cancel here, ~10^10
  // operations for this workload).
  EXPECT_EQ(max_excess, 0u);
  EXPECT_LE(stats.held, Scheduler::kCompactFloor);
  EXPECT_GT(stats.compactions, 0u);
  // Each compaction at least halves the heap, so their number is
  // logarithmic in the operation count.
  EXPECT_LE(stats.compactions, 64u);
  // Generous wall-clock ceiling: linear runs in well under a second even
  // under sanitizers; the quadratic seed took minutes.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 20.0);

  // The scheduler must still be fully functional afterwards.
  int ran = 0;
  s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { ++ran; });
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerLinearityTest, InterleavedScheduleCancelExecuteStaysBounded) {
  // Mixed workload: schedule bursts, cancel half, drain by deadline — the
  // gateway endpoint's timer pattern (every request arms a timer; most are
  // cancelled on completion, few fire).  The heap's size, tombstones
  // included, stays within 2 * pending + kCompactFloor after every round.
  constexpr int kRounds = 200;
  constexpr int kPerRound = 500;
  Scheduler s;
  Rng rng(0xcafe);
  uint64_t fired = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Scheduler::EventId> ids;
    ids.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(s.ScheduleAfter(SimTime::FromNanos(rng.UniformInt(1, 2'000'000'000)),
                                    [&] { ++fired; }));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      s.Cancel(ids[i]);
    }
    s.RunUntil(s.now() + SimTime::FromMillis(100.0));
    EXPECT_LE(s.stats().held, 2 * s.pending() + Scheduler::kCompactFloor) << "round " << round;
  }
  s.Run();
  const uint64_t total_ops = uint64_t{kRounds} * kPerRound;
  EXPECT_EQ(s.stats().scheduled, total_ops);
  EXPECT_EQ(fired + s.stats().cancelled, total_ops);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.stats().held, 0u);
}

}  // namespace
}  // namespace micropnp
