// The SoA transit store in isolation, against the ordering oracle every
// engine transit store has had to match: per destination, a binary min-heap
// over (deliver_at, seq) plus a FIFO of items the consumer deferred, which
// are retried first on the next drain. Structural tests pin one behavior
// each — band boundaries, same-tick ordering across bands, deferral,
// re-entrant pushes, crash cleanup — and the property test runs them all at
// once under long random schedules, which is where band-interaction bugs
// would live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/soa_transit.hpp"

namespace wfd::sim {
namespace {

/// Initial near-wheel horizon and far-wheel end (first outer-band tick).
constexpr Time kFarStart = 2 * SoaTransit::kFarWidth;
constexpr Time kOuterStart =
    kFarStart + SoaTransit::kFarWidth * SoaTransit::kFarCount;

/// Fill a message slot with an identifiable body.
void stamp(Message& slot, ProcessId src, ProcessId dst, std::uint64_t seq) {
  slot.src = src;
  slot.dst = dst;
  slot.port = 7;
  slot.seq = seq;
  slot.payload = Payload{1, seq, 0, 0};
}

/// Consume everything on `dst`'s ready list; returns the seqs in order.
std::vector<std::uint64_t> drain_all(SoaTransit& transit, ProcessId dst) {
  std::vector<std::uint64_t> got;
  transit.drain_ready(dst, [&got](const InTransit& item) {
    got.push_back(item.msg.seq);
    return true;
  });
  return got;
}

/// Advance the store tick by tick from `from` through `to` inclusive.
void advance_through(SoaTransit& transit, Time from, Time to) {
  for (Time now = from; now <= to; ++now) transit.advance(now);
}

TEST(SoaTransit, DrainsInDeliverAtThenSeqOrderAcrossAllBands) {
  SoaTransit transit(2);
  std::uint64_t seq = 0;
  // Interleave pushes landing in the near wheel, the far wheel, and the
  // outer band (past ~1M ticks), all for destination 0, plus noise for 1.
  // Each must come out exactly at its own tick, never earlier or later.
  const std::vector<Time> dues = {
      5,      kOuterStart + 9000, 700,  kOuterStart + 17,
      40000,  kOuterStart + 17,   5,    kFarStart + 12345,
      260000, 3,                  5000, kOuterStart + 9000,
  };
  for (const Time due : dues) {
    stamp(transit.push(due, 0), 0, 0, seq++);
    stamp(transit.push(due + 1, 1), 0, 1, seq++);
  }
  EXPECT_EQ(transit.size(), 2 * dues.size());

  // Expected order for dst 0: sort the pushes by (due, push index).
  std::vector<std::pair<Time, std::uint64_t>> expected;
  for (std::size_t i = 0; i < dues.size(); ++i) {
    expected.push_back({dues[i], 2 * i});  // seq of the dst-0 push
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::pair<Time, std::uint64_t>> got;
  const Time last = kOuterStart + 9001;
  for (Time now = 1; now <= last; ++now) {
    transit.advance(now);
    transit.drain_ready(0, [&](const InTransit& item) {
      got.push_back({item.deliver_at, item.msg.seq});
      EXPECT_EQ(item.deliver_at, now);
      return true;
    });
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "position " << i;
  }
  EXPECT_EQ(transit.pending(0), 0u);
  EXPECT_EQ(transit.size(), dues.size());  // dst 1 still queued
}

TEST(SoaTransit, DeferredItemsStayInOrderAndClearSettlesCounts) {
  SoaTransit transit(3);
  for (std::uint64_t i = 0; i < 6; ++i) stamp(transit.push(4, 2), 0, 2, i);
  stamp(transit.push(9000, 2), 0, 2, 6);
  advance_through(transit, 1, 4);

  // Defer everything once (one-per-sender step semantics does this), then
  // drain: order must be unchanged.
  transit.drain_ready(2, [](const InTransit&) { return false; });
  std::uint64_t want = 0;
  transit.drain_ready(2, [&](const InTransit& item) {
    EXPECT_EQ(item.msg.seq, want++);
    return want <= 3;  // consume 3, defer the rest again
  });
  EXPECT_EQ(transit.pending(2), 4u);  // 3 deferred + 1 in the far wheel

  // Crash the destination: counters settle instantly, wheel slots lazily.
  EXPECT_EQ(transit.clear_dst(2), 4u);
  EXPECT_EQ(transit.pending(2), 0u);
  EXPECT_EQ(transit.size(), 0u);
  advance_through(transit, 5, 9000);  // the lazy free must not scatter
  EXPECT_FALSE(transit.has_ready(2));
}

/// Reference item: the heap orders by (deliver_at, seq).
struct HeapItem {
  Time deliver_at = 0;
  std::uint64_t seq = 0;
  ProcessId src = 0;
  bool operator>(const HeapItem& other) const {
    if (deliver_at != other.deliver_at) return deliver_at > other.deliver_at;
    return seq > other.seq;
  }
};
using ReferenceHeap =
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;

TEST(SoaTransit, MatchesReferenceHeapOnRandomSchedules) {
  // Several destinations; each drains only on some ticks (a rarely
  // scheduled destination keeps due items on its ready list across many
  // ticks), and some delays reach the far wheel.
  constexpr ProcessId kDsts = 4;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    SoaTransit transit(kDsts);
    std::vector<ReferenceHeap> heaps(kDsts);
    std::uint64_t seq = 0;
    std::size_t delivered = 0;
    Time now = 0;
    const auto drain_and_compare = [&](ProcessId dst) {
      std::vector<std::uint64_t> expected;
      while (!heaps[dst].empty() && heaps[dst].top().deliver_at <= now) {
        expected.push_back(heaps[dst].top().seq);
        heaps[dst].pop();
      }
      const std::vector<std::uint64_t> got = drain_all(transit, dst);
      EXPECT_EQ(got, expected) << "seed " << seed << " tick " << now;
      delivered += got.size();
    };
    for (int round = 0; round < 20000; ++round) {
      transit.advance(++now);
      for (std::uint64_t s = rng.below(3); s > 0; --s) {
        const ProcessId dst = static_cast<ProcessId>(rng.below(kDsts));
        const Time due =
            now + (rng.chance(0.1) ? rng.range(200, 5000) : rng.range(1, 32));
        stamp(transit.push(due, dst), 0, dst, seq);
        heaps[dst].push({due, seq, 0});
        ++seq;
      }
      for (ProcessId dst = 0; dst < kDsts; ++dst) {
        if (rng.chance(0.3)) drain_and_compare(dst);
      }
    }
    // Drain everything left so the whole sequence is compared.
    advance_through(transit, now + 1, now + 6000);
    now += 6000;
    for (ProcessId dst = 0; dst < kDsts; ++dst) drain_and_compare(dst);
    EXPECT_EQ(transit.size(), 0u);
    EXPECT_GT(delivered, 15000u);
  }
}

TEST(SoaTransit, DeferredItemsStayFirstInOrder) {
  // The engine's receive phase: at most one message per sender per step;
  // the rest defer and must come back first, still in (deliver_at, seq)
  // order — exactly what a heap's pop/re-push produces.
  Rng rng(99);
  SoaTransit transit(1);
  ReferenceHeap heap;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int round = 0; round < 2000; ++round) {
    const Time next = now + rng.range(1, 3);
    advance_through(transit, now + 1, next);
    now = next;
    for (std::uint64_t s = rng.below(5); s > 0; --s) {
      const Time due = now + rng.range(1, 12);
      const ProcessId src = static_cast<ProcessId>(rng.below(3));
      stamp(transit.push(due, 0), src, 0, seq);
      heap.push({due, seq, src});
      ++seq;
    }

    // Reference: pop due items, deliver first-per-sender, re-push the rest.
    bool seen[3] = {false, false, false};
    std::vector<std::uint64_t> expected;
    std::vector<HeapItem> deferred;
    while (!heap.empty() && heap.top().deliver_at <= now) {
      const HeapItem item = heap.top();
      heap.pop();
      if (seen[item.src]) {
        deferred.push_back(item);
      } else {
        seen[item.src] = true;
        expected.push_back(item.seq);
      }
    }
    for (const HeapItem& item : deferred) heap.push(item);

    bool got_seen[3] = {false, false, false};
    std::vector<std::uint64_t> got;
    transit.drain_ready(0, [&](const InTransit& item) {
      if (got_seen[item.msg.src]) return false;  // defer
      got_seen[item.msg.src] = true;
      got.push_back(item.msg.seq);
      return true;
    });
    ASSERT_EQ(got, expected) << "divergence at tick " << now;
    ASSERT_EQ(transit.pending(0), heap.size());
  }
}

TEST(SoaTransit, PushDuringDrainLandsInTheFuture) {
  // The engine's consume callback may send: a handler delivery can push
  // into the store being drained, for the draining destination itself. New
  // items must never be visited in the same drain (they are due strictly
  // past now), including when their near-wheel index aliases the current
  // tick's, and must come out at their own tick later, from every band.
  SoaTransit transit(2);
  std::uint64_t next_seq = 0;
  for (Time t = 1; t <= 6; ++t) stamp(transit.push(t, 0), 0, 0, next_seq++);
  advance_through(transit, 1, 6);
  const Time aliased = 6 + SoaTransit::kNearSize;  // same near index as 6
  const Time outer = kOuterStart + 40;
  std::vector<std::uint64_t> got;
  transit.drain_ready(0, [&](const InTransit& item) {
    got.push_back(item.msg.seq);
    if (item.msg.seq == 0) {
      stamp(transit.push(7, 0), 1, 0, next_seq++);        // seq 6, near
      stamp(transit.push(aliased, 0), 1, 0, next_seq++);  // seq 7, far
      stamp(transit.push(outer, 0), 1, 0, next_seq++);    // seq 8, outer
      stamp(transit.push(7, 1), 1, 1, next_seq++);        // seq 9, other dst
    }
    return true;
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(transit.has_ready(0));
  EXPECT_EQ(transit.size(), 4u);

  transit.advance(7);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{6}));
  EXPECT_EQ(drain_all(transit, 1), (std::vector<std::uint64_t>{9}));
  advance_through(transit, 8, aliased - 1);
  EXPECT_FALSE(transit.has_ready(0));
  transit.advance(aliased);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{7}));
  advance_through(transit, aliased + 1, outer - 1);
  EXPECT_FALSE(transit.has_ready(0));
  transit.advance(outer);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(transit.size(), 0u);
}

TEST(SoaTransit, FarFutureOverflowDeliversAtTheRightTick) {
  SoaTransit transit(1);
  // One message past far-wheel coverage (outer band), one near. Neither may
  // surface a tick early, and each must surface exactly at its own tick.
  const Time far_due = kOuterStart + 5000;
  stamp(transit.push(5, 0), 0, 0, 0);
  stamp(transit.push(far_due, 0), 0, 0, 1);
  advance_through(transit, 1, 4);
  EXPECT_TRUE(drain_all(transit, 0).empty());
  transit.advance(5);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{0}));
  advance_through(transit, 6, far_due - 1);
  EXPECT_TRUE(drain_all(transit, 0).empty());
  transit.advance(far_due);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(transit.size(), 0u);
}

TEST(SoaTransit, OuterThenFarThenNearSameTickKeepsSeqOrder) {
  SoaTransit transit(1);
  // seq 0 targets tick T while T is past far coverage (outer band); once
  // the far wheel covers T, seq 1 for the same tick goes there; once the
  // near wheel covers T, seq 2 goes near and seq 3 to the tick before.
  // Delivery must still be seq order within the tick.
  const Time target = kOuterStart + 100;
  stamp(transit.push(target, 0), 0, 0, 0);
  Time now = 0;
  while (now + SoaTransit::kFarWidth * SoaTransit::kFarCount < target) {
    transit.advance(++now);
  }
  stamp(transit.push(target, 0), 0, 0, 1);
  while (now + SoaTransit::kFarWidth < target) transit.advance(++now);
  stamp(transit.push(target, 0), 0, 0, 2);
  stamp(transit.push(target - 1, 0), 0, 0, 3);
  advance_through(transit, now + 1, target - 1);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{3}));
  transit.advance(target);
  EXPECT_EQ(drain_all(transit, 0), (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(SoaTransit, ClearDstDropsEverythingAndSparesOtherDestinations) {
  SoaTransit transit(2);
  std::uint64_t seq = 0;
  for (std::uint64_t s = 0; s < 50; ++s) {
    stamp(transit.push(10 + s % 7, 0), 0, 0, seq++);           // near
    stamp(transit.push(5000 + s, 0), 0, 0, seq++);             // far
    stamp(transit.push(kOuterStart + s, 0), 0, 0, seq++);      // outer
  }
  stamp(transit.push(12, 1), 0, 1, seq++);
  stamp(transit.push(kOuterStart + 7, 1), 0, 1, seq++);
  advance_through(transit, 1, 11);  // dst 0 has ready items, too
  EXPECT_TRUE(transit.has_ready(0));
  EXPECT_EQ(transit.size(), 152u);
  EXPECT_EQ(transit.clear_dst(0), 150u);
  EXPECT_EQ(transit.size(), 2u);
  EXPECT_FALSE(transit.has_ready(0));

  // The cleared wheel and outer slots free lazily as their ticks pass;
  // destination 1 keeps receiving, in order, through the recycled slots.
  transit.advance(12);
  EXPECT_EQ(drain_all(transit, 1), (std::vector<std::uint64_t>{150}));
  for (Time now = 13; now <= kOuterStart + 60; ++now) {
    transit.advance(now);
    EXPECT_FALSE(transit.has_ready(0));
    if (now == 13) stamp(transit.push(kOuterStart + 7, 1), 0, 1, seq++);
  }
  EXPECT_EQ(drain_all(transit, 1), (std::vector<std::uint64_t>{151, 152}));
  EXPECT_EQ(transit.size(), 0u);
}

// --- the full contract under random interleavings ---------------------------

/// The naive model, per destination: a min-heap by (deliver_at, seq) for
/// pending items and a FIFO for items the consumer deferred, retried ahead
/// of the heap on the next drain — exactly the contract SoaTransit
/// documents.
struct ReferenceModel {
  ReferenceHeap heap;
  std::deque<HeapItem> deferred;
  bool dead = false;

  std::size_t size() const { return heap.size() + deferred.size(); }
};

/// Shared deterministic policies, keyed only on values both executions
/// see, so they make identical choices independent of representation.
bool should_defer(std::uint64_t seq, std::uint64_t round) {
  return (seq + round) % 3 == 0;  // retried items pass on a later round
}
bool spawns_on_consume(std::uint64_t seq) { return seq % 5 == 2; }
Time spawn_delay(std::uint64_t seq) {
  // Mostly near-future; every 4th spawn lands in the far wheel and every
  // 64th past far coverage, even mid-drain.
  if (seq % 64 == 7) {
    return SoaTransit::kFarWidth * SoaTransit::kFarCount + seq % 5000;
  }
  return seq % 4 == 3 ? 3000 + (seq % 900) : 1 + (seq % 37);
}

TEST(SoaTransitProperty, FullContractUnderRandomInterleavings) {
  constexpr ProcessId kDsts = 5;
  for (const std::uint64_t master_seed : {11ull, 12ull, 13ull}) {
    Rng rng(master_seed);
    SoaTransit transit(kDsts);
    std::vector<ReferenceModel> models(kDsts);
    std::uint64_t seq = 0;
    std::uint64_t round = 0;
    std::size_t delivered = 0;
    std::size_t spawned = 0;
    std::size_t outer_pushes = 0;
    std::size_t cleared = 0;
    Time now = 0;
    Time last_due = 0;

    // Pushes go to live destinations only (the engine drops sends to a
    // crashed destination before they reach the store); the target is a
    // function of the seq about to be assigned.
    const auto live_target = [&](std::uint64_t key) {
      ProcessId dst = static_cast<ProcessId>(key % kDsts);
      while (models[dst].dead) dst = (dst + 1) % kDsts;
      return dst;
    };
    const auto push_both = [&](Time at) {
      const ProcessId dst = live_target(seq);
      stamp(transit.push(at, dst), static_cast<ProcessId>(seq % 3), dst, seq);
      models[dst].heap.push({at, seq, 0});
      ++seq;
      last_due = std::max(last_due, at);
      if (at - now >= SoaTransit::kFarWidth * SoaTransit::kFarCount) {
        ++outer_pushes;
      }
    };
    const auto expect_counts = [&] {
      std::size_t total = 0;
      for (ProcessId dst = 0; dst < kDsts; ++dst) {
        ASSERT_EQ(transit.pending(dst), models[dst].size())
            << "dst " << dst << " tick " << now;
        total += models[dst].size();
      }
      ASSERT_EQ(transit.size(), total) << "tick " << now;
    };
    const auto advance_to = [&](Time target) {
      while (now < target) {
        transit.advance(++now);
        for (ProcessId dst = 0; dst < kDsts; ++dst) {
          if (models[dst].dead) {
            ASSERT_FALSE(transit.has_ready(dst));
          }
        }
      }
    };

    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t jump = rng.below(1000);
      // Mostly one tick; sometimes an idle gap; rarely a leap of up to a
      // few hundred thousand ticks, so the outer band sweeps mid-run.
      advance_to(now + (jump < 750   ? 1
                        : jump < 950 ? rng.range(2, 50)
                        : jump < 995 ? rng.range(300, 1400)
                                     : rng.range(50000, 400000)));

      for (std::uint64_t s = rng.below(5); s > 0; --s) {
        const std::uint64_t kind = rng.below(100);
        push_both(now + (kind < 85   ? rng.range(1, 48)
                         : kind < 97 ? rng.range(256, 40000)
                                     : rng.range(1100000, 1300000)));
      }
      // A rare crash: clear a live destination (keeping two alive). Its
      // wheel and outer slots stay behind, to be freed as their ticks pass.
      std::size_t live = 0;
      for (const ReferenceModel& model : models) live += model.dead ? 0 : 1;
      if (live > 2 && rng.chance(0.002)) {
        const ProcessId victim = live_target(rng.below(kDsts));
        ASSERT_EQ(transit.clear_dst(victim), models[victim].size());
        models[victim] = ReferenceModel{};
        models[victim].dead = true;
        ++cleared;
      }
      expect_counts();
      if (!rng.chance(0.8)) continue;
      ++round;

      // The store: one drain with deferral and re-entrant spawns, which may
      // target the draining destination itself. A spawn is due past now, so
      // neither execution visits it in this drain.
      const ProcessId dst = live_target(rng.below(kDsts));
      std::vector<std::uint64_t> got;
      transit.drain_ready(dst, [&](const InTransit& item) {
        EXPECT_LE(item.deliver_at, now);
        if (should_defer(item.msg.seq, round)) return false;
        got.push_back(item.msg.seq);
        if (spawns_on_consume(item.msg.seq)) {
          push_both(now + spawn_delay(item.msg.seq));
          ++spawned;
        }
        return true;
      });
      // Reference: deferred FIFO first (re-deferring in place), then due
      // heap items in (deliver_at, seq) order, same consume policy.
      ReferenceModel& model = models[dst];
      std::vector<std::uint64_t> expected;
      const auto consume_ref = [&](const HeapItem& item) {
        if (should_defer(item.seq, round)) {
          model.deferred.push_back(item);
        } else {
          expected.push_back(item.seq);
        }
      };
      for (std::size_t pending = model.deferred.size(); pending > 0;
           --pending) {
        const HeapItem item = model.deferred.front();
        model.deferred.pop_front();
        consume_ref(item);
      }
      while (!model.heap.empty() && model.heap.top().deliver_at <= now) {
        const HeapItem item = model.heap.top();
        model.heap.pop();
        consume_ref(item);
      }
      ASSERT_EQ(got, expected) << "divergence at tick " << now << " (seed "
                               << master_seed << ", round " << round << ")";
      delivered += got.size();
      expect_counts();
    }

    // Final drains with deferral off flush both executions completely.
    advance_to(last_due);
    for (ProcessId dst = 0; dst < kDsts; ++dst) {
      ReferenceModel& model = models[dst];
      std::vector<std::uint64_t> expected;
      while (!model.deferred.empty()) {
        expected.push_back(model.deferred.front().seq);
        model.deferred.pop_front();
      }
      while (!model.heap.empty()) {
        expected.push_back(model.heap.top().seq);
        model.heap.pop();
      }
      const std::vector<std::uint64_t> got = drain_all(transit, dst);
      ASSERT_EQ(got, expected) << "final drain divergence (seed "
                               << master_seed << ", dst " << dst << ")";
      delivered += got.size();
    }
    EXPECT_EQ(transit.size(), 0u);

    // The schedule exercised every path worth having: real volume, real
    // deferrals and re-entrant spawns, outer-band traffic, and crashes.
    EXPECT_GT(delivered, 4000u);
    EXPECT_GT(spawned, 100u);
    EXPECT_GT(outer_pushes, 50u);
    EXPECT_GE(cleared, 1u);
  }
}

}  // namespace
}  // namespace wfd::sim
