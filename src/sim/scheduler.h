// Discrete-event scheduler: the heart of the WSN simulator.
//
// A Scheduler owns a priority queue of (time, callback) events and a
// monotone simulation clock. Protocol code schedules future work with
// `at()`/`after()` and the main loop (`run*`) drains events in time
// order. Everything in this repository that "waits" — MAC backoff,
// HELLO jitter, share-assembly timeouts, epoch deadlines — is an event
// here; there are no threads and no wall-clock dependence, so a run is
// a deterministic function of (configuration, RNG seed).
//
// Ordering contract (DESIGN.md §5j, §5k): events are dispatched in
// ascending canonical EventKey (fire time, schedule time, creator,
// counter). `creator` is the owner of the dispatch that scheduled the
// event; `counter` is that creator's running count of scheduled
// events. Events scheduled outside any dispatch (network wiring,
// per-epoch setup) have the reserved creator kNoEventOwner, whose
// counter is the install sequence, so they keep program order and sort
// after runtime-scheduled events at a (fire, schedule) time tie.
// Nothing in the key depends on which scheduler holds the event: the
// single scheduler of an unsharded run and every shard scheduler of
// the sharded engine order by this one comparator, and the engine's
// gate merges shards with it (net/shard_engine.h). A sharded run
// therefore dispatches in the single-scheduler order by construction.
//
// Why creator order and not FIFO (the order in which same-instant
// dispatches happened to schedule): a FIFO sequence is local to one
// heap, so across shards it can only be rebuilt from each event's
// chain of parent dispatches; the creator key is the same on every
// shard with no rebuilding. The two orders differ at ties, so adopting
// the creator key changed the golden trace once, deliberately
// (DESIGN.md §5j).
//
// Representation (DESIGN.md §5f, §5i): radix buckets plus a tie heap
// over one slab of event slots. Each slot's 32-byte entry (canonical
// key, owner, queue position) lives in the slab; the queue structures
// hold 4-byte slot ids only. The queue keeps an origin time and splits
// the pending events at it:
//
//  - Events at or below the origin sit in an indexed 4-ary min-heap
//    ordered by the full EventKey: same-instant ties, and events
//    scheduled below the origin after a peek moved it forward (the
//    sharded gate's pattern), stay exactly ordered.
//  - Events above it sit in radix bucket k, where k is the highest bit
//    at which the IEEE-754 bits of the fire time differ from the
//    origin's (non-negative finite doubles order like their bit
//    patterns; -0.0 is folded onto +0.0). A 64-bit mask marks the
//    non-empty buckets.
//
// A pop that finds the heap empty takes the lowest non-empty bucket,
// moves the origin to that bucket's minimum fire time and re-files its
// events: those at the new origin go into the heap, the rest into
// strictly lower buckets. Every event so descends at most 63 buckets
// before it fires (a monotone radix heap: Ahuja, Mehlhorn, Orlin and
// Tarjan, J. ACM 1990), and the far phase and watchdog timers that
// every node keeps pending never enter the heap until their turn, so
// pops stop sifting through them. at() refusing past and non-finite
// times is what keeps the queue monotone. cancel() is an O(1)
// swap-remove for a bucketed event and an O(log n) middle removal for
// a heap one — no tombstones, no hash tables, no per-event allocation
// beyond what the closure itself needs. EventIds encode
// (generation, slot), making stale ids self-invalidating. The
// callables live in a slab parallel to the entries and are touched
// exactly twice per event (store at schedule, move-out at pop) —
// never during queue maintenance.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event.h"
#include "sim/time.h"

namespace icpda::sim {

/// Owner tag for events not tied to any node (test rigs, the service
/// dispatcher), and the creator of events scheduled outside any
/// dispatch. As a creator it sorts after every real node.
inline constexpr std::uint32_t kNoEventOwner = 0xFFFFFFFFu;

/// Hand out the next value of a schedule counter. Throws
/// std::overflow_error instead of wrapping: a wrapped counter would
/// order the creator's later events before its earlier ones.
[[nodiscard]] inline std::uint32_t take_counter(std::uint32_t& next) {
  if (next == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("sim: event counter exhausted");
  }
  return next++;
}

/// The counter half of EventKey: one schedule counter per creator, plus
/// the install counter of kNoEventOwner. Schedulers that exchange
/// events — the shard schedulers of one Network — must share one table;
/// otherwise one creator's events would count on diverging sequences.
/// Creator c's entry is written only while an event owned by c
/// dispatches, and those run on c's home shard or in the engine's
/// serialized gate, so sharing needs no locking. Events owned by
/// kNoEventOwner must not drain in parallel for the same reason.
class CreatorCounters {
 public:
  /// A table that grows to fit any creator id (one scheduler, one
  /// thread).
  CreatorCounters() = default;
  /// A table fixed to creators [0, creators): the form shared by
  /// schedulers that drain in parallel, where growing would race. A
  /// creator outside the range throws std::out_of_range.
  explicit CreatorCounters(std::size_t creators)
      : next_(creators, 0), fixed_(true) {}

  /// Next counter value of `creator`.
  [[nodiscard]] std::uint32_t take(std::uint32_t creator) {
    if (creator == kNoEventOwner) return take_counter(install_);
    if (creator >= next_.size()) grow(creator);
    return take_counter(next_[creator]);
  }

  [[nodiscard]] bool fixed() const { return fixed_; }

  /// Heap bytes of the per-creator table.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return next_.capacity() * sizeof(std::uint32_t);
  }

 private:
  void grow(std::uint32_t creator);

  std::vector<std::uint32_t> next_;
  std::uint32_t install_ = 0;
  bool fixed_ = false;
};

/// Canonical ordering key of a scheduled event (see the ordering
/// contract above). Total: two events of one creator differ in counter.
struct EventKey {
  SimTime at;        ///< fire time
  SimTime sched_at;  ///< clock value when the event was scheduled
  std::uint32_t creator = kNoEventOwner;  ///< owner of the scheduling dispatch
  std::uint32_t counter = 0;              ///< creator's schedule count

  [[nodiscard]] friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.sched_at != b.sched_at) return a.sched_at < b.sched_at;
    if (a.creator != b.creator) return a.creator < b.creator;
    return a.counter < b.counter;
  }
};

class Scheduler {
 public:
  /// A scheduler with its own growable counter table.
  Scheduler() : counters_(std::make_shared<CreatorCounters>()) {}
  /// A scheduler that shares `counters` with the schedulers it
  /// exchanges events with (the shards of one sharded run).
  explicit Scheduler(std::shared_ptr<CreatorCounters> counters);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Monotone: only advances inside run*()
  /// and advance_to().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Number of events currently pending (excludes cancelled ones).
  [[nodiscard]] std::size_t pending() const;

  /// Schedule `fn` at absolute time `t`. `t` must be >= now().
  /// `owner` is the node the event acts for (kNoEventOwner when none);
  /// it becomes the creator of everything the event schedules.
  /// `border` marks events that may touch another shard's state when
  /// the scheduler runs inside the sharded engine — they are indexed
  /// so the engine can find the next cross-shard interaction in O(1).
  /// Single-shard runs never pass border and pay nothing for it.
  EventId at(SimTime t, EventFn fn, std::uint32_t owner = kNoEventOwner,
             bool border = false);

  /// Schedule `fn` after a relative delay from now().
  EventId after(SimTime delay, EventFn fn, std::uint32_t owner = kNoEventOwner,
                bool border = false) {
    return at(now_ + delay, std::move(fn), owner, border);
  }

  /// Cancel a pending event: true removal from the queue (O(1) from a
  /// bucket, O(log n) from the tie heap).
  /// Cancelling an already-fired or already cancelled event is a
  /// harmless no-op. Returns true if the event was pending.
  bool cancel(EventId id);

  /// Run until the queue is empty. Returns the number of events fired.
  std::uint64_t run();

  /// Run until the queue is empty or simulation time would exceed
  /// `deadline` (events strictly after the deadline remain queued; the
  /// clock is advanced to `deadline`).
  std::uint64_t run_until(SimTime deadline);

  /// Execute at most `max_events` events.
  std::uint64_t run_steps(std::uint64_t max_events);

  // ---- sharded-engine surface (net/shard_engine.h) ------------------

  [[nodiscard]] bool has_next() const { return !heap_.empty() || nonempty_ != 0; }
  /// Fire time of the next event; requires has_next(). Not const: the
  /// peek may refill the tie heap from a bucket, so call it only where
  /// no other thread touches this scheduler (the engine's gate and
  /// planner run with every drain parked at the barrier).
  [[nodiscard]] SimTime next_time() { return next_key().at; }
  /// Canonical key of the next event; requires has_next(). May refill
  /// the tie heap, as next_time().
  [[nodiscard]] const EventKey& next_key() {
    fill_heap();
    return slots_[heap_.front()].key;
  }
  /// Canonical key of the earliest still-pending border event; false
  /// when none. Prunes fired/cancelled index entries lazily.
  bool next_border(EventKey& out);

  /// Execute events with fire time strictly before `bound`; the clock
  /// ends at the last fired event (it is NOT advanced to the bound).
  std::uint64_t run_before(SimTime bound);
  /// Pop and dispatch the single next event; false if the queue is
  /// empty.
  bool run_one();
  /// Advance the clock to `t` if it is ahead of now() (lookahead
  /// window close, horizon semantics). Never moves the clock back.
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Drop every pending event and reset the clock to zero. Event ids
  /// are NOT reset — stale EventIds remain safely cancellable no-ops
  /// (their slot generation no longer matches). Counters are not reset
  /// either: a shared table still keys other schedulers' events.
  void reset();

  /// The counter table this scheduler draws keys from (shared across
  /// the shards of a sharded run).
  [[nodiscard]] const CreatorCounters& counters() const { return *counters_; }

  /// Heap bytes held by the event storage (slot slabs, tie heap,
  /// buckets, border index) — capacity-based, so it reports high-water
  /// footprint, not the instantaneous queue depth. The counter table is
  /// excluded: it may be shared, so its holder counts it once. Feeds
  /// Network::footprint (bench/bench_footprint.cc).
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// Sentinel queue position marking a slot as free / not queued.
  static constexpr std::uint32_t kNotQueued = 0xFFFFFFFF;
  /// Queue-position flag of a bucketed slot; the low bits are its index
  /// in the bucket. The bucket itself follows from the fire time and
  /// the origin, so it is not stored.
  static constexpr std::uint32_t kInBucket = 0x80000000;
  /// One radix bucket per bit of the 64-bit time key.
  static constexpr int kBuckets = 64;

  /// One slot's queued event: the canonical key, the event's owner and
  /// where it sits — its tie-heap index, kInBucket | its bucket index,
  /// or kNotQueued.
  struct Entry {
    EventKey key;
    std::uint32_t owner = kNoEventOwner;
    std::uint32_t pos = kNotQueued;
  };

  /// Border-event index entry; validated against the slot generation
  /// when peeked, so cancelled/fired events cost nothing to remove.
  struct BorderEntry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return static_cast<EventId>((static_cast<std::uint64_t>(gen) << 32) | slot);
  }

  /// The radix key of a fire time: its IEEE-754 bits with the sign
  /// cleared. at() admits no negative time but -0.0, which this folds
  /// onto +0.0; every other admitted time orders like its key.
  [[nodiscard]] static std::uint64_t radix(SimTime t);

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    return slots_[a].key < slots_[b].key;
  }

  /// Append the just-scheduled event to the border index (cold: only
  /// sharded runs tag border events; kept out of at()'s inline body).
  void index_border(const EventKey& key, std::uint32_t s);

  /// Queue slot `s` by its fire time: into the tie heap at or below
  /// the origin, else into its radix bucket.
  void file(std::uint32_t s);
  /// Ensure the tie heap holds the next event when any is pending:
  /// with the heap empty, move the origin to the lowest non-empty
  /// bucket's minimum and re-file that bucket. False if nothing is
  /// pending.
  bool fill_heap();

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Take the slot at heap position `pos` out of the heap, restoring
  /// heap order.
  void remove_at(std::size_t pos);
  /// Take a bucketed slot out of its bucket (swap-remove).
  void unbucket(std::uint32_t s);
  /// Release a slot back to the free list, bumping its generation.
  void release(std::uint32_t slot);

  /// A popped, not-yet-dispatched event.
  struct Popped {
    SimTime at;
    std::uint32_t owner;
    EventFn fn;
  };

  /// Run one popped event, with its owner as the creator of whatever
  /// it schedules.
  void dispatch(Popped& ev);

  /// Pops the next event into `out`; false if the queue is empty. The
  /// slot is released before the caller dispatches, so the callback
  /// can freely schedule (and reuse storage).
  bool pop_next(Popped& out);

  /// Entry slab, indexed by slot.
  std::vector<Entry> slots_;
  /// Slot generations, parallel to slots_: validate EventIds across
  /// slot reuse.
  std::vector<std::uint32_t> gens_;
  /// Callable slab, parallel to slots_.
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
  /// 4-ary min-heap of the slots at or below the origin. Four-way beats
  /// binary here: half the tree depth for the same-instant batches.
  std::vector<std::uint32_t> heap_;
  /// Radix buckets of the slots above the origin (see the
  /// representation note at the top of this file).
  std::array<std::vector<std::uint32_t>, kBuckets> buckets_;
  /// Bit k set iff buckets_[k] is non-empty.
  std::uint64_t nonempty_ = 0;
  /// Radix key of the origin.
  std::uint64_t origin_ = 0;
  /// Lazy min-heap over border-tagged events (sharded engine only;
  /// empty and untouched in single-shard runs).
  std::vector<BorderEntry> border_;
  std::shared_ptr<CreatorCounters> counters_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
};

}  // namespace icpda::sim
