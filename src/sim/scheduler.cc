#include "sim/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace icpda::sim {

namespace {
/// Min-heap predicate for the border index (std::*_heap build
/// max-heaps, so "greater" yields a min-heap).
[[nodiscard]] bool border_later(const EventKey& a, const EventKey& b) {
  return b < a;
}

/// Owner of the dispatch running on this thread: the creator of
/// everything it schedules. Thread-local rather than per-scheduler
/// because an event run by the sharded gate may schedule on ANOTHER
/// shard's scheduler (cross-shard delivery), and its creator is still
/// the acting event's owner. Parallel drains dispatch each on their own
/// worker thread, so the values never mix. kNoEventOwner outside any
/// dispatch.
thread_local std::uint32_t t_creator = kNoEventOwner;

/// Publishes a dispatch's owner as the thread's creator for the
/// callback's duration, restoring the outer value on return and on
/// unwind.
class CreatorScope {
 public:
  explicit CreatorScope(std::uint32_t owner) : outer_(t_creator) {
    t_creator = owner;
  }
  ~CreatorScope() { t_creator = outer_; }
  CreatorScope(const CreatorScope&) = delete;
  CreatorScope& operator=(const CreatorScope&) = delete;

 private:
  std::uint32_t outer_;
};
}  // namespace

void CreatorCounters::grow(std::uint32_t creator) {
  if (fixed_) {
    throw std::out_of_range("CreatorCounters: creator outside the fixed table");
  }
  next_.resize(static_cast<std::size_t>(creator) + 1, 0);
}

Scheduler::Scheduler(std::shared_ptr<CreatorCounters> counters)
    : counters_(std::move(counters)) {
  if (!counters_) {
    throw std::invalid_argument("Scheduler: null counter table");
  }
}

EventId Scheduler::at(SimTime t, EventFn fn, std::uint32_t owner, bool border) {
  // NaN compares false with everything, so `t < now_` alone would let
  // it in; once it fired, now() would be NaN and no later time could
  // be refused. Infinity is only ever a run horizon, never a fire time.
  if (!t.is_finite()) {
    throw std::invalid_argument("Scheduler::at: time is not finite");
  }
  if (t < now_) {
    throw std::invalid_argument("Scheduler::at: time is in the past");
  }
  if (!fn) {
    throw std::invalid_argument("Scheduler::at: empty callback");
  }
  // Key first: a counter overflow throws before any slot is taken.
  const EventKey key{t, now_, t_creator, counters_->take(t_creator)};
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    fns_.emplace_back();
  }
  Meta& m = meta_[s];
  fns_[s] = std::move(fn);
  m.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{key, owner, s});
  sift_up(heap_.size() - 1);
  if (border) index_border(key, s);
  return encode(s, m.gen);
}

// Out of line deliberately: only sharded runs ever tag border events,
// and inlining the push_heap machinery doubles at()'s code size for
// everyone else.
void Scheduler::index_border(const EventKey& key, std::uint32_t s) {
  border_.push_back(BorderEntry{key, s, meta_[s].gen});
  std::push_heap(border_.begin(), border_.end(),
                 [](const BorderEntry& a, const BorderEntry& b) {
                   return border_later(a.key, b.key);
                 });
}

void Scheduler::dispatch(Popped& ev) {
  now_ = ev.at;
  const CreatorScope creator(ev.owner);
  ev.fn();
  ++executed_;
}

bool Scheduler::next_border(EventKey& out) {
  const auto later = [](const BorderEntry& a, const BorderEntry& b) {
    return border_later(a.key, b.key);
  };
  while (!border_.empty()) {
    const BorderEntry& top = border_.front();
    const Meta& m = meta_[top.slot];
    if (m.gen == top.gen && m.heap_pos != kNotQueued) {
      out = top.key;
      return true;
    }
    // Fired or cancelled since it was indexed: drop lazily.
    std::pop_heap(border_.begin(), border_.end(), later);
    border_.pop_back();
  }
  return false;
}

bool Scheduler::cancel(EventId id) {
  const auto raw = static_cast<std::uint64_t>(id);
  const auto s = static_cast<std::uint32_t>(raw & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(raw >> 32);
  if (s >= meta_.size()) return false;
  const Meta& m = meta_[s];
  if (m.gen != gen || m.heap_pos == kNotQueued) return false;  // fired or stale
  remove_at(m.heap_pos);
  return true;
}

void Scheduler::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    const HeapEntry& p = heap_[parent];
    if (!before(e, p)) break;
    heap_[pos] = p;
    meta_[p.slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  meta_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[pos];
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    const HeapEntry b = heap_[best];
    if (!before(b, e)) break;
    heap_[pos] = b;
    meta_[b.slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  meta_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::remove_at(std::size_t pos) {
  release(heap_[pos].slot);
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  heap_[pos] = moved;
  meta_[moved.slot].heap_pos = static_cast<std::uint32_t>(pos);
  // The replacement came from the bottom: it can only need to move
  // down, unless the removal hole was below its parent (possible when
  // removing from the middle) — try both; one is a no-op.
  sift_up(pos);
  sift_down(meta_[moved.slot].heap_pos);
}

void Scheduler::release(std::uint32_t s) {
  fns_[s] = nullptr;  // drop captured state now, not at slot reuse
  Meta& m = meta_[s];
  m.heap_pos = kNotQueued;
  ++m.gen;
  free_slots_.push_back(s);
}

bool Scheduler::pop_next(Popped& out) {
  if (heap_.empty()) return false;
  const std::uint32_t s = heap_[0].slot;
  Meta& m = meta_[s];
  out.at = heap_[0].key.at;
  out.owner = heap_[0].owner;
  out.fn = std::move(fns_[s]);  // move empties the slab cell
  m.heap_pos = kNotQueued;
  ++m.gen;
  free_slots_.push_back(s);
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = moved;
    meta_[moved.slot].heap_pos = 0;
    sift_down(0);
  }
  return true;
}

std::uint64_t Scheduler::run() {
  std::uint64_t fired = 0;
  Popped ev;
  while (pop_next(ev)) {
    dispatch(ev);
    ++fired;
  }
  return fired;
}

std::uint64_t Scheduler::run_until(SimTime deadline) {
  std::uint64_t fired = 0;
  Popped ev;
  while (!heap_.empty() && heap_[0].key.at <= deadline) {
    pop_next(ev);
    dispatch(ev);
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

std::uint64_t Scheduler::run_before(SimTime bound) {
  std::uint64_t fired = 0;
  Popped ev;
  while (!heap_.empty() && heap_[0].key.at < bound) {
    pop_next(ev);
    dispatch(ev);
    ++fired;
  }
  return fired;
}

bool Scheduler::run_one() {
  Popped ev;
  if (!pop_next(ev)) return false;
  dispatch(ev);
  return true;
}

std::uint64_t Scheduler::run_steps(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  Popped ev;
  while (fired < max_events && pop_next(ev)) {
    dispatch(ev);
    ++fired;
  }
  return fired;
}

void Scheduler::reset() {
  for (const HeapEntry& e : heap_) release(e.slot);
  heap_.clear();
  border_.clear();
  now_ = SimTime::zero();
  executed_ = 0;
}

}  // namespace icpda::sim
