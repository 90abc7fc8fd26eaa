#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
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
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    gens_.push_back(0);
    fns_.emplace_back();
  }
  fns_[s] = std::move(fn);
  slots_[s].key = key;
  slots_[s].owner = owner;
  file(s);
  if (border) index_border(key, s);
  return encode(s, gens_[s]);
}

std::uint64_t Scheduler::radix(SimTime t) {
  return std::bit_cast<std::uint64_t>(t.seconds()) & ~(std::uint64_t{1} << 63);
}

void Scheduler::file(std::uint32_t s) {
  const std::uint64_t key = radix(slots_[s].key.at);
  if (key <= origin_) {
    slots_[s].pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(s);
    sift_up(heap_.size() - 1);
    return;
  }
  const int k = std::bit_width(key ^ origin_) - 1;
  std::vector<std::uint32_t>& bucket = buckets_[k];
  slots_[s].pos = kInBucket | static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(s);
  nonempty_ |= std::uint64_t{1} << k;
}

bool Scheduler::fill_heap() {
  if (!heap_.empty()) return true;
  if (nonempty_ == 0) return false;
  // Every event of the lowest non-empty bucket k agrees with the origin
  // above bit k and has bit k set, so with the origin moved to their
  // minimum each one either equals it (-> heap) or first differs from
  // it below bit k: none re-files into k, and higher buckets keep
  // their index.
  const int k = std::countr_zero(nonempty_);
  std::vector<std::uint32_t>& bucket = buckets_[k];
  std::uint64_t low = radix(slots_[bucket.front()].key.at);
  for (const std::uint32_t s : bucket) low = std::min(low, radix(slots_[s].key.at));
  origin_ = low;
  for (const std::uint32_t s : bucket) file(s);
  bucket.clear();
  nonempty_ &= ~(std::uint64_t{1} << k);
  return true;
}

// Out of line deliberately: only sharded runs ever tag border events,
// and inlining the push_heap machinery doubles at()'s code size for
// everyone else.
void Scheduler::index_border(const EventKey& key, std::uint32_t s) {
  border_.push_back(BorderEntry{key, s, gens_[s]});
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
    if (gens_[top.slot] == top.gen && slots_[top.slot].pos != kNotQueued) {
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
  if (s >= slots_.size()) return false;
  const std::uint32_t pos = slots_[s].pos;
  if (gens_[s] != gen || pos == kNotQueued) return false;  // fired or stale
  if ((pos & kInBucket) != 0) {
    unbucket(s);
  } else {
    remove_at(pos);
  }
  release(s);
  return true;
}

void Scheduler::sift_up(std::size_t pos) {
  const std::uint32_t e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    const std::uint32_t p = heap_[parent];
    if (!before(e, p)) break;
    heap_[pos] = p;
    slots_[p].pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  slots_[e].pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const std::uint32_t e = heap_[pos];
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    const std::uint32_t b = heap_[best];
    if (!before(b, e)) break;
    heap_[pos] = b;
    slots_[b].pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  slots_[e].pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::remove_at(std::size_t pos) {
  const std::uint32_t moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  heap_[pos] = moved;
  // The replacement came from the bottom: it can only need to move
  // down, unless the removal hole was below its parent (possible when
  // removing from the middle) — try both; one is a no-op.
  sift_up(pos);
  sift_down(slots_[moved].pos);
}

void Scheduler::unbucket(std::uint32_t s) {
  // The bucket follows from the fire time, as in file().
  const int k = std::bit_width(radix(slots_[s].key.at) ^ origin_) - 1;
  std::vector<std::uint32_t>& bucket = buckets_[k];
  const std::uint32_t idx = slots_[s].pos & ~kInBucket;
  const std::uint32_t moved = bucket.back();
  bucket[idx] = moved;
  slots_[moved].pos = kInBucket | idx;
  bucket.pop_back();
  if (bucket.empty()) nonempty_ &= ~(std::uint64_t{1} << k);
}

void Scheduler::release(std::uint32_t s) {
  fns_[s] = nullptr;  // drop captured state now, not at slot reuse
  slots_[s].pos = kNotQueued;
  ++gens_[s];
  free_slots_.push_back(s);
}

bool Scheduler::pop_next(Popped& out) {
  if (!fill_heap()) return false;
  const std::uint32_t s = heap_[0];
  Entry& e = slots_[s];
  out.at = e.key.at;
  out.owner = e.owner;
  out.fn = std::move(fns_[s]);  // move empties the slab cell
  e.pos = kNotQueued;
  ++gens_[s];
  free_slots_.push_back(s);
  const std::uint32_t moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = moved;
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
  while (fill_heap() && slots_[heap_[0]].key.at <= deadline) {
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
  while (fill_heap() && slots_[heap_[0]].key.at < bound) {
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
  for (const std::uint32_t s : heap_) release(s);
  heap_.clear();
  for (std::vector<std::uint32_t>& bucket : buckets_) {
    for (const std::uint32_t s : bucket) release(s);
    bucket.clear();
  }
  nonempty_ = 0;
  origin_ = 0;
  border_.clear();
  now_ = SimTime::zero();
  executed_ = 0;
}

std::size_t Scheduler::pending() const {
  std::size_t n = heap_.size();
  for (std::uint64_t m = nonempty_; m != 0; m &= m - 1) {
    n += buckets_[std::countr_zero(m)].size();
  }
  return n;
}

std::size_t Scheduler::footprint_bytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Entry) +
                      gens_.capacity() * sizeof(std::uint32_t) +
                      fns_.capacity() * sizeof(EventFn) +
                      free_slots_.capacity() * sizeof(std::uint32_t) +
                      heap_.capacity() * sizeof(std::uint32_t) +
                      border_.capacity() * sizeof(BorderEntry);
  for (const std::vector<std::uint32_t>& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace icpda::sim
