#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::sim {

namespace {
struct HeapGreater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a > b;
  }
};

inline size_t id_hash(uint64_t id) {
  // Fibonacci multiplicative hash; ids are dense so this spreads them well.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> 17);
}
}  // namespace

// ---------------------------------------------------------------------------
// id -> slot open-addressed map
// ---------------------------------------------------------------------------

void EventQueue::map_grow() {
  size_t cap = map_cells_.empty() ? 64 : map_cells_.size() * 2;
  std::vector<MapCell> old = std::move(map_cells_);
  map_cells_.assign(cap, MapCell{});
  map_count_ = 0;
  for (const MapCell& c : old)
    if (c.id != 0) map_insert(c.id, c.slot);
}

void EventQueue::map_insert(EventId id, size_t slot) {
  if (map_cells_.empty() || map_count_ * 10 >= map_cells_.size() * 7)
    map_grow();
  size_t mask = map_cells_.size() - 1;
  size_t i = id_hash(id) & mask;
  while (map_cells_[i].id != 0) i = (i + 1) & mask;
  map_cells_[i] = MapCell{id, slot};
  ++map_count_;
}

bool EventQueue::map_erase(EventId id, size_t* slot_out) {
  if (map_cells_.empty()) return false;
  size_t mask = map_cells_.size() - 1;
  size_t i = id_hash(id) & mask;
  while (map_cells_[i].id != id) {
    if (map_cells_[i].id == 0) return false;
    i = (i + 1) & mask;
  }
  *slot_out = map_cells_[i].slot;
  // Backward-shift deletion keeps probe chains tombstone-free.
  map_cells_[i].id = 0;
  --map_count_;
  size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (map_cells_[j].id == 0) break;
    size_t ideal = id_hash(map_cells_[j].id) & mask;
    if (((j - ideal) & mask) >= ((j - i) & mask)) {
      map_cells_[i] = map_cells_[j];
      map_cells_[j].id = 0;
      i = j;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

EventQueue::EventId EventQueue::schedule(Time t, EventFn fn) {
  return schedule_keyed(EventKey{t, 0, insert_seq_++}, 0, std::move(fn));
}

EventQueue::EventId EventQueue::schedule_keyed(const EventKey& key,
                                               uint32_t owner, EventFn fn) {
  EventId id = reserve_id();
  schedule_reserved(id, key, owner, std::move(fn));
  return id;
}

void EventQueue::schedule_reserved(EventId id, const EventKey& key,
                                   uint32_t owner, EventFn fn) {
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    entries_[slot] = Entry{id, owner, key, std::move(fn)};
  } else {
    slot = entries_.size();
    entries_.push_back(Entry{id, owner, key, std::move(fn)});
  }
  map_insert(id, slot);
  heap_.push_back(HeapItem{key, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
  ++live_count_;
}

void EventQueue::free_slot(size_t slot) {
  Entry& e = entries_[slot];
  e.id = 0;
  e.fn = nullptr;  // release captures promptly (payloads, shared_ptrs)
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  size_t slot;
  if (!map_erase(id, &slot)) return;  // unknown or already popped
  SPBC_ASSERT(entries_[slot].id == id);
  free_slot(slot);
  --live_count_;
  maybe_compact();
}

void EventQueue::maybe_compact() {
  // Stale heap items (cancelled events) are dropped lazily as they surface;
  // bound their buildup so cancel-heavy storms cannot bloat the heap.
  if (heap_.size() <= 64 || heap_.size() <= 2 * live_count_) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapItem& it) { return stale(it); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), HeapGreater{});
}

void EventQueue::drop_stale_top() const {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
    heap_.pop_back();
  }
}

const EventKey& EventQueue::next_key() const {
  drop_stale_top();
  SPBC_ASSERT_MSG(!heap_.empty(), "next_key on empty queue");
  return heap_.front().key;
}

EventQueue::Popped EventQueue::pop_keyed() {
  drop_stale_top();
  SPBC_ASSERT_MSG(!heap_.empty(), "pop on empty queue");
  HeapItem top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
  heap_.pop_back();
  Entry& e = entries_[top.slot];
  SPBC_ASSERT(e.id == top.id);
  Popped out{top.key, e.owner, std::move(e.fn)};
  size_t slot;
  map_erase(top.id, &slot);
  free_slot(top.slot);
  --live_count_;
  return out;
}

std::pair<Time, EventQueue::EventFn> EventQueue::pop() {
  Popped p = pop_keyed();
  return {p.key.t, std::move(p.fn)};
}

}  // namespace spbc::sim
