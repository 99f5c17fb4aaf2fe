#ifndef FTMS_SIM_EVENT_QUEUE_H_
#define FTMS_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/profiler.h"

namespace ftms {

// Simulated time, in seconds (shared with Simulator).
using SimTime = double;

// Thread-local size-class slab for event-callback captures that do not fit
// the inline buffer. Freed blocks go onto a per-class free list and are
// handed straight back to the next allocation, so a steady-state simulation
// that churns large closures recycles the same few blocks instead of
// hitting the global allocator per event. Pages are owned by the thread and
// released at thread exit. Single-threaded by design (one simulator runs on
// one thread); blocks must be freed on the thread that allocated them.
class CallbackArena {
 public:
  static void* Alloc(size_t bytes) {
    const int cls = ClassOf(bytes);
    if (cls < 0) return ::operator new(bytes);
    Shard& s = shard();
    std::vector<void*>& free_list = s.free_lists[cls];
    if (free_list.empty()) Carve(s, cls);
    void* p = free_list.back();
    free_list.pop_back();
    return p;
  }

  static void Free(void* p, size_t bytes) {
    const int cls = ClassOf(bytes);
    if (cls < 0) {
      ::operator delete(p);
      return;
    }
    shard().free_lists[cls].push_back(p);
  }

 private:
  static constexpr size_t kClassBytes[] = {32, 64, 128, 256, 512};
  static constexpr int kNumClasses = 5;
  static constexpr size_t kPageBytes = 16 * 1024;

  struct Shard {
    std::vector<void*> free_lists[kNumClasses];
    std::vector<std::unique_ptr<unsigned char[]>> pages;
  };

  static Shard& shard() {
    static thread_local Shard s;
    return s;
  }

  static int ClassOf(size_t bytes) {
    for (int c = 0; c < kNumClasses; ++c) {
      if (bytes <= kClassBytes[c]) return c;
    }
    return -1;
  }

  static void Carve(Shard& s, int cls) {
    const size_t block = kClassBytes[cls];
    auto page = std::make_unique<unsigned char[]>(kPageBytes);
    unsigned char* base = page.get();
    s.pages.push_back(std::move(page));
    std::vector<void*>& free_list = s.free_lists[cls];
    for (size_t off = 0; off + block <= kPageBytes; off += block) {
      free_list.push_back(base + off);
    }
  }
};

// Move-only type-erased void() closure sized for the event queue's hot
// path: captures of up to three words that are trivially copyable and
// trivially destructible live INLINE in the event record — scheduling such
// an event performs no heap allocation at all (std::function spills its
// capture to the heap at 17+ bytes on libstdc++). Larger or non-trivial
// captures spill to the CallbackArena slab above. Inline callbacks are
// trivially relocatable, which is what lets the calendar queue shuffle
// event records between buckets with plain vector moves.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 3 * sizeof(void*);

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(void*) &&
                  std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      new (storage_.inline_bytes) Fn(std::forward<F>(f));
      invoke_ = [](EventCallback* self) {
        (*reinterpret_cast<Fn*>(self->storage_.inline_bytes))();
      };
      dispose_ = nullptr;  // trivially destructible: nothing to do
    } else if constexpr (alignof(Fn) <= 16) {
      void* mem = CallbackArena::Alloc(sizeof(Fn));
      storage_.heap = new (mem) Fn(std::forward<F>(f));
      invoke_ = [](EventCallback* self) {
        (*static_cast<Fn*>(self->storage_.heap))();
      };
      dispose_ = [](EventCallback* self) {
        Fn* fn = static_cast<Fn*>(self->storage_.heap);
        fn->~Fn();
        CallbackArena::Free(fn, sizeof(Fn));
      };
    } else {
      // Over-aligned captures (rare) bypass the slab.
      storage_.heap = new Fn(std::forward<F>(f));
      invoke_ = [](EventCallback* self) {
        (*static_cast<Fn*>(self->storage_.heap))();
      };
      dispose_ = [](EventCallback* self) {
        delete static_cast<Fn*>(self->storage_.heap);
      };
    }
  }

  EventCallback(EventCallback&& other) noexcept
      : invoke_(other.invoke_), dispose_(other.dispose_) {
    std::memcpy(&storage_, &other.storage_, sizeof(storage_));
    other.invoke_ = nullptr;
    other.dispose_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      if (dispose_ != nullptr) dispose_(this);
      invoke_ = other.invoke_;
      dispose_ = other.dispose_;
      std::memcpy(&storage_, &other.storage_, sizeof(storage_));
      other.invoke_ = nullptr;
      other.dispose_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() {
    if (dispose_ != nullptr) dispose_(this);
  }

  void operator()() { invoke_(this); }
  explicit operator bool() const { return invoke_ != nullptr; }
  // Whether the capture lives inline (no allocation) — observability hook
  // for tests and the microbenchmark.
  bool inlined() const { return invoke_ != nullptr && dispose_ == nullptr; }

 private:
  union Storage {
    alignas(void*) unsigned char inline_bytes[kInlineBytes];
    void* heap;
  };

  void (*invoke_)(EventCallback*) = nullptr;
  void (*dispose_)(EventCallback*) = nullptr;
  // Zeroed so a move copies defined bytes past a small capture.
  Storage storage_{};
};

// One pending event: absolute time, FIFO tie-break sequence, callback.
struct EventRec {
  SimTime time = 0;
  uint64_t seq = 0;
  EventCallback cb;
};

// Strict event order: by time, then by scheduling sequence (FIFO among
// equal timestamps). Every queue implementation must pop in exactly this
// order — it is the simulation's determinism contract.
inline bool EarlierEvent(const EventRec& a, const EventRec& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

// Priority-queue interface the Simulator runs on. Implementations must be
// totally ordered by EarlierEvent and stable under interleaved push/pop.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void Push(EventRec rec) = 0;
  // Moves the earliest event into `*out`; false when empty.
  virtual bool PopMin(EventRec* out) = 0;
  // Time of the earliest pending event. Requires size() > 0. Non-const:
  // the calendar advances its cursor lazily to locate the minimum.
  virtual SimTime MinTime() = 0;
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }
};

// Binary-heap queue: std::push_heap/pop_heap over a plain vector. The
// legacy engine (std::priority_queue) forced a const_cast to move the
// callback out of top(); pop_heap instead rotates the minimum to the back
// where it can be moved from cleanly. Kept as the differential oracle for
// the calendar queue — both must produce byte-identical simulations.
class HeapEventQueue final : public EventQueue {
 public:
  void Push(EventRec rec) override {
    FTMS_PROF_SCOPE("sim/queue/push");
    heap_.push_back(std::move(rec));
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  bool PopMin(EventRec* out) override {
    FTMS_PROF_SCOPE("sim/queue/pop");
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    *out = std::move(heap_.back());
    heap_.pop_back();
    return true;
  }

  SimTime MinTime() override {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  size_t size() const override { return heap_.size(); }

 private:
  // std::*_heap build a max-heap by `comp`; inverting the event order puts
  // the earliest event at the front.
  static bool Later(const EventRec& a, const EventRec& b) {
    return EarlierEvent(b, a);
  }

  std::vector<EventRec> heap_;
};

// Calendar queue (Brown 1988) with a sliding virtual-bucket window and an
// overflow heap, tuned for the simulation's dominant event mix: large
// batches of periodic events sharing a handful of distinct timestamps
// (scheduler cycles) plus a sparse tail of exponential failure/repair
// times. O(1) amortized push/pop versus the binary heap's O(log n), and a
// whole cycle's worth of same-time events lands in ONE bucket that is
// sorted once and drained linearly.
//
// Invariants:
//  * Virtual bucket vb(t) = floor(t / width). The window covers virtual
//    buckets [cur_vb, cur_vb + nb); bucket (vb & (nb-1)) holds exactly the
//    events of ONE in-window virtual bucket (distinct in-window vbs map to
//    distinct slots). Events at or past the window's end wait in a
//    min-heap (`overflow_`) and are promoted as the window slides over
//    them, so a far-future event costs two O(log) heap touches rather
//    than an unbounded bucket walk.
//  * Buckets are unsorted until first drained (sorted lazily by
//    (time, seq)); a push into the partially drained current bucket does
//    a sorted insert into the undrained tail, preserving pop order.
//  * Pop order is exactly EarlierEvent: every overflow event's time is at
//    least the window end, hence strictly after every in-window event,
//    and FIFO ties share a timestamp, hence a virtual bucket, hence a
//    slot, where the (time, seq) sort orders them.
//  * The bucket count tracks the population (grow at size > 2*nb, shrink
//    at size < nb/8) and the width is re-estimated from the median
//    positive gap between adjacent event times at each resize, so the
//    queue adapts to both the cycle-dominated and the exponential mixes.
class CalendarEventQueue final : public EventQueue {
 public:
  CalendarEventQueue() { Rebuild(kMinBuckets, 1.0, 0); }

  void Push(EventRec rec) override {
    FTMS_PROF_SCOPE("sim/queue/push");
    ++size_;
    if (InWindow(rec.time)) {
      InsertBucket(std::move(rec));
    } else {
      overflow_.push_back(std::move(rec));
      std::push_heap(overflow_.begin(), overflow_.end(), LaterRec);
    }
    if (size_ > 2 * num_buckets_ && num_buckets_ < kMaxBuckets) {
      Resize(num_buckets_ * 2);
    } else if (hot_inserts_ > 64 && hot_inserts_ > size_) {
      // The width has gone stale: pushes keep landing MID-bucket in the
      // partially drained current bucket (each one an O(bucket) shuffle),
      // which means one bucket is absorbing the whole near future. Keep
      // the bucket count but re-estimate the width from the current
      // population. Amortized O(1): at least size_ hot inserts between
      // re-tunes.
      Resize(num_buckets_);
    }
  }

  bool PopMin(EventRec* out) override {
    FTMS_PROF_SCOPE("sim/queue/pop");
    if (size_ == 0) return false;
    AdvanceToMin();
    std::vector<EventRec>& bucket = buckets_[CurSlot()];
    *out = std::move(bucket[cur_next_]);
    ++cur_next_;
    if (cur_next_ == bucket.size()) {
      bucket.clear();
      cur_next_ = 0;
      cur_sorted_ = false;
    }
    --in_window_;
    --size_;
    if (size_ < num_buckets_ / 8 && num_buckets_ > kMinBuckets) {
      Resize(num_buckets_ / 2);
    }
    return true;
  }

  SimTime MinTime() override {
    assert(size_ > 0);
    AdvanceToMin();
    return buckets_[CurSlot()][cur_next_].time;
  }

  size_t size() const override { return size_; }

  // Introspection for tests/benchmarks.
  size_t num_buckets() const { return num_buckets_; }
  size_t overflow_size() const { return overflow_.size(); }
  double bucket_width() const { return width_; }

 private:
  static constexpr size_t kMinBuckets = 32;
  static constexpr size_t kMaxBuckets = size_t{1} << 20;
  // Virtual-bucket ceiling: t/width beyond this collapses into one final
  // bucket (still correctly ordered by the in-bucket sort) instead of
  // overflowing the uint64 cast.
  static constexpr double kMaxVb = 4.6e18;

  static bool LaterRec(const EventRec& a, const EventRec& b) {
    return EarlierEvent(b, a);
  }

  size_t CurSlot() const { return cur_vb_ & (num_buckets_ - 1); }

  double ClampedVb(SimTime t) const {
    double dvb = t / width_;
    if (!(dvb < kMaxVb)) dvb = kMaxVb;  // also catches NaN/inf
    return dvb;
  }

  bool InWindow(SimTime t) const {
    return ClampedVb(t) < static_cast<double>(cur_vb_ + num_buckets_);
  }

  uint64_t VirtualBucket(SimTime t) const {
    const double dvb = ClampedVb(t);
    // Events behind the cursor (clock already inside their virtual
    // bucket, or clamped) belong to the current bucket; the in-bucket
    // sort still places them first.
    if (dvb <= static_cast<double>(cur_vb_)) return cur_vb_;
    return static_cast<uint64_t>(dvb);
  }

  void InsertBucket(EventRec rec) {
    const uint64_t vb = VirtualBucket(rec.time);
    std::vector<EventRec>& bucket = buckets_[vb & (num_buckets_ - 1)];
    if (vb == cur_vb_ && cur_sorted_) {
      // Keep the partially drained current bucket's tail ordered. An
      // insert before the end is the width-staleness signal (see Push):
      // same-time FIFO appends land AT the end and are cheap, but a
      // mid-bucket insert means later events were already queued here.
      auto it = std::upper_bound(
          bucket.begin() + static_cast<ptrdiff_t>(cur_next_), bucket.end(),
          rec, EarlierEvent);
      if (it != bucket.end()) ++hot_inserts_;
      bucket.insert(it, std::move(rec));
    } else {
      bucket.push_back(std::move(rec));
    }
    ++in_window_;
  }

  void PromoteOverflow() {
    while (!overflow_.empty() && InWindow(overflow_.front().time)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), LaterRec);
      EventRec rec = std::move(overflow_.back());
      overflow_.pop_back();
      InsertBucket(std::move(rec));
    }
  }

  // Positions the cursor on the bucket holding the earliest event and
  // sorts it. Requires size_ > 0.
  void AdvanceToMin() {
    if (in_window_ == 0) JumpToOverflow();
    while (buckets_[CurSlot()].empty()) {
      ++cur_vb_;
      cur_sorted_ = false;
      PromoteOverflow();
      if (in_window_ == 0) JumpToOverflow();
    }
    if (!cur_sorted_) {
      std::vector<EventRec>& bucket = buckets_[CurSlot()];
      std::sort(bucket.begin() + static_cast<ptrdiff_t>(cur_next_),
                bucket.end(), EarlierEvent);
      cur_sorted_ = true;
    }
  }

  // Empty window, non-empty overflow: skip the cursor straight to the
  // overflow minimum's virtual bucket instead of stepping one empty
  // bucket at a time across a (possibly enormous) gap.
  void JumpToOverflow() {
    assert(!overflow_.empty());
    const uint64_t vb = VirtualBucket(overflow_.front().time);
    if (vb > cur_vb_) {
      cur_vb_ = vb;
      cur_sorted_ = false;
    }
    PromoteOverflow();
  }

  // Re-estimates the bucket width from the median positive gap between
  // adjacent event times (2x median: a bucket then typically covers a
  // couple of distinct timestamps) and redistributes every event over
  // `new_nb` buckets. Amortized O(1) per event by the doubling/halving
  // triggers.
  void Resize(size_t new_nb) {
    std::vector<EventRec> all;
    all.reserve(size_);
    for (size_t i = 0; i < num_buckets_; ++i) {
      std::vector<EventRec>& bucket = buckets_[i];
      const size_t first = (i == CurSlot()) ? cur_next_ : 0;
      for (size_t j = first; j < bucket.size(); ++j) {
        all.push_back(std::move(bucket[j]));
      }
      bucket.clear();
    }
    for (EventRec& rec : overflow_) all.push_back(std::move(rec));
    overflow_.clear();
    std::sort(all.begin(), all.end(), EarlierEvent);

    double width = width_;
    if (all.size() >= 2) {
      std::vector<double> gaps;
      const size_t sample = all.size() < 1025 ? all.size() : 1025;
      gaps.reserve(sample);
      for (size_t i = 1; i < sample; ++i) {
        const double gap = all[i].time - all[i - 1].time;
        if (gap > 0) gaps.push_back(gap);
      }
      if (!gaps.empty()) {
        auto mid = gaps.begin() + static_cast<ptrdiff_t>(gaps.size() / 2);
        std::nth_element(gaps.begin(), mid, gaps.end());
        const double w = 2.0 * *mid;
        if (w > 0 && w < 1e300) width = w;
      }
    }

    const uint64_t start_vb =
        all.empty() ? 0
                    : static_cast<uint64_t>(
                          all.front().time / width < kMaxVb
                              ? all.front().time / width
                              : kMaxVb);
    Rebuild(new_nb, width, start_vb);
    for (EventRec& rec : all) {
      if (InWindow(rec.time)) {
        InsertBucket(std::move(rec));
      } else {
        overflow_.push_back(std::move(rec));
      }
    }
    // `all` was sorted, so the overflow vector is heap-ordered already;
    // make it explicit for the heap algorithms.
    std::make_heap(overflow_.begin(), overflow_.end(), LaterRec);
  }

  void Rebuild(size_t nb, double width, uint64_t start_vb) {
    assert((nb & (nb - 1)) == 0 && "bucket count must be a power of two");
    buckets_.clear();
    buckets_.resize(nb);
    num_buckets_ = nb;
    width_ = width;
    cur_vb_ = start_vb;
    cur_next_ = 0;
    cur_sorted_ = false;
    in_window_ = 0;
    hot_inserts_ = 0;
  }

  std::vector<std::vector<EventRec>> buckets_;
  std::vector<EventRec> overflow_;  // min-heap by (time, seq)
  size_t num_buckets_ = 0;
  double width_ = 1.0;
  uint64_t cur_vb_ = 0;     // virtual bucket the cursor is on
  size_t cur_next_ = 0;     // drained prefix of the current bucket
  bool cur_sorted_ = false; // current bucket sorted from cur_next_ on
  size_t in_window_ = 0;    // events in buckets (rest in overflow_)
  size_t size_ = 0;
  size_t hot_inserts_ = 0;  // mid-bucket sorted inserts since last resize
};

// Queue implementation selector. The calendar queue is the engine default;
// the heap is the differential oracle (and an escape hatch), selected via
// FTMS_EVENT_QUEUE=heap.
enum class EventQueueKind { kHeap, kCalendar };

// Resolves FTMS_EVENT_QUEUE ("heap" | "calendar"; default calendar).
EventQueueKind EventQueueKindFromEnv();

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind);

}  // namespace ftms

#endif  // FTMS_SIM_EVENT_QUEUE_H_
