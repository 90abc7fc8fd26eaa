// Event identity and callback types for the discrete-event kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace icpda::sim {

/// Opaque identifier of a scheduled event; used to cancel it.
///
/// Ids are unique within one Scheduler for the lifetime of the
/// simulation: the encoding carries a per-slot generation counter, so
/// a stale id (fired, cancelled, or from before a reset()) can never
/// alias a live event and cancel() on it is a safe no-op.
enum class EventId : std::uint64_t {};

/// Callback executed when an event fires. Events carry no payload of
/// their own; closures capture whatever state they need.
///
/// Dispatch order is the canonical EventKey (fire time, schedule time,
/// creator, creator-local counter) that reproducibility rests on; the
/// EventId plays no part in it (see scheduler.h).
///
/// Move-only with small-buffer storage (DESIGN.md §5i): a simulation
/// at N = 1000 dispatches ~10^5 events per epoch, and std::function's
/// 16-byte inline budget sent nearly every closure through the heap.
/// The 48-byte buffer holds all of the kernel's hot closures — channel
/// delivery (this + shared Frame + ids), the MAC's tx-done/backoff/ACK
/// continuations (this + at most a 40-byte Frame) — so steady-state
/// event traffic allocates nothing. Oversized captures fall back to a
/// single heap cell; behaviour is identical either way.
class EventFn {
 public:
  /// Inline capture budget. Raising it grows every scheduler slot;
  /// the current hot-closure high-water mark is the MAC's deferred
  /// ACK (this + 40-byte Frame = 48).
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kOps<D, /*Inline=*/true>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kOps<D, /*Inline=*/false>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    /// Move-construct the callable into `dst` storage and destroy the
    /// one in `src` (for the heap case this just relocates a pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* obj) noexcept;
  };

  template <typename D>
  static D* as(void* p) noexcept {
    return std::launder(reinterpret_cast<D*>(p));
  }

  template <typename D, bool Inline>
  struct Vtbl {
    static void invoke(void* p) {
      if constexpr (Inline) {
        (*as<D>(p))();
      } else {
        (**as<D*>(p))();
      }
    }
    static void relocate(void* dst, void* src) noexcept {
      if constexpr (Inline) {
        D* s = as<D>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      } else {
        ::new (dst) D*(*as<D*>(src));
      }
    }
    static void destroy(void* p) noexcept {
      if constexpr (Inline) {
        as<D>(p)->~D();
      } else {
        delete *as<D*>(p);
      }
    }
  };

  template <typename D, bool Inline>
  static constexpr Ops kOps{&Vtbl<D, Inline>::invoke, &Vtbl<D, Inline>::relocate,
                            &Vtbl<D, Inline>::destroy};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void move_from(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace icpda::sim
