// Move-only type-erased callable with small-buffer optimisation.
//
// UniqueFunction<R(Args...), InlineBytes> is the tree's hot-path replacement
// for std::function: the discrete-event kernel stores a UniqueCallback
// (= UniqueFunction<void()>) per scheduled event, inline in its slab slot,
// and the device models use the same template for IO completions
// (sim::IoCallback), NAND op completions, resource-queue waiters and
// governor admissions — so the common schedule/fire/complete path never
// touches the heap.
//
// The inline capacity is per-instantiation because the sizes feed each
// other: the largest hot-path capture in the tree is the HDD's per-stage
// continuation {this, PendingOp} (PendingOp = IoRequest, submit TimeNs,
// IoCallback), and it only fits the kernel slot if IoCallback itself stays
// small. The default 72 bytes sizes the kernel slot for exactly that capture
// (8 + 24 + 8 + 32 = 72 with the 32-byte IoCallback); IoCallback uses a
// 24-byte buffer so its footprint matches the libstdc++ std::function it
// replaced. Smaller captures — the SSD's pooled-context stages
// ({this, ctx*}, 16 B), the NandArray's per-die events ({this, die}, 16 B),
// bare [this] lambdas (8 B) — fit with room to spare. Callables that are
// larger, over-aligned, or throwing-move fall back to a single heap
// allocation, so arbitrary captures stay correct, just slower.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pas::sim {

template <typename Sig, std::size_t InlineBytes = 72>
class UniqueFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class UniqueFunction<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  UniqueFunction() noexcept = default;

  template <typename F,
            typename Fn = std::remove_cv_t<std::remove_reference_t<F>>,
            typename = std::enable_if_t<!std::is_same_v<Fn, UniqueFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(f));
  }

  // Constructs the callable directly into the inline buffer (or its heap
  // fallback), replacing any previous one. The kernel's schedule path uses
  // this to build the capture in its slab slot with no intermediate moves.
  template <typename F,
            typename Fn = std::remove_cv_t<std::remove_reference_t<F>>,
            typename = std::enable_if_t<!std::is_same_v<Fn, UniqueFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  // Like emplace() but skips the reset: the caller guarantees *this is empty.
  // The kernel's schedule path uses it — a recycled slab slot always had its
  // callback consumed by fire or cancel before it reached the free list.
  template <typename F,
            typename Fn = std::remove_cv_t<std::remove_reference_t<F>>,
            typename = std::enable_if_t<!std::is_same_v<Fn, UniqueFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  void construct(F&& f) {
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  // Relocating overload: an already-erased callable moves straight into the
  // slot — no second layer of wrapping. Callers that take a UniqueFunction
  // parameter (e.g. the FTL's Defer) hand it to the kernel through this.
  void construct(UniqueFunction&& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) relocate_from(o);
  }

  UniqueFunction(UniqueFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      relocate_from(o);
    }
  }

  UniqueFunction& operator=(UniqueFunction&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        relocate_from(o);
      }
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Const like std::function's: invoking does not re-seat the erased
  // callable, and completion chains routinely call a captured-by-value
  // continuation from a non-mutable lambda.
  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(buf_), std::forward<Args>(args)...);
  }

  // Fire-path fusion: invokes the callable, then tears it down, in a single
  // indirect dispatch (invoke_destroy) instead of invoke + destroy. Leaves
  // this callable empty.
  R invoke_and_reset(Args... args) {
    const Ops* ops = ops_;
    ops_ = nullptr;
    return ops->invoke_destroy(buf_, std::forward<Args>(args)...);
  }

  friend bool operator==(const UniqueFunction& f, std::nullptr_t) noexcept { return !f; }
  friend bool operator==(std::nullptr_t, const UniqueFunction& f) noexcept { return !f; }
  friend bool operator!=(const UniqueFunction& f, std::nullptr_t) noexcept {
    return static_cast<bool>(f);
  }
  friend bool operator!=(std::nullptr_t, const UniqueFunction& f) noexcept {
    return static_cast<bool>(f);
  }

 private:
  // `relocate` / `destroy` are null when a plain memcpy / no-op suffices
  // (trivially copyable / trivially destructible callables — the overwhelming
  // majority of captures in this tree), so the hot move and teardown paths
  // are a predictable branch instead of an indirect call.
  struct Ops {
    R (*invoke)(void*, Args&&...);
    R (*invoke_destroy)(void*, Args&&...);  // invoke, then destroy, one dispatch
    // Move-constructs `dst` from `src` and destroys `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;  // bytes occupied in the buffer (for memcpy relocation)
  };

  void relocate_from(UniqueFunction& o) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(o.buf_, buf_);
    } else {
      std::memcpy(buf_, o.buf_, ops_->size);
    }
    o.ops_ = nullptr;
  }

  template <typename Fn>
  struct InlineOps {
    static Fn* get(void* p) noexcept { return std::launder(reinterpret_cast<Fn*>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*get(p))(std::forward<Args>(args)...);
    }
    static R invoke_destroy(void* p, Args&&... args) {
      Fn* f = get(p);
      if constexpr (std::is_void_v<R>) {
        (*f)(std::forward<Args>(args)...);
        f->~Fn();
      } else {
        R r = (*f)(std::forward<Args>(args)...);
        f->~Fn();
        return r;
      }
    }
    static void relocate(void* src, void* dst) noexcept {
      Fn* s = get(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { get(p)->~Fn(); }
    static constexpr Ops ops{
        &invoke, &invoke_destroy,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy, sizeof(Fn)};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& get(void* p) noexcept { return *std::launder(reinterpret_cast<Fn**>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*get(p))(std::forward<Args>(args)...);
    }
    static R invoke_destroy(void* p, Args&&... args) {
      Fn* f = get(p);
      if constexpr (std::is_void_v<R>) {
        (*f)(std::forward<Args>(args)...);
        delete f;
      } else {
        R r = (*f)(std::forward<Args>(args)...);
        delete f;
        return r;
      }
    }
    static void destroy(void* p) noexcept { delete get(p); }
    // The payload is an owning raw pointer: memcpy relocation is always
    // correct, but the heap object must still be deleted.
    static constexpr Ops ops{&invoke, &invoke_destroy, nullptr, &destroy, sizeof(Fn*)};
  };

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

// The kernel's event-slot callback type; the name predates the general
// template and is used throughout the tree.
using UniqueCallback = UniqueFunction<void()>;

}  // namespace pas::sim
