// InlineFunction: a move-only callable wrapper with fixed inline storage.
//
// The simulator's hot paths hand callbacks around millions of times per run:
// event records and PDES mailbox messages, thread completions, disk
// completions, periodic ticks, flow deliveries, link completion sinks and
// egress-bucket providers, and index-server query completions. std::function heap-allocates any capture above ~16 bytes and its copy
// semantics force copyable captures; this wrapper instead constructs the
// callable inside a `Bytes`-sized buffer and never allocates. A capture that
// does not fit is a compile error, so a hot path cannot silently start
// spilling to the heap. Callers that must accept arbitrary callables (the
// event engine) box oversized ones explicitly and count the allocation.
//
// Trivially copyable captures (the common `[this, id, index]` shape) move by
// copying the buffer and need no destructor call; anything else moves and
// destroys through one type-erased manager function.
#ifndef PERFISO_SRC_UTIL_INLINE_FUNCTION_H_
#define PERFISO_SRC_UTIL_INLINE_FUNCTION_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace perfiso {

template <typename Sig, size_t Bytes>
class InlineFunction;

template <typename R, typename... Args, size_t Bytes>
class InlineFunction<R(Args...), Bytes> {
 public:
  static constexpr size_t kInlineBytes = Bytes;

  // True when a callable of type Fn can be stored in place.
  template <typename Fn>
  static constexpr bool kFits = sizeof(Fn) <= Bytes &&
                                alignof(Fn) <= alignof(std::max_align_t) &&
                                std::is_nothrow_move_constructible_v<Fn>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}

  template <typename Fn, typename = std::enable_if_t<
                             !std::is_same_v<std::decay_t<Fn>, InlineFunction> &&
                             !std::is_same_v<std::decay_t<Fn>, std::nullptr_t>>>
  InlineFunction(Fn&& fn) {
    Emplace(std::forward<Fn>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Constructs `fn` in place; the wrapper must be empty.
  template <typename Fn>
  void Emplace(Fn&& fn) {
    using Decayed = std::decay_t<Fn>;
    static_assert(std::is_invocable_r_v<R, Decayed&, Args...>,
                  "callable does not match the InlineFunction signature");
    static_assert(sizeof(Decayed) <= Bytes,
                  "capture exceeds the InlineFunction inline budget");
    static_assert(kFits<Decayed>, "callable must be nothrow-movable and max_align_t aligned");
    assert(invoke_ == nullptr);
    ::new (static_cast<void*>(buf_)) Decayed(std::forward<Fn>(fn));
    invoke_ = [](void* target, Args... args) -> R {
      return (*static_cast<Decayed*>(target))(std::forward<Args>(args)...);
    };
    if constexpr (!std::is_trivially_copyable_v<Decayed>) {
      manage_ = [](void* self, void* dest) {
        auto* source = static_cast<Decayed*>(self);
        if (dest != nullptr) {
          ::new (dest) Decayed(std::move(*source));
        }
        source->~Decayed();
      };
    }
  }

  R operator()(Args... args) { return invoke_(buf_, std::forward<Args>(args)...); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(buf_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  // Fills the (empty) storage with `byte` / checks that it still holds only
  // that byte. The event engine's SimSan mode poisons freed records with
  // these to catch writes through stale references.
  void FillStorage(unsigned char byte) {
    assert(invoke_ == nullptr);
    std::memset(buf_, byte, Bytes);
  }
  bool StorageFilledWith(unsigned char byte) const {
    if (invoke_ != nullptr || manage_ != nullptr) {
      return false;
    }
    for (unsigned char stored : buf_) {
      if (stored != byte) {
        return false;
      }
    }
    return true;
  }

 private:
  void MoveFrom(InlineFunction& other) {
    if (other.invoke_ == nullptr) {
      return;
    }
    if (other.manage_ != nullptr) {
      other.manage_(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, Bytes);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  // Zero-filled on construction so that moving a trivially copyable callable
  // (a whole-buffer copy) never reads indeterminate bytes.
  alignas(std::max_align_t) unsigned char buf_[Bytes] = {};
  R (*invoke_)(void*, Args...) = nullptr;
  // Moves the callable to `dest` (when non-null) and destroys the source;
  // null for trivially copyable callables.
  void (*manage_)(void* self, void* dest) = nullptr;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_INLINE_FUNCTION_H_
