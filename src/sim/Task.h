//===-- sim/Task.h - Coroutine tasks for simulated threads -----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal coroutine task type used to express simulated threads. Library
/// operations (enqueue, pop, exchange, ...) are coroutines returning
/// Task<T>; every simulated memory access is a `co_await` that suspends to
/// the scheduler, making memory accesses the only preemption points — the
/// granularity at which the model checker interleaves threads.
///
/// Tasks are lazy (started when first awaited/resumed) and owning
/// (destroying a Task destroys its coroutine frame and, transitively, the
/// frames of the child tasks held in its locals). Continuations are chained
/// by *explicit* resumption from void-returning await_suspend rather than
/// symmetric transfer: GCC 12's codegen for handle-returning await_suspend
/// miscompiles conditional awaits of tasks that themselves contain
/// conditional awaits (the suspended chain loses its pending leaf). The
/// explicit form costs one native stack frame per nesting level, which is
/// bounded by the library call depth (< 10).
///
/// Inside an execution engine (sim/Engine.h) coroutine frames come from
/// the engine's detail::FrameArena, a fixed block whose addresses never
/// move; elsewhere they come from operator new. The copy-on-write engine
/// snapshots an execution's frames by copying the arena's used bytes and
/// resumes it by copying them back to the same addresses, so every pointer
/// and handle inside the frames stays valid. That copy is outside the C++
/// object model: it relies on GCC and Clang laying a frame out as plain
/// bytes that a resume reads back, which the engine's root-replay A/B
/// tests check. It also fixes one rule for every coroutine a simulated
/// thread runs:
///
///   No local that owns heap memory (a std::string, a std::vector, a
///   std::function, a unique_ptr, ...) may live across a co_await.
///
/// A restore would revive such a local's pointer to a block that a later
/// destructor already freed, and a frame abandoned by a restore is never
/// destroyed, so its heap block would leak. Keep such state in the body's
/// own objects, saved through Workload::Body::CowSave, or in the machine.
/// The one exception is a parameter of a thread's root coroutine that the
/// coroutine never modifies (an op list taken by value): the root frame
/// lives from Setup to the next root run, so its parameters' heap blocks
/// outlive every snapshot of it.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_TASK_H
#define COMPASS_SIM_TASK_H

#include "support/Error.h"

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include <sanitizer/asan_interface.h>

namespace compass::sim {

namespace detail {

/// The coroutine frames of one execution engine's executions, in one
/// fixed block allocated once (DESIGN.md Section 11). The block's first
/// bytes hold the heads of the free lists, one per size class (frames up
/// to MaxPooled bytes, rounded up to Granule); a freed block of a class
/// keeps its list link in its own first bytes. Blocks are handed out from
/// a free list or bumped off the used end, and frames larger than
/// MaxPooled are never reused before the next clear(). The whole
/// allocator state is therefore the used bytes [0, used()): copying them
/// out and back (restore()) rewinds every frame and the free lists at
/// once. A block freed after a copy comes back with its frame; a block
/// taken after a copy is abandoned, its frame never destroyed. Bytes past
/// used() are poisoned under AddressSanitizer.
///
/// Frames are routed here while a Scope is active on the thread; a frame
/// must be destroyed under a Scope of its own arena.
class FrameArena {
public:
  FrameArena() : Base(new unsigned char[Capacity]) {
    ASAN_POISON_MEMORY_REGION(Base, Capacity);
    clear();
  }
  ~FrameArena() {
    ASAN_UNPOISON_MEMORY_REGION(Base, Capacity);
    delete[] Base;
  }
  FrameArena(const FrameArena &) = delete;
  FrameArena &operator=(const FrameArena &) = delete;

  void *allocate(std::size_t Size) {
    const std::size_t C = sizeClass(Size);
    if (C < NumClasses) {
      if (Block *B = heads()[C]) {
        heads()[C] = B->Next;
        return B;
      }
      return bump(blockSize(C));
    }
    return bump(roundUp(Size));
  }

  void deallocate(void *P, std::size_t Size) noexcept {
    const std::size_t C = sizeClass(Size);
    if (C >= NumClasses)
      return;
    Block *B = static_cast<Block *>(P);
    B->Next = heads()[C];
    heads()[C] = B;
  }

  bool owns(const void *P) const {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    return B >= Base && B < Base + Capacity;
  }

  /// The bytes in use: the free-list heads and every block handed out
  /// since the last clear().
  std::size_t used() const { return Mark; }
  const unsigned char *data() const { return Base; }

  /// Empties the arena. Every frame in it must have been destroyed.
  void clear() {
    setMark(HeadBytes);
    std::memset(Base, 0, HeadBytes);
  }

  /// Rewinds to a state whose used bytes \p Bytes (\p N of them) were
  /// copied out earlier (see class comment).
  void restore(const unsigned char *Bytes, std::size_t N) {
    setMark(N);
    std::memcpy(Base, Bytes, N);
  }

  /// Routes the frames this thread allocates to \p A, and their frees
  /// back to it, until the scope ends. Scopes nest.
  class Scope {
  public:
    explicit Scope(FrameArena &A) : Prev(Current) { Current = &A; }
    ~Scope() { Current = Prev; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    FrameArena *Prev;
  };

  /// The arena of the innermost active Scope on this thread, or null.
  static FrameArena *current() { return Current; }

private:
  static constexpr std::size_t Granule = 64;
  static constexpr std::size_t MaxPooled = 2048;
  static constexpr std::size_t NumClasses = MaxPooled / Granule;
  static constexpr std::size_t Capacity = std::size_t(1) << 20;

  struct Block {
    Block *Next;
  };
  static constexpr std::size_t HeadBytes = NumClasses * sizeof(Block *);
  static_assert(HeadBytes % Granule == 0, "blocks must stay aligned");

  static std::size_t sizeClass(std::size_t Size) {
    return (Size + Granule - 1) / Granule - 1;
  }
  static std::size_t blockSize(std::size_t C) { return (C + 1) * Granule; }
  static std::size_t roundUp(std::size_t Size) {
    return (Size + Granule - 1) / Granule * Granule;
  }

  Block **heads() { return reinterpret_cast<Block **>(Base); }

  void *bump(std::size_t N) {
    if (N > Capacity - Mark)
      fatalError("coroutine frame arena exhausted");
    void *P = Base + Mark;
    setMark(Mark + N);
    return P;
  }

  /// Moves the used end, keeping exactly the bytes past it poisoned.
  void setMark(std::size_t N) {
    if (N > Mark)
      ASAN_UNPOISON_MEMORY_REGION(Base + Mark, N - Mark);
    else
      ASAN_POISON_MEMORY_REGION(Base + N, Mark - N);
    Mark = N;
  }

  unsigned char *Base;
  std::size_t Mark = 0;

  static inline thread_local FrameArena *Current = nullptr;
};

/// State shared by all task promises: the continuation to resume when the
/// task completes (the awaiting parent coroutine, if any). Frames are
/// allocated from the current FrameArena, if any.
struct PromiseBase {
  std::coroutine_handle<> Continuation;

  static void *operator new(std::size_t Size) {
    if (FrameArena *A = FrameArena::current())
      return A->allocate(Size);
    return ::operator new(Size);
  }
  static void operator delete(void *P, std::size_t Size) noexcept {
    FrameArena *A = FrameArena::current();
    if (A && A->owns(P))
      A->deallocate(P, Size);
    else
      ::operator delete(P, Size);
  }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }

    template <typename PromiseT>
    void await_suspend(std::coroutine_handle<PromiseT> H) noexcept {
      // Copy out of the frame: resuming the continuation may destroy this
      // task's frame (the parent's co_await full-expression ends); nothing
      // frame-resident is touched afterwards.
      std::coroutine_handle<> C = H.promise().Continuation;
      if (C)
        C.resume();
    }

    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::abort(); }
};

/// The promise state a Task<T> adds to PromiseBase: the result slot, which
/// a task producing no value does not have.
template <typename T> struct ResultPromise : PromiseBase {
  std::optional<T> Result;
  void return_value(T V) { Result.emplace(std::move(V)); }
};

template <> struct ResultPromise<void> : PromiseBase {
  void return_void() {}
};

} // namespace detail

/// An owning, lazily-started coroutine task producing a T (nothing for
/// Task<void>).
template <typename T> class [[nodiscard]] Task {
public:
  struct promise_type : detail::ResultPromise<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() = default;
  Task(Task &&Other) noexcept : Handle(Other.Handle) {
    Other.Handle = nullptr;
  }
  Task &operator=(Task &&Other) noexcept {
    if (this != &Other) {
      if (Handle)
        Handle.destroy();
      Handle = Other.Handle;
      Other.Handle = nullptr;
    }
    return *this;
  }
  Task(const Task &) = delete;
  Task &operator=(const Task &) = delete;
  ~Task() {
    if (Handle)
      Handle.destroy();
  }

  /// Awaiting a task runs it inside await_ready until it parks with the
  /// scheduler or completes; the continuation is recorded only after the
  /// parent has actually suspended. This is race-free because the child,
  /// once parked, can only be resumed by the (single-threaded) scheduler,
  /// which runs strictly after the parent's suspension unwinds.
  struct Awaiter {
    std::coroutine_handle<promise_type> H;
    bool await_ready() {
      H.resume();
      return H.done();
    }
    void await_suspend(std::coroutine_handle<> Parent) {
      H.promise().Continuation = Parent;
    }
    T await_resume() {
      if constexpr (!std::is_void_v<T>) {
        assert(H.promise().Result && "task finished without a value");
        return std::move(*H.promise().Result);
      }
    }
  };

  /// Awaiting is restricted to *named* (lvalue) tasks: GCC 12 miscompiles
  /// `co_await <temporary Task>` inside branch contexts (the temporary's
  /// frame-resident lifetime management corrupts the enclosing frame's
  /// resume point). Bind the task to a local first:
  /// \code
  ///   auto T = stack.push(E, V);
  ///   co_await T;
  /// \endcode
  Awaiter operator co_await() & { return Awaiter{Handle}; }
  Awaiter operator co_await() && = delete;

  std::coroutine_handle<> handle() const { return Handle; }
  bool done() const { return !Handle || Handle.done(); }

private:
  explicit Task(std::coroutine_handle<promise_type> H) : Handle(H) {}
  std::coroutine_handle<promise_type> Handle;
};

} // namespace compass::sim

#endif // COMPASS_SIM_TASK_H
