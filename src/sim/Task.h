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
/// Coroutine frames come from a per-thread pool (detail::FramePool): a
/// destroyed frame's block goes onto its thread's free list for its size
/// class, so an execution that re-creates the coroutines of the one before
/// it (a root replay, a copy-on-write resume) reuses their blocks instead
/// of calling operator new. A frame may be destroyed on another thread than
/// the one that created it; its block then joins that thread's pool.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_TASK_H
#define COMPASS_SIM_TASK_H

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>

#include <sanitizer/asan_interface.h>

namespace compass::sim {

namespace detail {

/// Per-thread free lists of coroutine-frame blocks, one list per size class
/// (frames up to MaxPooled bytes, rounded up to Granule). Every block of a
/// class has the class's full size, wherever it was allocated or is freed,
/// so a block only ever serves frames of its own class. A pooled block is
/// poisoned under AddressSanitizer until it is handed out again (the
/// macros are no-ops in other builds). At thread exit the pool returns its
/// blocks to operator delete; a frame freed on the thread after that goes
/// there directly.
class FramePool {
public:
  static void *allocate(std::size_t Size) {
    const std::size_t C = sizeClass(Size);
    if (C >= NumClasses)
      return ::operator new(Size);
    if (!Dead) {
      if (!Registered)
        registerTeardown();
      if (Block *B = Heads[C]) {
        ASAN_UNPOISON_MEMORY_REGION(B, blockSize(C));
        Heads[C] = B->Next;
        return B;
      }
    }
    return ::operator new(blockSize(C));
  }

  static void deallocate(void *P, std::size_t Size) noexcept {
    const std::size_t C = sizeClass(Size);
    if (C >= NumClasses || Dead) {
      ::operator delete(P);
      return;
    }
    if (!Registered)
      registerTeardown(); // A frame created on another thread.
    Block *B = static_cast<Block *>(P);
    B->Next = Heads[C];
    Heads[C] = B;
    ASAN_POISON_MEMORY_REGION(B, blockSize(C));
  }

private:
  static constexpr std::size_t Granule = 64;
  static constexpr std::size_t MaxPooled = 4096;
  static constexpr std::size_t NumClasses = MaxPooled / Granule;

  struct Block {
    Block *Next;
  };

  static std::size_t sizeClass(std::size_t Size) {
    return (Size + Granule - 1) / Granule - 1;
  }
  static std::size_t blockSize(std::size_t C) { return (C + 1) * Granule; }

  /// Returns every pooled block when the thread exits (see class comment).
  struct Teardown {
    Teardown() = default;
    Teardown(const Teardown &) = delete;
    Teardown &operator=(const Teardown &) = delete;
    ~Teardown() {
      Dead = true;
      for (std::size_t C = 0; C != NumClasses; ++C)
        while (Block *B = Heads[C]) {
          ASAN_UNPOISON_MEMORY_REGION(B, blockSize(C));
          Heads[C] = B->Next;
          ::operator delete(B);
        }
    }
  };

  static void registerTeardown() {
    Registered = true;
    static thread_local Teardown T;
    (void)T;
  }

  // Trivially destructible, so they stay readable while the thread's
  // thread_local destructors run (Dead routes late frees past the pool).
  static inline thread_local Block *Heads[NumClasses] = {};
  static inline thread_local bool Registered = false;
  static inline thread_local bool Dead = false;
};

/// State shared by all task promises: the continuation to resume when the
/// task completes (the awaiting parent coroutine, if any). Frames are
/// allocated from the thread's FramePool.
struct PromiseBase {
  std::coroutine_handle<> Continuation;

  static void *operator new(std::size_t Size) {
    return FramePool::allocate(Size);
  }
  static void operator delete(void *P, std::size_t Size) noexcept {
    FramePool::deallocate(P, Size);
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

} // namespace detail

/// An owning, lazily-started coroutine task producing a T.
template <typename T> class [[nodiscard]] Task {
public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> Result;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T V) { Result.emplace(std::move(V)); }
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
      assert(H.promise().Result && "task finished without a value");
      return std::move(*H.promise().Result);
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

/// Specialization for tasks producing no value.
template <> class [[nodiscard]] Task<void> {
public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
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

  struct Awaiter {
    std::coroutine_handle<promise_type> H;
    bool await_ready() {
      H.resume();
      return H.done();
    }
    void await_suspend(std::coroutine_handle<> Parent) {
      H.promise().Continuation = Parent;
    }
    void await_resume() {}
  };

  /// See Task<T>::operator co_await: awaiting temporaries is disabled.
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
