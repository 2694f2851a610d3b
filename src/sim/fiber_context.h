#ifndef PSJ_SIM_FIBER_CONTEXT_H_
#define PSJ_SIM_FIBER_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace psj::sim {

/// \brief One stackful user-mode execution context (a fiber).
///
/// The simulation scheduler's execution substrate: each simulated processor
/// owns a FiberContext, and control moves between them with a user-space
/// register switch (tens of nanoseconds) instead of an OS-level handoff.
///
/// Two flavors exist:
///  - the *main* context (default constructor): adopts the calling thread's
///    stack; it is the context Scheduler::Run() executes on;
///  - a *fiber* context (stack-size constructor): owns a freshly allocated
///    stack and starts executing `entry(arg)` the first time it is switched
///    to. The entry function must never return — it must switch away to
///    another context instead (the simulation switches out of a finished
///    process and never resumes it).
///
/// All contexts that switch among each other must live on the same OS
/// thread. Nothing here is thread safe; the scheduler's single-runner
/// discipline is the synchronization.
///
/// On x86-64 Linux the switch is a handful of inline-assembly instructions
/// that save/restore the callee-saved registers — no syscalls at all
/// (ucontext's swapcontext would issue two sigprocmask calls per switch).
/// Other POSIX hosts use ucontext; anything else fails to compile. ASan and
/// TSan builds annotate every switch (__sanitizer_*_switch_fiber,
/// __tsan_*_fiber), so both sanitizers follow the stack changes: ASan keeps
/// its fake-stack bookkeeping per fiber, and TSan keeps a shadow stack per
/// fiber and treats each switch as a happens-before edge.
class FiberContext {
 public:
  /// Adopts the calling thread's current stack as the main context. Only
  /// valid as a switch *target* after some fiber switched away from it.
  FiberContext();

  /// Creates a suspended fiber with an owned stack of `stack_size` bytes
  /// that will run `entry(arg)` when first switched to.
  FiberContext(size_t stack_size, void (*entry)(void*), void* arg);

  ~FiberContext();

  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Suspends the calling context — which must be *this* — and resumes
  /// `to`. Returns when some other context switches back to *this*.
  void SwitchTo(FiberContext& to);

  /// Stack size of the scheduler's fibers. Sanitizer builds use the same
  /// size, so a body that fits in a Release build fits in every build.
  static constexpr size_t kStackSize = 256 * 1024;

  /// Platform- and sanitizer-specific state; public only so the extern "C"
  /// entry trampolines in fiber_context.cc can name it.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace psj::sim

#endif  // PSJ_SIM_FIBER_CONTEXT_H_
