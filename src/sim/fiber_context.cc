#include "sim/fiber_context.h"

#include <cstdint>

#include "util/check.h"

// Switch implementation. On x86-64 Linux we use a syscall-free assembly
// switch; other POSIX hosts use <ucontext.h>, whose swapcontext also
// saves/restores the signal mask (two sigprocmask syscalls per switch).
#if defined(__x86_64__) && defined(__linux__)
#define PSJ_FIBER_IMPL_ASM_X86_64 1
#elif defined(__unix__)
#include <ucontext.h>
#else
#error "sim::FiberContext needs x86-64 Linux or a POSIX host with ucontext"
#endif

// Sanitizers must be told about stack switches. AddressSanitizer's
// fake-stack bookkeeping and stack-use-after-return detection follow the
// fibers through the __sanitizer_*_switch_fiber annotations; without them
// every switch looks like a wild stack change. ThreadSanitizer keeps a
// shadow call stack and a vector clock per *fiber* once each stack is
// registered with __tsan_create_fiber and every switch goes through
// __tsan_switch_to_fiber; without them one per-thread shadow stack would
// interleave the frames of every fiber, and reports would name wrong
// stacks.
#if defined(__SANITIZE_ADDRESS__)
#define PSJ_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PSJ_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(PSJ_FIBER_ASAN)
#define PSJ_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(PSJ_FIBER_TSAN)
#define PSJ_FIBER_TSAN 1
#endif
#endif

#if defined(PSJ_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(PSJ_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace psj::sim {

#if defined(PSJ_FIBER_ASAN)

/// Per-context sanitizer state. The main (thread-stack) context starts with
/// unknown bounds; they are learned from the out-parameters of the first
/// __sanitizer_finish_switch_fiber executed after leaving it.
struct FiberAsanState {
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* fake_stack = nullptr;  // Saved while this context is suspended.
};

namespace {

/// The context being suspended by the in-flight switch; set by the switcher
/// and consumed on the destination stack. One switch is in flight per
/// thread at a time (the swap itself runs no interleaving code).
thread_local FiberAsanState* fiber_asan_from = nullptr;

void FiberAsanBeginSwitch(FiberAsanState* from, const FiberAsanState* to) {
  fiber_asan_from = from;
  __sanitizer_start_switch_fiber(&from->fake_stack, to->stack_bottom,
                                 to->stack_size);
}

/// First statement on the destination stack, both on the return path of a
/// switch and on first activation of a fresh fiber (`self` null: no fake
/// stack to restore yet).
void FiberAsanEndSwitch(FiberAsanState* self) {
  const void* old_bottom = nullptr;
  size_t old_size = 0;
  __sanitizer_finish_switch_fiber(self == nullptr ? nullptr
                                                  : self->fake_stack,
                                  &old_bottom, &old_size);
  FiberAsanState* from = fiber_asan_from;
  fiber_asan_from = nullptr;
  if (from != nullptr && from->stack_bottom == nullptr) {
    from->stack_bottom = old_bottom;
    from->stack_size = old_size;
  }
}

}  // namespace

#endif  // PSJ_FIBER_ASAN

struct FiberContext::Impl {
#if defined(PSJ_FIBER_IMPL_ASM_X86_64)
  void* sp = nullptr;  // Saved stack pointer while suspended.
#else
  ucontext_t ctx;
#endif
  std::unique_ptr<char[]> stack;  // Owned stack; null for the main context.
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
#if defined(PSJ_FIBER_ASAN)
  FiberAsanState asan;
#endif
#if defined(PSJ_FIBER_TSAN)
  /// TSan's handle for this context: created with the stack for a fiber,
  /// the thread's current fiber for the main context.
  void* tsan_fiber = nullptr;
#endif
};

namespace {

/// First code a fresh fiber runs on its own stack.
void RunEntry(FiberContext::Impl* impl) {
#if defined(PSJ_FIBER_ASAN)
  FiberAsanEndSwitch(nullptr);
#endif
  impl->entry(impl->arg);
  PSJ_CHECK(false) << "fiber entry function returned";
}

}  // namespace

#if defined(PSJ_FIBER_IMPL_ASM_X86_64)

// void psj_fiber_swap(void** from_sp, void* to_sp)
//
// Saves the callee-saved registers of the System V AMD64 ABI plus the stack
// pointer of the calling context into *from_sp, installs to_sp and restores
// the target's registers. The return address on the target stack decides
// where execution continues (either inside a previous psj_fiber_swap call
// or, for a fresh fiber, at psj_fiber_entry_thunk).
extern "C" void psj_fiber_swap(void** from_sp, void* to_sp);

// First activation target of a fresh fiber: the fiber's bootstrap frame
// parks the Impl pointer in the r12 slot; the thunk moves it into the first
// argument register and tail-jumps into C++ (so the C++ entry observes the
// ABI-mandated stack alignment of a normal call).
extern "C" void psj_fiber_entry_thunk();
extern "C" void psj_fiber_run_entry(void* impl);

asm(R"(
.text
.globl psj_fiber_swap
.type psj_fiber_swap, @function
.align 16
psj_fiber_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size psj_fiber_swap, .-psj_fiber_swap

.globl psj_fiber_entry_thunk
.type psj_fiber_entry_thunk, @function
.align 16
psj_fiber_entry_thunk:
  movq %r12, %rdi
  jmp psj_fiber_run_entry
.size psj_fiber_entry_thunk, .-psj_fiber_entry_thunk
)");

extern "C" void psj_fiber_run_entry(void* impl) {
  RunEntry(static_cast<FiberContext::Impl*>(impl));
}

namespace {

void PrepareStack(FiberContext::Impl* impl, size_t stack_size) {
  // Bootstrap frame, mirroring what psj_fiber_swap expects to pop: six
  // callee-saved register slots (r15 lowest) topped by the return address
  // plus one padding slot. After the restore sequence pops the six
  // registers and `ret` consumes the return address, rsp % 16 == 8 — the
  // System V alignment at a function entry (as just after a call
  // instruction), which vector spills in the fiber body rely on.
  uintptr_t top = reinterpret_cast<uintptr_t>(impl->stack.get()) + stack_size;
  top &= ~static_cast<uintptr_t>(15);
  auto* frame = reinterpret_cast<void**>(top) - 8;
  frame[0] = nullptr;  // r15
  frame[1] = nullptr;  // r14
  frame[2] = nullptr;  // r13
  frame[3] = impl;     // r12 — carries the Impl* to the thunk.
  frame[4] = nullptr;  // rbx
  frame[5] = nullptr;  // rbp
  frame[6] = reinterpret_cast<void*>(&psj_fiber_entry_thunk);
  frame[7] = nullptr;  // Padding: keeps the entry alignment correct.
  impl->sp = frame;
}

inline void Swap(FiberContext::Impl* from, FiberContext::Impl* to) {
  psj_fiber_swap(&from->sp, to->sp);
}

}  // namespace

#else  // ucontext

namespace {

// makecontext only passes int arguments portably; split the pointer.
void UcontextTrampoline(unsigned hi, unsigned lo) {
  const uintptr_t bits =
      (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo);
  RunEntry(reinterpret_cast<FiberContext::Impl*>(bits));
}

void PrepareStack(FiberContext::Impl* impl, size_t stack_size) {
  PSJ_CHECK(getcontext(&impl->ctx) == 0);
  impl->ctx.uc_stack.ss_sp = impl->stack.get();
  impl->ctx.uc_stack.ss_size = stack_size;
  impl->ctx.uc_link = nullptr;
  const uintptr_t bits = reinterpret_cast<uintptr_t>(impl);
  makecontext(&impl->ctx, reinterpret_cast<void (*)()>(&UcontextTrampoline),
              2, static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
}

inline void Swap(FiberContext::Impl* from, FiberContext::Impl* to) {
  PSJ_CHECK(swapcontext(&from->ctx, &to->ctx) == 0);
}

}  // namespace

#endif

FiberContext::FiberContext() : impl_(new Impl) {}

FiberContext::FiberContext(size_t stack_size, void (*entry)(void*), void* arg)
    : impl_(new Impl) {
  PSJ_CHECK_GE(stack_size, static_cast<size_t>(4096));
  impl_->stack.reset(new char[stack_size]);
  impl_->entry = entry;
  impl_->arg = arg;
  PrepareStack(impl_.get(), stack_size);
#if defined(PSJ_FIBER_ASAN)
  impl_->asan.stack_bottom = impl_->stack.get();
  impl_->asan.stack_size = stack_size;
#endif
#if defined(PSJ_FIBER_TSAN)
  impl_->tsan_fiber = __tsan_create_fiber(0);
#endif
}

FiberContext::~FiberContext() {
#if defined(PSJ_FIBER_TSAN)
  if (impl_->stack != nullptr) {
    __tsan_destroy_fiber(impl_->tsan_fiber);
  }
#endif
}

void FiberContext::SwitchTo(FiberContext& to) {
#if defined(PSJ_FIBER_ASAN)
  FiberAsanBeginSwitch(&impl_->asan, &to.impl_->asan);
#endif
#if defined(PSJ_FIBER_TSAN)
  if (impl_->stack == nullptr) {
    // The main context is whatever TSan fiber the calling thread runs on;
    // record it so a fiber can switch back to it.
    impl_->tsan_fiber = __tsan_get_current_fiber();
  }
  // Flags 0: the switch synchronizes, so everything the suspended context
  // did happens-before what the resumed one does next.
  __tsan_switch_to_fiber(to.impl_->tsan_fiber, 0);
#endif
  Swap(impl_.get(), to.impl_.get());
#if defined(PSJ_FIBER_ASAN)
  // Somebody switched back to us: we are on this context's stack again.
  FiberAsanEndSwitch(&impl_->asan);
#endif
}

}  // namespace psj::sim
