#ifndef PSJ_UTIL_THREAD_ANNOTATIONS_H_
#define PSJ_UTIL_THREAD_ANNOTATIONS_H_

/// \file Clang thread-safety-analysis attribute macros.
///
/// These annotations turn the repo's concurrency contracts — which mutex
/// guards which member, which functions may only run with a lock held —
/// into compile-time checked facts under `clang++ -Wthread-safety` (the
/// `analyze` CMake preset; see DESIGN.md §14). Off-clang the macros expand
/// to nothing, so gcc release builds are unaffected.
///
/// The annotations attach to the `util::Mutex` / `util::MutexLock` /
/// `util::CondVar` wrappers in util/mutex.h, never to raw std::mutex:
/// wrapping is what makes every lock acquisition capability-typed, so an
/// unlocked access to a PSJ_GUARDED_BY member is a build error under the
/// analyze preset (tests/annotations_compile_fail/ proves the gate bites).

#if defined(__clang__) && defined(__has_attribute)
#define PSJ_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define PSJ_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

/// Declares a class to be a capability (a lockable resource).
#define PSJ_CAPABILITY(name) PSJ_THREAD_ANNOTATION__(capability(name))

/// Declares an RAII class whose lifetime acquires/releases a capability.
#define PSJ_SCOPED_CAPABILITY PSJ_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding `mu`.
#define PSJ_GUARDED_BY(mu) PSJ_THREAD_ANNOTATION__(guarded_by(mu))

/// Pointer member whose pointee is guarded by `mu` (the pointer itself may
/// be read freely).
#define PSJ_PT_GUARDED_BY(mu) PSJ_THREAD_ANNOTATION__(pt_guarded_by(mu))

/// Function that may only be called with the listed capabilities held.
#define PSJ_REQUIRES(...) \
  PSJ_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function that may only be called with the capabilities held shared.
#define PSJ_REQUIRES_SHARED(...) \
  PSJ_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the listed capabilities and does not release them.
#define PSJ_ACQUIRE(...) \
  PSJ_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function that releases the listed capabilities.
#define PSJ_RELEASE(...) \
  PSJ_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function that must NOT be called with the listed capabilities held
/// (deadlock prevention for self-locking APIs).
#define PSJ_EXCLUDES(...) \
  PSJ_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function that tries to acquire; `result` is the success return value.
#define PSJ_TRY_ACQUIRE(result, ...) \
  PSJ_THREAD_ANNOTATION__(try_acquire_capability(result, __VA_ARGS__))

/// Function returning a reference to the named capability, letting callers
/// lock a private member through an accessor.
#define PSJ_RETURN_CAPABILITY(mu) PSJ_THREAD_ANNOTATION__(lock_returned(mu))

/// Lock-ordering declarations.
#define PSJ_ACQUIRED_BEFORE(...) \
  PSJ_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define PSJ_ACQUIRED_AFTER(...) \
  PSJ_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Escape hatch: disables the analysis for one function. Every use MUST
/// carry a comment stating why the contract holds anyway (a regime the
/// static analysis cannot express); TSan CI remains the dynamic check.
#define PSJ_NO_THREAD_SAFETY_ANALYSIS \
  PSJ_THREAD_ANNOTATION__(no_thread_safety_analysis)

/// Runtime assertion that the calling thread holds `mu`, promoted into the
/// static analysis state.
#define PSJ_ASSERT_CAPABILITY(...) \
  PSJ_THREAD_ANNOTATION__(assert_capability(__VA_ARGS__))

#endif  // PSJ_UTIL_THREAD_ANNOTATIONS_H_
