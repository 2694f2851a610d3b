#ifndef PSJ_UTIL_MUTEX_H_
#define PSJ_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace psj::util {

/// \brief Capability-typed wrapper over std::mutex.
///
/// Every host-threaded subsystem (src/native, src/serve, src/obs, the
/// experiment driver) locks through this type, never through a
/// raw std::mutex: the PSJ_CAPABILITY annotation is what lets clang's
/// thread-safety analysis connect PSJ_GUARDED_BY members to the lock
/// acquisitions that protect them. The wrapper is a zero-cost inline
/// forwarder; the only interface difference from std::mutex is the
/// capitalized method names the annotations attach to.
class PSJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PSJ_ACQUIRE() { mu_.lock(); }
  void Unlock() PSJ_RELEASE() { mu_.unlock(); }
  bool TryLock() PSJ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a util::Mutex (the std::lock_guard of this layer).
class PSJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PSJ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PSJ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Condition variable usable with util::Mutex.
///
/// Waits take the Mutex itself (annotated PSJ_REQUIRES), not a
/// std::unique_lock, so the analysis sees that the caller holds the lock
/// across the wait. Internally each wait adopts the already-held std::mutex,
/// waits, and releases ownership back to the caller's scope — the lock is
/// held again when the wait returns, exactly as with std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) PSJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // The caller's scope still owns the mutex.
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate predicate) PSJ_REQUIRES(mu) {
    while (!predicate()) {
      Wait(mu);
    }
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      PSJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace psj::util

#endif  // PSJ_UTIL_MUTEX_H_
