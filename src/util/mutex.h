// Capability-annotated mutex / condition-variable wrappers.
//
// std::mutex carries no thread-safety attributes, so Clang's Thread Safety
// Analysis cannot follow code that locks one directly. These thin wrappers
// (zero-overhead over the std primitives they delegate to) are the annotated
// capability types the whole library locks through:
//
//   Mutex      — std::mutex with ACQUIRE/RELEASE/TRY_ACQUIRE annotations
//   MutexLock  — scoped lock (SCOPED_CAPABILITY)
//   CondVar    — std::condition_variable bound to Mutex; Wait() REQUIRES the
//                mutex, and the temporary release inside wait() is invisible
//                to the analysis by design (the capability is restored
//                before Wait returns, so the caller's view stays consistent)
//
// Under clang, CI compiles the library with -Wthread-safety -Werror, so a
// field declared SEPRIV_GUARDED_BY(mu_) simply cannot be touched without the
// lock. Under gcc (and any non-clang compiler) the annotations vanish and
// these types are plain forwarding shims.

#ifndef SEPRIVGEMB_UTIL_MUTEX_H_
#define SEPRIVGEMB_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace sepriv {

/// Annotated std::mutex. Non-recursive; the capability name "mutex" shows up
/// in -Wthread-safety diagnostics.
class SEPRIV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SEPRIV_ACQUIRE() { mu_.lock(); }
  void Unlock() SEPRIV_RELEASE() { mu_.unlock(); }
  bool TryLock() SEPRIV_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped handle, for CondVar's adopt/release dance only. Calling
  /// lock()/unlock() on it directly would bypass the analysis — don't.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

/// Tag selecting the adopting MutexLock constructor (mirrors
/// std::adopt_lock for the annotated types).
struct AdoptLockT {
  explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT kAdoptLock{};

/// RAII scoped lock over Mutex.
class SEPRIV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SEPRIV_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }

  /// Adopts a mutex the caller already holds (e.g. from a successful
  /// TryLock); the destructor releases it as usual.
  MutexLock(Mutex& mu, AdoptLockT) SEPRIV_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() SEPRIV_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. Wait() requires the mutex held and
/// returns with it held, exactly like std::condition_variable::wait — the
/// transient release inside the std wait is wrapped in an adopt/release pair
/// so no second lock operation ever touches the mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One wakeup. No predicate overload on purpose: a lambda body is analysed
  /// as a separate function by -Wthread-safety, so guarded reads inside a
  /// predicate would warn. Call in a `while (!cond) cv.Wait(mu);` loop — the
  /// guarded condition then lives in the scope that provably holds `mu`.
  void Wait(Mutex& mu) SEPRIV_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native_handle(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the (re-acquired) mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_MUTEX_H_
