// Lightweight structured error type for the recoverable-IO paths.
//
// The library historically reported IO failure as bool / nullptr / SIZE_MAX
// and escalated everything else through SEPRIV_CHECK, which aborts. The
// out-of-core stack needs a middle ground: a transient read fault on a pooled
// page is recoverable (re-read from the shard file), ENOSPC during a sample
// spill is not — but neither should kill a process that is serving traffic.
// Status carries just enough structure for the caller to pick a policy
// (retry / degrade / surface) without dragging in a full error framework.

#ifndef SEPRIVGEMB_UTIL_STATUS_H_
#define SEPRIVGEMB_UTIL_STATUS_H_

#include <string>
#include <utility>

#include "util/check.h"

namespace sepriv {

enum class StatusCode {
  kOk = 0,
  kIoError,             // read/write/sync syscall failure (other than ENOSPC)
  kNoSpace,             // ENOSPC: retrying cannot help until space is freed
  kCorruption,          // checksum / magic / geometry mismatch on read
  kFailedPrecondition,  // caller misuse: bad index, wrong state
  kNotFound,            // file or record absent
};

/// Value-type error carrier: a code plus a human-readable message. Ok is the
/// default state and carries no allocation.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for failures where an immediate bounded retry is a sane policy:
  /// plain IO errors. Corruption is retryable only through a re-read (the
  /// buffer pool handles that); ENOSPC and precondition failures are not.
  bool transient() const { return code_ == StatusCode::kIoError; }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) +
           (message_.empty() ? "" : ": " + message_);
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kIoError: return "IO_ERROR";
      case StatusCode::kNoSpace: return "NO_SPACE";
      case StatusCode::kCorruption: return "CORRUPTION";
      case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::kNotFound: return "NOT_FOUND";
    }
    return "UNKNOWN";
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status IoError(std::string message) {
  return Status(StatusCode::kIoError, std::move(message));
}
inline Status NoSpaceError(std::string message) {
  return Status(StatusCode::kNoSpace, std::move(message));
}
inline Status CorruptionError(std::string message) {
  return Status(StatusCode::kCorruption, std::move(message));
}
inline Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}

/// Propagates a non-ok Status out of the enclosing function.
#define SEPRIV_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::sepriv::Status sepriv_status_tmp_ = (expr); \
    if (!sepriv_status_tmp_.ok()) return sepriv_status_tmp_; \
  } while (0)

/// Aborts with the message of a non-ok Status: for callers that have no
/// error path of their own (benches, tools).
#define SEPRIV_CHECK_OK(expr)                                     \
  do {                                                            \
    const ::sepriv::Status sepriv_status_tmp_ = (expr);           \
    SEPRIV_CHECK(sepriv_status_tmp_.ok(), "%s",                   \
                 sepriv_status_tmp_.ToString().c_str());          \
  } while (0)

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_STATUS_H_
