// Crash-safe whole-file publication: write-temp + fsync(file) + rename +
// fsync(directory).
//
// Every "write a small metadata blob atomically" site in the library (shard
// manifests, proximity caches, training checkpoints) used to open a .tmp
// file and rename it over the destination — atomic against concurrent
// readers, but NOT against power loss: without an fsync of the temp file the
// rename can be made durable before the data it points at, publishing an
// empty or garbage file at the final path. And without an fsync of the
// parent directory the rename itself may not survive. This helper is the one
// place the full discipline lives.
//
// Crash model (verified by tests/crash_recovery_test.cc): at every point in
// the sequence, a crash leaves the destination either absent/old or fully
// new — never torn. The temp file (`path` + ".tmp") may survive a crash; it
// is recreated with O_TRUNC on the next attempt and never read by loaders.

#ifndef SEPRIVGEMB_UTIL_ATOMIC_FILE_H_
#define SEPRIVGEMB_UTIL_ATOMIC_FILE_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace sepriv {

/// Atomically and durably replaces `path` with `size` bytes from `data`.
///
/// `failpoint_base` names the fault-injection site family for this writer;
/// the helper evaluates `<base>.write` (before/during the temp write),
/// `<base>.sync` (between write and rename) and `<base>.rename` (after
/// rename, before the directory fsync). Pass a stable literal like
/// "checkpoint" or "proxcache.shard", or nullptr to opt out of injection.
Status WriteFileAtomic(const std::string& path, const void* data, size_t size,
                       const char* failpoint_base = nullptr);

/// Reads all of `path` into `out`. Distinguishes a missing file
/// (kNotFound) from a read failure (kIoError). Evaluates the
/// `<failpoint_base>.read` failpoint (e.g. `proxcache.shard.read`) when
/// `failpoint_base` is non-null (kTorn ⇒ the returned bytes are
/// deterministically corrupted, modelling on-disk rot that the caller's
/// checksum must catch).
Status ReadFileToString(const std::string& path, std::string* out,
                        const char* failpoint_base = nullptr);

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_ATOMIC_FILE_H_
