// Per-test scratch directories for the file-backed suites.
//
// gtest_discover_tests registers every TEST as its own ctest entry, and
// `ctest -j` runs those processes concurrently. A fixed
// `testing::TempDir() + "/name"` root is therefore shared by every case of a
// fixture: one case's SetUp deletes the files another case is still writing.
// TestTmpDir() instead hands each test process a directory of its own, keyed
// by the pid and the running test's full name. sepriv_lint's shared-tempdir
// rule keeps the fixed-root pattern out of the tree.

#ifndef SEPRIVGEMB_TESTS_TEST_TMPDIR_H_
#define SEPRIVGEMB_TESTS_TEST_TMPDIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <system_error>

namespace sepriv {

namespace test_tmpdir_internal {

/// The directories this process created; removed when the process exits
/// normally. Forked children (crash harness, death tests) inherit the list
/// but never delete the parent's directories: removal is keyed on the pid
/// that created them.
struct Registry {
  std::mutex mu;
  std::set<std::string> dirs;
  pid_t owner = ::getpid();

  ~Registry() {
    if (::getpid() != owner) return;
    std::error_code ec;
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
  }
};

inline Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

/// True in a threadsafe death test's child, which GoogleTest starts with
/// --gtest_internal_run_death_test. The flag is read directly because
/// testing::internal::InDeathTestChild() consults the death-test style,
/// which a test that sets it in its body has not set yet during SetUp().
/// GoogleTest up to 1.11 declares the flag in testing::internal and later
/// releases in testing; the using-directives find either.
inline bool InDeathTestChild() {
  using namespace ::testing;
  using namespace ::testing::internal;
  return !GTEST_FLAG(internal_run_death_test).empty();
}

}  // namespace test_tmpdir_internal

/// Scratch directory of the running test in this process:
/// <testing::TempDir()>/sepriv_<pid>_<Suite>.<Test>, with every character
/// outside [A-Za-z0-9._-] mapped to '_' (parameterized names contain '/').
/// The first call in a test clears anything a previous process with the same
/// pid left there and creates the directory empty; later calls in the same
/// test return it untouched, so a test may call this as often as it likes.
///
/// A threadsafe death test re-runs the whole test in a child process that
/// usually aborts before its registry can clean up. The child therefore
/// works in child_<pid> inside its parent's directory, named by the
/// parent's pid and never cleared, and the parent's registry removes both.
/// The parent must call TestTmpDir() before the death statement, as a
/// fixture's SetUp does.
inline std::string TestTmpDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : std::string("no_test");
  for (char& c : test) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '-') {
      c = '_';
    }
  }
  const auto dir_of = [&](pid_t pid) {
    return std::filesystem::path(::testing::TempDir()) /
           ("sepriv_" + std::to_string(pid) + "_" + test);
  };
  const std::string dir =
      !test_tmpdir_internal::InDeathTestChild()
          ? dir_of(::getpid()).string()
          : (dir_of(::getppid()) / ("child_" + std::to_string(::getpid())))
                .string();

  test_tmpdir_internal::Registry& registry =
      test_tmpdir_internal::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.dirs.insert(dir).second) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
  }
  return dir;
}

}  // namespace sepriv

#endif  // SEPRIVGEMB_TESTS_TEST_TMPDIR_H_
