// Fixture: shared-tempdir — a fixed directory under testing::TempDir() that
// every concurrently running test process would share. (Scanned, not
// compiled: TestTmpDir is declared only.)

#include <string>

namespace testing {
std::string TempDir();
}  // namespace testing

namespace fixture {

std::string TestTmpDir();

std::string FixedRoot() {
  return testing::TempDir() + "/checkpoint_test";  // expect-lint: shared-tempdir
}

std::string FixedPrefix(const std::string& name) {
  return testing::TempDir() + "/" + name;  // expect-lint: shared-tempdir
}

// The per-test helper and the bare root are fine: neither hard-codes a
// directory that other processes also use.
std::string PerTest(const std::string& name) {
  return TestTmpDir() + "/pool_" + name;
}
std::string Root() { return testing::TempDir(); }

// A justified suppression still works.
std::string Shared() {
  // sepriv-lint: allow(shared-tempdir): fixture for the suppression path
  return testing::TempDir() + "/intentionally_shared";
}

}  // namespace fixture
