// sepriv-lint: allow(test-only-module): fixture for a justified suppression
// Fixture: a src/ header that only a test includes, kept on purpose.

#ifndef FIXTURE_KEPT_H_
#define FIXTURE_KEPT_H_

inline int Kept() { return 2; }

#endif  // FIXTURE_KEPT_H_
