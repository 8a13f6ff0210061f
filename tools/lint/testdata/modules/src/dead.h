// expect-lint: test-only-module
// Fixture: a src/ header that only a tests/ file and its own .cc include.

#ifndef FIXTURE_DEAD_H_
#define FIXTURE_DEAD_H_

int Dead();

#endif  // FIXTURE_DEAD_H_
