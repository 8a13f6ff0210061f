// Fixture: a src/ header that a bench file includes, spelled relative to
// src/ like every library include.

#ifndef FIXTURE_LAYER_LIVE_H_
#define FIXTURE_LAYER_LIVE_H_

inline int Live() { return 3; }

#endif  // FIXTURE_LAYER_LIVE_H_
