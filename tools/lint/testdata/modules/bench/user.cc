// Fixture: the non-test includer that keeps layer/live.h alive.
#include "layer/live.h"

int UseLive() { return Live(); }
