// Fixture: dead.h's own .cc, which does not keep the header alive.
#include "dead.h"

int Dead() { return 1; }
