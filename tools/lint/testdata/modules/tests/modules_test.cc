// Fixture: a test includes every module; only its includes do not count.
#include "dead.h"
#include "kept.h"
#include "layer/live.h"

int UseAll() { return Dead() + Kept() + Live(); }
