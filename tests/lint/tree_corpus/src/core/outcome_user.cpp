#include "core/outcome.hpp"

namespace fixture {

Outcome check() { return {}; }

}  // namespace fixture
