#pragma once

namespace fixture {

// The attribute sits between the keyword and the name; the includer's
// use of Outcome must still count as a use of this header.
struct [[nodiscard]] Outcome {
  bool passed = false;
};

}  // namespace fixture
