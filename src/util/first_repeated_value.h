// Compile-time uniqueness check for the wire-enum tables
// (net/frame_type.h, replica/msg_type.h).
#pragma once

#include <initializer_list>

namespace mocha::util {

// The first value that occurs twice in `values`, or -1 when all are
// distinct. The tables static_assert on it, so a repeated type byte fails
// the build and the diagnostic names the value.
constexpr int first_repeated_value(std::initializer_list<int> values) {
  for (const int* a = values.begin(); a != values.end(); ++a) {
    for (const int* b = a + 1; b != values.end(); ++b) {
      if (*a == *b) return *a;
    }
  }
  return -1;
}

}  // namespace mocha::util
