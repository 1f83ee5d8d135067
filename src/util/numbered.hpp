// numbered() — a generated name: a prefix followed by a decimal index
// ("P", 1 -> "P1"), for nodes, chips and partitions built in code.
//
// It appends instead of writing `"P" + std::to_string(n)`: GCC 12 at -O2
// and above inlines that operator+ into a memcpy whose overlap it cannot
// rule out and reports a false -Wrestrict, which fails a Release build
// with warnings as errors.
#pragma once

#include <string>

namespace chop {

template <typename Int>
std::string numbered(std::string prefix, Int n) {
  prefix.append(std::to_string(n));
  return prefix;
}

}  // namespace chop
