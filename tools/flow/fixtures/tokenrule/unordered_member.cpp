// Fixture: range-for over a member whose std::unordered_map type is
// declared in the included header — declaration and loop sit in
// different files of one TU.
#include "unordered_member.hpp"

int FixtureRegistry::total() const {
  int sum = 0;
  // hipcheck:expect(unordered-iter)
  for (const auto& kv : by_name) sum += kv.second;
  return sum;
}
