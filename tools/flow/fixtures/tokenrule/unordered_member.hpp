// Fixture: a hash-table member declared in a header. The iteration lives
// in unordered_member.cpp; a per-file scan of that .cpp never sees this
// declaration, the TU-wide rule does.
#pragma once

#include <string>
#include <unordered_map>

struct FixtureRegistry {
  std::unordered_map<std::string, int> by_name;
  int total() const;
};
