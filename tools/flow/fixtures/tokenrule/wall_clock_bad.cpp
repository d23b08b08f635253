// Fixture: every wall-clock pattern the rule must catch. Real time
// leaking into the simulator makes seeded runs irreproducible.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

long fixture_wall_clock() {
  // hipcheck:expect(wall-clock)
  auto a = std::chrono::steady_clock::now();
  // hipcheck:expect(wall-clock)
  auto b = std::chrono::system_clock::now();
  // hipcheck:expect(wall-clock)
  auto c = std::chrono::high_resolution_clock::now();
  // hipcheck:expect(wall-clock)
  std::random_device rd;
  // hipcheck:expect(wall-clock)
  int r = std::rand();
  // hipcheck:expect(wall-clock)
  long t = time(nullptr);
  return a.time_since_epoch().count() + b.time_since_epoch().count() +
         c.time_since_epoch().count() + rd() + r + t;
}
