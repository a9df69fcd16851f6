// Fixture: raw std::thread outside util/ must be rejected
// (no-raw-std-thread), even when it is joined. Never compiled.
#include <thread>

namespace origin::measure {

void spawn_and_join() {
  std::thread worker([] {});
  worker.join();
}

}  // namespace origin::measure
