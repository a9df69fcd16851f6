// Fixture: detaching a thread must be rejected everywhere, util/ included
// (no-thread-detach); util/ may own a raw std::thread but must join it.
// Never compiled.
#include <thread>

namespace origin::util {

void fire_and_forget() {
  std::thread worker([] {});
  worker.detach();
}

}  // namespace origin::util
