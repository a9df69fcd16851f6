// Fixture: raw std::mutex / std::lock_guard outside util/ must be rejected
// (no-raw-std-mutex). Never compiled.
#include <mutex>

namespace origin::dataset {

class Cache {
 public:
  void put(int value) {
    std::lock_guard<std::mutex> lock(mu_);
    value_ = value;
  }

 private:
  std::mutex mu_;
  int value_ ORIGIN_GUARDED_BY(mu_) = 0;
};

}  // namespace origin::dataset
