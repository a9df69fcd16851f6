// Fixture: raw write paths in dataset/. The
// durable-write-only rule must reject every one of these — a raw ofstream,
// a write-mode fopen, an fwrite, and a POSIX O_WRONLY open can all leave a
// torn spill file that a crash-resume would read as data. Never compiled.
#include <cstdio>
#include <fstream>
#include <string>

namespace origin::dataset {

void spill_with_ofstream(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

void spill_with_stdio(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return;
  std::fwrite(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
}

void append_journal_raw(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) return;
  std::fwrite(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
}

}  // namespace origin::dataset
