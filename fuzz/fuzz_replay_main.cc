// Deterministic corpus-replay main for builds without libFuzzer.
//
// Each fuzz driver defines LLVMFuzzerTestOneInput; when clang's
// -fsanitize=fuzzer is unavailable (the default toolchain here is gcc),
// this main() replays every file in the directories given on the command
// line, in sorted order, through the driver. CTest runs each driver over
// its checked-in seed corpus, so the fuzz targets double as regression
// tests: any input that ever crashed a parser gets committed to the corpus
// and is replayed on every build, under whatever sanitizer preset the tree
// was configured with.
//
// Exit status: 0 when every input was replayed (a parser that survives is
// the invariant; sanitizers and ORIGIN_CHECK abort on violation), 1 on
// usage or I/O errors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

bool replay_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz: cannot read %s\n", path.c_str());
    return false;
  }
  std::vector<char> contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  const auto* bytes = contents.empty()
                          ? nullptr
                          : reinterpret_cast<const std::uint8_t*>(
                                contents.data());
  (void)LLVMFuzzerTestOneInput(bytes, contents.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir-or-file>...\n", argv[0]);
    return 1;
  }
  std::size_t replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const auto& file : files) {
        if (!replay_file(file)) return 1;
        ++replayed;
      }
    } else if (std::filesystem::is_regular_file(arg, ec)) {
      if (!replay_file(arg)) return 1;
      ++replayed;
    } else {
      std::fprintf(stderr, "fuzz: no such corpus input: %s\n", arg.c_str());
      return 1;
    }
  }
  std::printf("fuzz: replayed %zu corpus input(s) cleanly\n", replayed);
  return 0;
}
