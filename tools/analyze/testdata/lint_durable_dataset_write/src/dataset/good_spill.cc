// Fixture: the audited dataset/ write shape. Every byte lands through
// util/durable_file.h — durable_write_file for shard snapshots (temp ->
// fsync -> rename commit) and DurableLog for the manifest journal — and
// reads stay unrestricted. The lint pass must accept this file. Never
// compiled; mirrors snapshot.cc/corpus.cc.
#include <cstdio>
#include <fstream>
#include <string>

namespace origin::util {
int durable_write_file(const std::string& path, const std::string& bytes);
struct DurableLog {
  int append(const std::string& bytes);
};
}  // namespace origin::util

namespace origin::dataset {

int spill_shard(const std::string& path, const std::string& bytes) {
  return util::durable_write_file(path, bytes);
}

int journal_record(util::DurableLog& log, const std::string& record) {
  return log.append(record);
}

std::string read_shard_back(const std::string& path) {
  // Read-only IO is exempt: torn reads are caught by the CRC footer.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe != nullptr) std::fclose(probe);
  return bytes;
}

}  // namespace origin::dataset
