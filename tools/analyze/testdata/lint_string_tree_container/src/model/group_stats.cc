// Fixture: a string-keyed ordered tree on the model hot path. The
// no-string-keyed-tree rule must reject this — keys belong in
// util::Interner with util::FlatMap/util::FlatSet over SymbolIds.
#include <cstddef>
#include <map>
#include <string>

namespace origin::model {

struct GroupStats {
  std::map<std::string, std::size_t> connections_per_group;
};

std::size_t count(const GroupStats& stats, const std::string& key) {
  const auto it = stats.connections_per_group.find(key);
  return it == stats.connections_per_group.end() ? 0 : it->second;
}

}  // namespace origin::model
