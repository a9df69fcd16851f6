#include "hpack/tables.h"

#include <algorithm>
#include <array>
#include <vector>

namespace origin::hpack {

namespace {

// RFC 7541 Appendix A.
const std::array<HeaderField, kStaticTableSize>& static_table() {
  static const std::array<HeaderField, kStaticTableSize> kTable = {{
      {":authority", ""},
      {":method", "GET"},
      {":method", "POST"},
      {":path", "/"},
      {":path", "/index.html"},
      {":scheme", "http"},
      {":scheme", "https"},
      {":status", "200"},
      {":status", "204"},
      {":status", "206"},
      {":status", "304"},
      {":status", "400"},
      {":status", "404"},
      {":status", "500"},
      {"accept-charset", ""},
      {"accept-encoding", "gzip, deflate"},
      {"accept-language", ""},
      {"accept-ranges", ""},
      {"accept", ""},
      {"access-control-allow-origin", ""},
      {"age", ""},
      {"allow", ""},
      {"authorization", ""},
      {"cache-control", ""},
      {"content-disposition", ""},
      {"content-encoding", ""},
      {"content-language", ""},
      {"content-length", ""},
      {"content-location", ""},
      {"content-range", ""},
      {"content-type", ""},
      {"cookie", ""},
      {"date", ""},
      {"etag", ""},
      {"expect", ""},
      {"expires", ""},
      {"from", ""},
      {"host", ""},
      {"if-match", ""},
      {"if-modified-since", ""},
      {"if-none-match", ""},
      {"if-range", ""},
      {"if-unmodified-since", ""},
      {"last-modified", ""},
      {"link", ""},
      {"location", ""},
      {"max-forwards", ""},
      {"proxy-authenticate", ""},
      {"proxy-authorization", ""},
      {"range", ""},
      {"referer", ""},
      {"refresh", ""},
      {"retry-after", ""},
      {"server", ""},
      {"set-cookie", ""},
      {"strict-transport-security", ""},
      {"transfer-encoding", ""},
      {"user-agent", ""},
      {"vary", ""},
      {"via", ""},
      {"www-authenticate", ""},
  }};
  return kTable;
}

}  // namespace

const HeaderField* static_table_entry(std::size_t index) {
  if (index < 1 || index > kStaticTableSize) return nullptr;
  return &static_table()[index - 1];
}

void DynamicTable::insert(HeaderField field) {
  const std::size_t entry_size = field.hpack_size();
  while (!entries_.empty() && size_ + entry_size > max_size_) {
    size_ -= entries_.back().hpack_size();
    entries_.pop_back();
  }
  if (entry_size > max_size_) return;  // table is now empty; entry dropped
  size_ += entry_size;
  entries_.push_front(std::move(field));
}

void DynamicTable::set_max_size(std::size_t max_size) {
  max_size_ = max_size;
  while (size_ > max_size_) {
    size_ -= entries_.back().hpack_size();
    entries_.pop_back();
  }
}

const HeaderField* DynamicTable::entry(std::size_t combined_index) const {
  if (combined_index <= kStaticTableSize) return nullptr;
  std::size_t offset = combined_index - kStaticTableSize - 1;
  if (offset >= entries_.size()) return nullptr;
  return &entries_[offset];
}

namespace {

// The static-table entries of one name: entries sharing a name are
// adjacent in RFC 7541 Appendix A, so each name spans [first, last].
struct NameSpan {
  std::string_view name;
  std::size_t first = 0;
  std::size_t last = 0;
};

// One span per distinct name, sorted by name for binary search.
const std::vector<NameSpan>& static_name_spans() {
  static const std::vector<NameSpan> kSpans = [] {
    std::vector<NameSpan> spans;
    spans.reserve(kStaticTableSize);
    for (std::size_t i = 1; i <= kStaticTableSize; ++i) {
      const std::string_view name = static_table_entry(i)->name;
      if (!spans.empty() && spans.back().name == name) {
        spans.back().last = i;
      } else {
        spans.push_back({name, i, i});
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const NameSpan& a, const NameSpan& b) {
                return a.name < b.name;
              });
    return spans;
  }();
  return kSpans;
}

}  // namespace

std::optional<Match> find_match(const DynamicTable& dynamic,
                                std::string_view name, std::string_view value) {
  std::optional<Match> name_only;
  const std::vector<NameSpan>& spans = static_name_spans();
  auto span = std::lower_bound(
      spans.begin(), spans.end(), name,
      [](const NameSpan& s, std::string_view n) { return s.name < n; });
  if (span != spans.end() && span->name == name) {
    for (std::size_t i = span->first; i <= span->last; ++i) {
      if (static_table_entry(i)->value == value) return Match{i, true};
    }
    name_only = Match{span->first, false};
  }
  for (std::size_t i = 0; i < dynamic.entry_count(); ++i) {
    std::size_t combined = kStaticTableSize + 1 + i;
    const HeaderField* f = dynamic.entry(combined);
    if (f->name != name) continue;
    if (f->value == value) return Match{combined, true};
    if (!name_only) name_only = Match{combined, false};
  }
  return name_only;
}

}  // namespace origin::hpack
