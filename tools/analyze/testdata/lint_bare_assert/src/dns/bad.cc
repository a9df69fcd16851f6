// Fixture: a bare assert is stripped from RelWithDebInfo builds and must be
// rejected (no-bare-assert); ORIGIN_CHECK stays on in every build. Never
// compiled.
#include <cassert>

namespace origin::dns {

int checked_ttl(int ttl) {
  assert(ttl >= 0);
  return ttl;
}

}  // namespace origin::dns
