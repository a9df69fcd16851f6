// Fixture: the audited close path. The reason is recorded in the stats
// ledger on the line above the transport close, and the close itself
// carries the server-close-recorded waiver — exactly the shape of
// Http2Server::close_endpoint. The lint pass must accept this file.
// Never compiled.
#include <map>
#include <string>

namespace origin::server {

template <typename Endpoint>
void close_endpoint_audited(Endpoint& endpoint, const std::string& reason,
                            std::map<std::string, unsigned long>& ledger) {
  ++ledger[reason];
  endpoint.close(reason);  // analyze:allow(server-close-recorded): audited path; the reason was recorded just above
}

}  // namespace origin::server
