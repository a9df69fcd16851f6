// Fixture: a server-side teardown that calls the transport close()
// directly must be rejected (server-close-recorded). The reason string
// never reaches Stats::close_reasons, so the overload ledger — and every
// determinism check built on it — silently loses the shed. Never compiled.
namespace origin::server {

template <typename Endpoint>
void shed_without_audit(Endpoint& endpoint) {
  // Bypasses Http2Server::close_endpoint: nothing records the reason.
  endpoint.close("overload: unaudited shed");
}

}  // namespace origin::server
