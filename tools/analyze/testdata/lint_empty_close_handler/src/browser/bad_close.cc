// Fixture: a set_on_close handler in src/browser that ignores the close
// reason must be rejected (close-reason-handled). Never compiled.
namespace origin::browser {

template <typename Endpoint>
void forget_the_reason(Endpoint& endpoint, bool& closed) {
  endpoint.set_on_close([&closed](const std::string&) {
    // The teardown cause (middlebox name, injected fault, GOAWAY) is
    // dropped on the floor here — the degradation layer never sees it.
    closed = true;
  });
}

}  // namespace origin::browser
