// Fixture: a volatile stop flag must be rejected (no-volatile-sync); use
// std::atomic or a util::Mutex. Never compiled.
namespace origin::netsim {

volatile bool g_stop_requested = false;

void request_stop() { g_stop_requested = true; }

}  // namespace origin::netsim
