// Fixture: a blocking endpoint port handler. mocha-analyze must emit
//   - >= 1 [reactor-blocking] finding: the handler runs on the endpoint's
//     loop thread and parks it in a 50 ms recv_for().
// Never compiled; consumed by `mocha_analyze.py --self-test`.
#include "util/analysis_annotations.h"

namespace fixture {

class Endpoint {
 public:
  void set_port_handler(int port, Handler handler) MOCHA_REACTOR_SAFE;
  Message recv_for(int port, long timeout_us) MOCHA_BLOCKING;
  void send(int dst, int port, Buffer payload) MOCHA_REACTOR_SAFE;
};

class MOCHA_REACTOR_SAFE Service {
 public:
  void start();
  Endpoint& endpoint_;
};

void Service::start() {
  endpoint_.set_port_handler(31, [this](Message msg) {
    // Waits for a follow-up message on the loop thread that delivers it.
    endpoint_.recv_for(32, 50'000);
  });
}

}  // namespace fixture
