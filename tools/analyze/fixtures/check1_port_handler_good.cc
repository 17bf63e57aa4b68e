// Fixture: a non-blocking endpoint port handler, clean. mocha-analyze must
// emit zero findings: the handler answers with send(), which never waits,
// and captures `this` from a class with documented teardown ordering.
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
    endpoint_.send(msg.src, 32, msg.payload);  // reply, never wait
  });
}

}  // namespace fixture
