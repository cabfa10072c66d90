// XH-FLOW-003 fixture: kick() posts while mu_ is held, and the posted
// work re-acquires mu_ — the pool's task contends with its posting scope.
#include <mutex>

namespace xh {

class Gate {
 public:
  void kick(ThreadPool& pool) {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
    pool.post([this] { work(); });
  }
  void work() {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
  }

 private:
  std::mutex mu_;
  int pending_ = 0;
};

}  // namespace xh
