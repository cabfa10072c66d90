// XH-FLOW-003 non-firing fixture: kick() posts after the lock's scope
// ends. The lock the first posted lambda takes holds only inside that
// lambda: it covers neither its own post nor the next one.
#include <mutex>

namespace xh {

class Gate {
 public:
  void kick(ThreadPool& pool) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    pool.post([this] {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    });
    pool.post([this] { notify(); });
  }

 private:
  std::mutex mu_;
  int pending_ = 0;
};

}  // namespace xh
