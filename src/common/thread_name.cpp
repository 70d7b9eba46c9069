#include "common/thread_name.hpp"

#include <pthread.h>
#include <time.h>

namespace dml::common {

void name_this_thread(const std::string& name) {
  constexpr std::size_t kMaxNameBytes = 15;
  // Best effort: a name is a diagnostic aid, never worth failing over.
  (void)pthread_setname_np(pthread_self(),
                           name.substr(0, kMaxNameBytes).c_str());
}

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace dml::common
