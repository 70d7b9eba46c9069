#include "common/thread_name.hpp"

#include <pthread.h>

namespace dml::common {

void name_this_thread(const std::string& name) {
  constexpr std::size_t kMaxNameBytes = 15;
  // Best effort: a name is a diagnostic aid, never worth failing over.
  (void)pthread_setname_np(pthread_self(),
                           name.substr(0, kMaxNameBytes).c_str());
}

}  // namespace dml::common
