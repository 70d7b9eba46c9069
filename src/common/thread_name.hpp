// Thread names, so ps -L, top -H, gdb and /proc/<pid>/task/*/comm show
// which role each of the daemon's threads plays.
#pragma once

#include <string>

namespace dml::common {

/// Names the calling thread; call it first thing in a thread's body.
/// Linux keeps at most 15 bytes, so a longer name is cut to that.
/// (Naming another thread instead opens and writes its /proc entry on
/// the creator's path, which measurably slows a daemon's set-up.)
void name_this_thread(const std::string& name);

}  // namespace dml::common
