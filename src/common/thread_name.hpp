// Thread names and CPU time, so ps -L, top -H, gdb, /proc/<pid>/task/*
// and dmlfpd's drain report show which role each of the daemon's
// threads plays and what it cost.
#pragma once

#include <string>

namespace dml::common {

/// Names the calling thread; call it first thing in a thread's body.
/// Linux keeps at most 15 bytes, so a longer name is cut to that.
/// (Naming another thread instead opens and writes its /proc entry on
/// the creator's path, which measurably slows a daemon's set-up.)
void name_this_thread(const std::string& name);

/// CPU seconds the calling thread has used so far
/// (CLOCK_THREAD_CPUTIME_ID); 0 if the clock is unavailable.  A thread
/// reports its total by calling it as the last thing it does.
double thread_cpu_seconds();

}  // namespace dml::common
