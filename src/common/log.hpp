// Leveled logging with a process-global sink. The level starts at Warn
// and no binary lowers it, so info and debug lines print only in a
// program that calls set_level first.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace rfs::log {

enum class Level { Trace = 0, Debug, Info, Warn, Err, Off };

/// Sets the global minimum level; messages below it are discarded.
void set_level(Level level);
/// Current global level.
Level level();

/// Emits one formatted line (`[level] component: message`) to stderr.
void write(Level level, const char* component, const std::string& message);

namespace detail {
inline void append(std::ostringstream&) {}
template <typename Head, typename... Tail>
void append(std::ostringstream& os, Head&& head, Tail&&... tail) {
  os << std::forward<Head>(head);
  append(os, std::forward<Tail>(tail)...);
}
}  // namespace detail

template <typename... Args>
void logf(Level lvl, const char* component, Args&&... args) {
  if (lvl < level()) return;
  std::ostringstream os;
  detail::append(os, std::forward<Args>(args)...);
  write(lvl, component, os.str());
}

template <typename... Args>
void trace(const char* c, Args&&... a) { logf(Level::Trace, c, std::forward<Args>(a)...); }
template <typename... Args>
void debug(const char* c, Args&&... a) { logf(Level::Debug, c, std::forward<Args>(a)...); }
template <typename... Args>
void info(const char* c, Args&&... a) { logf(Level::Info, c, std::forward<Args>(a)...); }
template <typename... Args>
void warn(const char* c, Args&&... a) { logf(Level::Warn, c, std::forward<Args>(a)...); }
template <typename... Args>
void error(const char* c, Args&&... a) { logf(Level::Err, c, std::forward<Args>(a)...); }

}  // namespace rfs::log
