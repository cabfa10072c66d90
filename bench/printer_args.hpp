// Argument contract of the paper printers, the one xhybrid_cli keeps: the
// arguments are parsed before any work, and anything a printer does not
// take prints usage to stderr and exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace xh {

[[noreturn]] inline void printer_usage(const char* argv0, const char* flags) {
  std::fprintf(stderr, "usage: %s%s\n", argv0, flags);
  std::exit(2);
}

/// For a printer that takes no arguments.
inline void parse_no_arguments(int argc, char** argv) {
  if (argc != 1) printer_usage(argv[0], "");
}

/// For a printer that takes only `--telemetry PATH`; returns PATH, or ""
/// when the flag is absent.
inline std::string parse_telemetry_argument(int argc, char** argv) {
  if (argc == 1) return {};
  if (argc != 3 || std::string(argv[1]) != "--telemetry" || *argv[2] == '\0') {
    printer_usage(argv[0], " [--telemetry PATH]");
  }
  return argv[2];
}

}  // namespace xh
