// Build identification: which sources, compiler and flags produced this
// binary.  One block reused verbatim by `opindyn version`, the
// `--metrics-json` run report's "build" section, and perf_baseline's
// BENCH_*.json -- so a recorded run or benchmark is always attributable
// to a build.  The values are baked in at CMake configure time (see
// src/CMakeLists.txt); the git hash therefore describes the checkout
// that was CONFIGURED, which can trail the working tree until the next
// cmake run ("-dirty" marks uncommitted changes at configure time).
#ifndef OPINDYN_SUPPORT_BUILD_INFO_H
#define OPINDYN_SUPPORT_BUILD_INFO_H

#include <string>

#include "src/support/json.h"

namespace opindyn {

struct BuildInfo {
  std::string git_hash;    // short hash, "-dirty" suffixed; "unknown"
  std::string compiler;    // e.g. "GNU 13.2.0"
  std::string flags;       // CXX flags incl. the build-type set
  std::string build_type;  // e.g. "Release"
  std::string cxx_standard;
  bool checked_hot_path = false;  // OPINDYN_CHECKED_HOT_PATH state
  /// The lane kernel this CPU runs (core/lane_kernel.h): "avx512f" or
  /// "none", from a run-time check -- the one field that describes the
  /// machine rather than the build.  Output bytes never depend on it.
  std::string lane_kernel;
};

const BuildInfo& build_info();

/// The shared machine-readable "build" block.
json::Value build_info_json();

/// Multi-line human rendering (the `opindyn version` output).
std::string build_info_text();

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_BUILD_INFO_H
