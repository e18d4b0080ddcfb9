#include "src/support/build_info.h"

#include <sstream>

#include "src/core/lane_kernel.h"

// The OPINDYN_BUILD_* macros are injected per-source-file by
// src/CMakeLists.txt so editing them never rebuilds the whole library:
// the git hash through a header the build stamps in the build tree, the
// rest as compile definitions.  The fallbacks keep non-CMake builds
// compiling.
#if __has_include("opindyn_git_hash.h")
#include "opindyn_git_hash.h"
#endif
#ifndef OPINDYN_BUILD_GIT_HASH
#define OPINDYN_BUILD_GIT_HASH "unknown"
#endif
#ifndef OPINDYN_BUILD_COMPILER
#define OPINDYN_BUILD_COMPILER "unknown"
#endif
#ifndef OPINDYN_BUILD_FLAGS
#define OPINDYN_BUILD_FLAGS ""
#endif
#ifndef OPINDYN_BUILD_TYPE
#define OPINDYN_BUILD_TYPE "unknown"
#endif

namespace opindyn {

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_hash = OPINDYN_BUILD_GIT_HASH;
    b.compiler = OPINDYN_BUILD_COMPILER;
    b.flags = OPINDYN_BUILD_FLAGS;
    b.build_type = OPINDYN_BUILD_TYPE;
    b.cxx_standard = std::to_string(__cplusplus);  // e.g. "202002"
#ifdef OPINDYN_CHECKED_HOT_PATH
    b.checked_hot_path = true;
#else
    b.checked_hot_path = false;
#endif
    b.lane_kernel = lanes::kernel_name();
    return b;
  }();
  return info;
}

json::Value build_info_json() {
  const BuildInfo& b = build_info();
  json::Object block;
  block.emplace_back("git_hash", b.git_hash);
  block.emplace_back("compiler", b.compiler);
  block.emplace_back("flags", b.flags);
  block.emplace_back("build_type", b.build_type);
  block.emplace_back("cxx_standard", b.cxx_standard);
  block.emplace_back("checked_hot_path", b.checked_hot_path);
  block.emplace_back("lane_kernel", b.lane_kernel);
  return json::Value(std::move(block));
}

std::string build_info_text() {
  const BuildInfo& b = build_info();
  std::ostringstream out;
  out << "opindyn build info\n"
      << "  git hash:         " << b.git_hash << "\n"
      << "  compiler:         " << b.compiler << "\n"
      << "  build type:       " << b.build_type << "\n"
      << "  C++ standard:     " << b.cxx_standard << "\n"
      << "  flags:            " << b.flags << "\n"
      << "  checked hot path: " << (b.checked_hot_path ? "on" : "off")
      << "\n"
      << "  lane kernel:      " << b.lane_kernel << "\n";
  return out.str();
}

}  // namespace opindyn
