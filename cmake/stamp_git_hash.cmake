# Writes OUTPUT, a header defining OPINDYN_BUILD_GIT_HASH: the short hash
# of SOURCE_DIR's HEAD, "-dirty" suffixed when the work tree has
# changes, or "unknown" without git.  src/CMakeLists.txt runs it on every
# build, so an incremental build reports the commit it was built from.
# The file is rewritten only when its content changes, so an unchanged
# hash recompiles nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P stamp_git_hash.cmake
execute_process(
    COMMAND git rev-parse --short HEAD
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE hash
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR hash STREQUAL "")
  set(hash "unknown")
else()
  execute_process(
      COMMAND git status --porcelain
      WORKING_DIRECTORY "${SOURCE_DIR}"
      OUTPUT_VARIABLE status
      ERROR_QUIET)
  if(NOT status STREQUAL "")
    set(hash "${hash}-dirty")
  endif()
endif()

set(content "#define OPINDYN_BUILD_GIT_HASH \"${hash}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
