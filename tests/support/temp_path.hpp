// Per-process scratch file names for the gtest suites.
//
// ::testing::TempDir() is one directory for every process on the host
// (usually /tmp/), so a fixed file name there races when two build trees
// run ctest at once. temp_path() puts every name in a directory of this
// process's own, ftspan-<pid>, removed with its contents at exit.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace ftspan::test {

inline std::string temp_path(const std::string& name) {
  static const struct Dir {
    std::filesystem::path path;
    Dir()
        : path(std::filesystem::path(::testing::TempDir()) /
               ("ftspan-" + std::to_string(::getpid()))) {
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return (dir.path / name).string();
}

}  // namespace ftspan::test
