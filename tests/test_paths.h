// Scratch-file paths for tests.
#ifndef FLATNET_TESTS_TEST_PATHS_H_
#define FLATNET_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace flatnet {

// `name` in the system temp directory, prefixed so that no other test can
// collide with it: ctest -j runs every gtest case as its own process in
// parallel, so the prefix carries the running suite and test name plus
// the pid.
inline std::string TempPath(const std::string& name) {
  std::string unique = "flatnet.";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    unique.append(info->test_suite_name()).append(".").append(info->name()).append(".");
  }
  unique.append(std::to_string(::getpid())).append(".").append(name);
  for (char& c : unique) {
    if (c == '/') c = '_';  // parameterized names: "Suite/Test/0"
  }
  return (std::filesystem::temp_directory_path() / unique).string();
}

}  // namespace flatnet

#endif  // FLATNET_TESTS_TEST_PATHS_H_
