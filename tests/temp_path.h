// TempPath: scratch file paths for tests, unique per process and per test.
// ctest runs every test case as its own process, in parallel, so a fixed
// file name lets one case delete or overwrite a file that another case is
// still reading.

#ifndef HDOV_TESTS_TEMP_PATH_H_
#define HDOV_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace hdov {

// `<temp dir>/<pid>.<suite>.<test>.<name>`; outside a test (in a suite's
// SetUpTestSuite, say) just `<temp dir>/<pid>.<name>`.
inline std::string TempPath(const std::string& name) {
  std::string tag = std::to_string(::getpid());
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    tag += '.';
    tag += info->test_suite_name();
    tag += '.';
    tag += info->name();
  }
  for (char& c : tag) {
    if (c == '/') {
      c = '_';  // Parameterized names carry slashes.
    }
  }
  return (std::filesystem::temp_directory_path() / (tag + '.' + name))
      .string();
}

}  // namespace hdov

#endif  // HDOV_TESTS_TEMP_PATH_H_
