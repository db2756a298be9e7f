// Whole-file read and write, for the dumps, reports and traces that the
// telemetry layer and the tools write or read in one piece. It lives here,
// not in storage/, because the storage library links the telemetry one.

#ifndef HDOV_COMMON_FILE_IO_H_
#define HDOV_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace hdov {

// The whole content of the file at `path`; IoError when it cannot be
// opened or read.
Result<std::string> ReadFileToString(const std::string& path);

// Creates or truncates the file at `path` and writes exactly `data`;
// IoError when it cannot be opened, written or closed.
Status WriteStringToFile(const std::string& path, std::string_view data);

}  // namespace hdov

#endif  // HDOV_COMMON_FILE_IO_H_
