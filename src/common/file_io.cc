#include "common/file_io.h"

#include <fstream>
#include <iterator>

namespace hdov {

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError("read from " + path + " failed");
  }
  return data;
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path);
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  if (!out) {
    return Status::IoError("write to " + path + " failed");
  }
  return Status::OK();
}

}  // namespace hdov
