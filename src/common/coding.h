// Little-endian fixed-width encoding helpers for on-page serialization.
//
// Every on-disk structure in this library (R-tree nodes, V-pages,
// V-page-index segments) is serialized with these primitives so that page
// layouts are byte-accurate and the storage numbers reported by the
// benchmarks reflect real encoded sizes.

#ifndef HDOV_COMMON_CODING_H_
#define HDOV_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hdov {

inline void EncodeFixed32(std::string* dst, uint32_t value) {
  char buf[sizeof(value)];
  std::memcpy(buf, &value, sizeof(value));
  dst->append(buf, sizeof(value));
}

inline void EncodeFixed64(std::string* dst, uint64_t value) {
  char buf[sizeof(value)];
  std::memcpy(buf, &value, sizeof(value));
  dst->append(buf, sizeof(value));
}

inline void EncodeFloat(std::string* dst, float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  EncodeFixed32(dst, bits);
}

inline void EncodeDouble(std::string* dst, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  EncodeFixed64(dst, bits);
}

// Decoder over a read-only byte span. Decode* methods fail with Corruption
// when the input is exhausted, so malformed pages surface as errors rather
// than out-of-bounds reads.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  Status DecodeFixed32(uint32_t* value) {
    return DecodeRaw(value, sizeof(*value));
  }
  Status DecodeFixed64(uint64_t* value) {
    return DecodeRaw(value, sizeof(*value));
  }
  Status DecodeFloat(float* value) { return DecodeRaw(value, sizeof(*value)); }
  Status DecodeDouble(double* value) {
    return DecodeRaw(value, sizeof(*value));
  }

  // Corruption unless the rest of the input can hold `n` items of at least
  // `min_bytes_each` bytes. Call it before sizing a container from a count
  // read off the input, so a bad count cannot demand a huge allocation.
  Status CheckCount(uint64_t n, size_t min_bytes_each) const {
    if (min_bytes_each == 0 || n > remaining() / min_bytes_each) {
      return Status::Corruption("decoder: count exceeds the remaining input");
    }
    return Status::OK();
  }

  // The next `n` bytes, as a view into the input.
  Status DecodeBytes(size_t n, std::string_view* out) {
    if (remaining() < n) {
      return Status::Corruption("decoder: read past end of input");
    }
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) {
      return Status::Corruption("decoder: skip past end of input");
    }
    pos_ += n;
    return Status::OK();
  }

 private:
  Status DecodeRaw(void* out, size_t n) {
    if (remaining() < n) {
      return Status::Corruption("decoder: read past end of input");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace hdov

#endif  // HDOV_COMMON_CODING_H_
