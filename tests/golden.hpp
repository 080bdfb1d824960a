// Golden-file checks. A file under tests/golden/ holds one line per recorded
// case: the case key, then what the case produced — Report fields as hex
// floats/integers and a 64-bit hash of the output values. A test formats its
// own run the same way and compares the whole line, so any change to a
// simulated time, counter or output bit shows as a line diff.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/report.hpp"

#ifndef ASCAN_GOLDEN_DIR
#error "ASCAN_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace ascend::testing {

/// Exact text form of a double ("%a"): equal strings iff equal bits.
inline std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over the object bytes of `values`, in hex.
template <typename T>
std::string hash_values(const std::vector<T>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const T& v : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Every field sim::identical compares, in declaration order.
inline std::string golden_report(const sim::Report& r) {
  std::ostringstream os;
  os << "time=" << hexf(r.time_s) << " launches=" << r.launches
     << " steps=" << r.steps << " gm_read=" << r.gm_read_bytes
     << " gm_write=" << r.gm_write_bytes << " l2_hit=" << r.l2_hit_bytes
     << " cube=" << hexf(r.cube_busy_s) << " vec=" << hexf(r.vec_busy_s)
     << " mte=" << hexf(r.mte_busy_s) << " scalar=" << hexf(r.scalar_busy_s)
     << " hbm=" << hexf(r.hbm_busy_s) << " ops=" << r.num_ops
     << " faults=" << r.mte_faults << "/" << r.ecc_single << "/"
     << r.ecc_double << "/" << r.hangs << "/" << r.throttled_subcores
     << " retries=" << r.retries << " excluded=" << r.excluded_cores
     << " backoff=" << hexf(r.backoff_s);
  return os.str();
}

/// The recorded line for `key` in tests/golden/<file> (key included), or
/// an empty string when the file or the key is missing. Compare it with
/// `key + " " + actual` so a failure prints the line to record.
inline std::string golden_line(const std::string& file,
                               const std::string& key) {
  std::ifstream in(std::string(ASCAN_GOLDEN_DIR) + "/" + file);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size() + 1, key + " ") == 0) return line;
  }
  return {};
}

/// Expects the recorded line for `key` to read `key actual`.
inline void expect_golden(const std::string& file, const std::string& key,
                          const std::string& actual) {
  EXPECT_EQ(golden_line(file, key), key + " " + actual)
      << "recorded in tests/golden/" << file;
}

}  // namespace ascend::testing
