// Shared helpers for the UniKV benchmark: clock, seeded generators, key
// formatting and the self-checking value codec.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

namespace perfbench {

/// Nanoseconds on the steady clock. Every latency and span in the
/// benchmark is taken with this clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// a / b, or 0 when b is 0 (a ratio over an empty window).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// splitmix64: a fast, well-mixed 64-bit generator; also used as a hash.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    return Mix64(state_);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// YCSB zipfian over [0, n) (Gray et al.), scrambled by a hash so the
/// hot ids are spread over the key space instead of clustering at 0.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; i++) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->Real();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return Mix64(rank % n_) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Keys are fixed-width decimal numbers, so byte order is numeric order.
/// Loaded keys take the numbers id * kKeySlot; the gaps between them hold
/// keys inserted during a run (see KeyModel).
constexpr uint64_t kKeySlot = 16;
constexpr size_t kKeySize = 16;

inline void FormatKey(uint64_t number, char* out /* kKeySize bytes */) {
  out[0] = 'k';
  for (int i = static_cast<int>(kKeySize) - 1; i >= 1; i--) {
    out[i] = static_cast<char>('0' + number % 10);
    number /= 10;
  }
}

inline std::string KeyString(uint64_t number) {
  std::string k(kKeySize, '\0');
  FormatKey(number, k.data());
  return k;
}

/// Parses a key written by FormatKey; false if `data` is not one.
inline bool ParseKey(const char* data, size_t n, uint64_t* number) {
  if (n != kKeySize || data[0] != 'k') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < n; i++) {
    if (data[i] < '0' || data[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(data[i] - '0');
  }
  *number = v;
  return true;
}

/// Value layout: key number (8 bytes, little endian), version (8 bytes),
/// then a fill derived from both. A reader can tell which key and version
/// a value belongs to, and whether any byte of it was damaged.
constexpr size_t kValueHeader = 16;

inline void FillValue(uint64_t number, uint64_t version, char* out,
                      size_t size) {
  uint64_t head[2] = {number, version};
  std::memcpy(out, head, kValueHeader < size ? kValueHeader : size);
  uint64_t state = Mix64(number * 0x100000001B3ull ^ version);
  for (size_t pos = kValueHeader; pos < size; pos += 8) {
    state = Mix64(state);
    std::memcpy(out + pos, &state, size - pos < 8 ? size - pos : 8);
  }
}

enum class ValueCheck { kOk, kWrongKey, kCorrupt };

/// Decodes a value. On kOk and kWrongKey, *version holds the encoded
/// version; kCorrupt means the value does not match any (key, version).
inline ValueCheck CheckValue(uint64_t number, const char* data, size_t n,
                             size_t expected_size, uint64_t* version) {
  if (n != expected_size || n < kValueHeader) return ValueCheck::kCorrupt;
  uint64_t head[2];
  std::memcpy(head, data, kValueHeader);
  *version = head[1];
  char buf[4096];
  if (n > sizeof(buf)) return ValueCheck::kCorrupt;
  FillValue(head[0], head[1], buf, n);
  if (std::memcmp(buf, data, n) != 0) return ValueCheck::kCorrupt;
  return head[0] == number ? ValueCheck::kOk : ValueCheck::kWrongKey;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
