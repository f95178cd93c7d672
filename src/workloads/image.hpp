// Image substrate for the Fig. 11a thumbnailer benchmark: a binary PPM
// (P6) codec, bilinear resizing and a thumbnail function — the same
// pipeline the paper implements with OpenCV, built from scratch so the
// payloads carry real decodable pixels.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace rfs::workloads {

struct Image {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::uint8_t> pixels;  // RGB, row-major

  [[nodiscard]] std::uint8_t* at(std::uint32_t x, std::uint32_t y) {
    return pixels.data() + 3 * (static_cast<std::size_t>(y) * width + x);
  }
  [[nodiscard]] const std::uint8_t* at(std::uint32_t x, std::uint32_t y) const {
    return pixels.data() + 3 * (static_cast<std::size_t>(y) * width + x);
  }
};

/// Serializes to binary PPM (P6 header + RGB bytes).
Bytes encode_ppm(const Image& img);

/// Parses a binary PPM; validates the header and pixel count.
Result<Image> decode_ppm(std::span<const std::uint8_t> data);

/// Bilinear resampling to the target dimensions.
Image resize_bilinear(const Image& src, std::uint32_t width, std::uint32_t height);

/// The serverless thumbnailer: decode -> resize to fit in `max_dim`
/// (preserving aspect ratio) -> encode. Mirrors the SeBS benchmark.
Result<Bytes> thumbnail(std::span<const std::uint8_t> ppm, std::uint32_t max_dim);

/// Deterministic synthetic photo (smooth gradients + texture) with a PPM
/// encoding of roughly `target_bytes` (paper inputs: 97 kB and 3.6 MB).
Image synthetic_image(std::size_t target_bytes, std::uint64_t seed);

/// Calibrated compute cost of thumbnailing an input of `bytes` (the paper
/// measures 4.4 ms for 97 kB and ~115 ms for 3.6 MB on bare metal).
inline Duration thumbnail_time(std::size_t bytes) {
  return 1_ms + static_cast<Duration>(static_cast<double>(bytes) * 31.5);
}

}  // namespace rfs::workloads
