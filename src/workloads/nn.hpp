// Neural-network inference substrate for Fig. 11b (image recognition):
// a small tensor library with GEMM-based convolution and a ResNet-style
// classifier, replacing the paper's PyTorch/TorchScript dependency with
// real from-scratch inference on real pixels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "workloads/image.hpp"

namespace rfs::workloads::nn {

/// Dense tensor in NCHW-ish layout (we only need CHW, batch = 1).
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t channels, std::size_t height, std::size_t width)
      : c_(channels), h_(height), w_(width), data_(channels * height * width, 0.0f) {}

  [[nodiscard]] std::size_t channels() const { return c_; }
  [[nodiscard]] std::size_t height() const { return h_; }
  [[nodiscard]] std::size_t width() const { return w_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] float& at(std::size_t c, std::size_t y, std::size_t x) {
    return data_[(c * h_ + y) * w_ + x];
  }
  [[nodiscard]] float at(std::size_t c, std::size_t y, std::size_t x) const {
    return data_[(c * h_ + y) * w_ + x];
  }
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

 private:
  std::size_t c_ = 0, h_ = 0, w_ = 0;
  std::vector<float> data_;
};

/// 2D convolution layer (kernel k x k, stride s, same-ish padding),
/// deterministic He-style random weights.
struct Conv2d {
  std::size_t in_channels, out_channels, kernel, stride;
  std::vector<float> weights;  // [out][in][k][k]
  std::vector<float> bias;     // [out]

  Conv2d(std::size_t in, std::size_t out, std::size_t k, std::size_t s, std::uint64_t seed);
  [[nodiscard]] Tensor forward(const Tensor& x) const;
};

/// Fully connected layer.
struct Linear {
  std::size_t in_features, out_features;
  std::vector<float> weights;
  std::vector<float> bias;

  Linear(std::size_t in, std::size_t out, std::uint64_t seed);
  [[nodiscard]] std::vector<float> forward(const std::vector<float>& x) const;
};

void relu_inplace(Tensor& t);
Tensor max_pool2(const Tensor& t);           // 2x2, stride 2
std::vector<float> global_avg_pool(const Tensor& t);
std::vector<float> softmax(const std::vector<float>& logits);

/// A ResNet-style classifier: stem conv + residual blocks + pooled FC
/// head. Depth/width are scaled down so inference is feasible in tests;
/// the virtual-time cost model charges the paper-measured 112 ms.
class Classifier {
 public:
  Classifier(std::size_t num_classes, std::uint64_t seed);

  /// Decodes the PPM, resizes to the 64x64 input, normalizes and runs the
  /// network. Returns class probabilities.
  Result<std::vector<float>> classify_ppm(std::span<const std::uint8_t> ppm) const;

  /// Raw tensor inference.
  [[nodiscard]] std::vector<float> forward(const Tensor& input) const;

  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

 private:
  struct Block {
    Conv2d conv1;
    Conv2d conv2;
  };
  std::size_t num_classes_;
  Conv2d stem_;
  std::vector<Block> blocks_;
  Linear head_;
};

/// Paper-calibrated inference latency (ResNet-50 on one core: ~112 ms,
/// nearly input-size independent because the model dominates).
inline Duration inference_time(std::size_t /*input_bytes*/) { return 112_ms; }

}  // namespace rfs::workloads::nn
