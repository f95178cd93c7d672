#include "workloads/nn.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace rfs::workloads::nn {

namespace {
void he_init(std::vector<float>& w, std::size_t fan_in, std::uint64_t seed) {
  Rng rng(seed);
  const double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, scale));
}
}  // namespace

Conv2d::Conv2d(std::size_t in, std::size_t out, std::size_t k, std::size_t s,
               std::uint64_t seed)
    : in_channels(in),
      out_channels(out),
      kernel(k),
      stride(s),
      weights(out * in * k * k),
      bias(out, 0.0f) {
  he_init(weights, in * k * k, seed);
}

Tensor Conv2d::forward(const Tensor& x) const {
  const std::size_t pad = kernel / 2;
  const std::size_t out_h = (x.height() + 2 * pad - kernel) / stride + 1;
  const std::size_t out_w = (x.width() + 2 * pad - kernel) / stride + 1;
  Tensor y(out_channels, out_h, out_w);
  // Direct convolution; dimensions are small enough that im2col buys
  // little here and this form is easy to verify.
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        float acc = bias[oc];
        for (std::size_t ic = 0; ic < in_channels; ++ic) {
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride + ky) - static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(x.height())) continue;
            for (std::size_t kx = 0; kx < kernel; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(x.width())) continue;
              const float w =
                  weights[((oc * in_channels + ic) * kernel + ky) * kernel + kx];
              acc += w * x.at(ic, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix));
            }
          }
        }
        y.at(oc, oy, ox) = acc;
      }
    }
  }
  return y;
}

Linear::Linear(std::size_t in, std::size_t out, std::uint64_t seed)
    : in_features(in), out_features(out), weights(in * out), bias(out, 0.0f) {
  he_init(weights, in, seed);
}

std::vector<float> Linear::forward(const std::vector<float>& x) const {
  std::vector<float> y(out_features, 0.0f);
  for (std::size_t o = 0; o < out_features; ++o) {
    float acc = bias[o];
    const float* row = weights.data() + o * in_features;
    for (std::size_t i = 0; i < in_features; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
  return y;
}

void relu_inplace(Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = std::max(0.0f, t.data()[i]);
}

Tensor max_pool2(const Tensor& t) {
  Tensor y(t.channels(), t.height() / 2, t.width() / 2);
  for (std::size_t c = 0; c < t.channels(); ++c) {
    for (std::size_t oy = 0; oy < y.height(); ++oy) {
      for (std::size_t ox = 0; ox < y.width(); ++ox) {
        float m = t.at(c, 2 * oy, 2 * ox);
        m = std::max(m, t.at(c, 2 * oy, 2 * ox + 1));
        m = std::max(m, t.at(c, 2 * oy + 1, 2 * ox));
        m = std::max(m, t.at(c, 2 * oy + 1, 2 * ox + 1));
        y.at(c, oy, ox) = m;
      }
    }
  }
  return y;
}

std::vector<float> global_avg_pool(const Tensor& t) {
  std::vector<float> y(t.channels(), 0.0f);
  const auto hw = static_cast<float>(t.height() * t.width());
  for (std::size_t c = 0; c < t.channels(); ++c) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < t.height(); ++i) {
      for (std::size_t j = 0; j < t.width(); ++j) acc += t.at(c, i, j);
    }
    y[c] = acc / hw;
  }
  return y;
}

std::vector<float> softmax(const std::vector<float>& logits) {
  std::vector<float> p(logits.size());
  const float mx = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (auto& v : p) v /= sum;
  return p;
}

Classifier::Classifier(std::size_t num_classes, std::uint64_t seed)
    : num_classes_(num_classes), stem_(3, 16, 3, 1, seed + 1), head_(64, num_classes, seed + 99) {
  blocks_.push_back(Block{Conv2d(16, 32, 3, 2, seed + 2), Conv2d(32, 32, 3, 1, seed + 3)});
  blocks_.push_back(Block{Conv2d(32, 64, 3, 2, seed + 4), Conv2d(64, 64, 3, 1, seed + 5)});
}

std::vector<float> Classifier::forward(const Tensor& input) const {
  Tensor x = stem_.forward(input);
  relu_inplace(x);
  x = max_pool2(x);
  for (const auto& block : blocks_) {
    Tensor y = block.conv1.forward(x);
    relu_inplace(y);
    Tensor z = block.conv2.forward(y);
    // Residual connection where shapes match (conv2 is stride 1).
    for (std::size_t i = 0; i < z.size() && i < y.size(); ++i) {
      z.data()[i] += y.data()[i];
    }
    relu_inplace(z);
    x = std::move(z);
  }
  auto pooled = global_avg_pool(x);
  return softmax(head_.forward(pooled));
}

Result<std::vector<float>> Classifier::classify_ppm(std::span<const std::uint8_t> ppm) const {
  auto decoded = decode_ppm(ppm);
  if (!decoded) return decoded.error();
  Image resized = resize_bilinear(decoded.value(), 64, 64);
  Tensor input(3, 64, 64);
  for (std::size_t y = 0; y < 64; ++y) {
    for (std::size_t x = 0; x < 64; ++x) {
      const auto* px = resized.at(static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y));
      for (std::size_t c = 0; c < 3; ++c) {
        input.at(c, y, x) = (static_cast<float>(px[c]) / 255.0f - 0.5f) * 2.0f;
      }
    }
  }
  return forward(input);
}

}  // namespace rfs::workloads::nn
