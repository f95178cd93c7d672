#include "common/table.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>

namespace rfs {

namespace {
std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[128];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}
}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::row(std::vector<std::string> cells) {
  if (cells.size() > header_.size()) {
    std::fprintf(stderr, "Table::row: %zu cells for %zu columns\n", cells.size(),
                 header_.size());
    std::abort();
  }
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) { return format("%.*f", precision, v); }

std::string Table::us(double nanoseconds, int precision) {
  return format("%.*f us", precision, nanoseconds / 1e3);
}

std::string Table::ms(double nanoseconds, int precision) {
  return format("%.*f ms", precision, nanoseconds / 1e6);
}

void Table::print(std::FILE* out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < widths.size(); ++c) widths[c] = std::max(widths[c], r[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      std::fprintf(out, "%s%-*s", c ? "  " : "", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  for (std::size_t i = 0; i + 2 < total; ++i) std::fputc('-', out);
  std::fputc('\n', out);
  for (const auto& r : rows_) print_row(r);
}

void Table::print_csv(std::FILE* out) const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::fprintf(out, "%s%s", c ? "," : "", cells[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(header_);
  for (const auto& r : rows_) print_row(r);
}

void Table::print_json(std::FILE* out) const {
  auto print_string = [&](const std::string& s) {
    std::fputc('"', out);
    for (char ch : s) {
      switch (ch) {
        case '"': std::fputs("\\\"", out); break;
        case '\\': std::fputs("\\\\", out); break;
        case '\n': std::fputs("\\n", out); break;
        case '\t': std::fputs("\\t", out); break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            std::fprintf(out, "\\u%04x", ch);
          } else {
            std::fputc(ch, out);
          }
      }
    }
    std::fputc('"', out);
  };
  auto print_array = [&](const std::vector<std::string>& cells) {
    std::fputc('[', out);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) std::fputs(", ", out);
      print_string(cells[c]);
    }
    std::fputc(']', out);
  };
  std::fputs("{\"columns\": ", out);
  print_array(header_);
  std::fputs(", \"rows\": [", out);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) std::fputs(", ", out);
    print_array(rows_[r]);
  }
  std::fputs("]}\n", out);
}

}  // namespace rfs
