// JSON-lines output for campaign results.
//
// JsonRow renders one object with insertion-ordered keys and explicit
// numeric formatting (fixed decimal places, like the printf rows the
// benches used to emit), so a row is byte-reproducible across runs and
// thread counts. JsonlSink enforces a stable schema per table — every
// row must carry its table's first-row keys in the same order — and
// writes each line with a single fwrite, so concurrently-written sinks
// can never interleave half-lines.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace icpda::runner {

/// Escape a string for inclusion inside JSON double quotes.
[[nodiscard]] std::string json_escape(std::string_view s);

class JsonRow {
 public:
  /// Fixed-point double with `precision` decimal places. Non-finite
  /// values render as null (JSON has no NaN/Inf).
  JsonRow& num(std::string_view key, double value, int precision);

  JsonRow& num(std::string_view key, std::uint64_t value);
  JsonRow& num(std::string_view key, int value) {
    return num(key, static_cast<std::uint64_t>(value));
  }

  JsonRow& str(std::string_view key, std::string_view value);
  JsonRow& boolean(std::string_view key, bool value);

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

  /// `{"k": v, ...}` — no trailing newline.
  [[nodiscard]] std::string to_line() const;

 private:
  JsonRow& raw(std::string_view key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> fields_;
};

class JsonlSink {
 public:
  /// Write to an already-open stream (not closed on destruction).
  static JsonlSink to_stream(std::FILE* stream);

  /// Open `path` for writing; throws std::runtime_error on failure.
  static JsonlSink to_file(const std::string& path);

  /// Collect lines into `*out` instead of a stream (tests).
  static JsonlSink to_buffer(std::string* out);

  JsonlSink(JsonlSink&&) noexcept;
  JsonlSink& operator=(JsonlSink&&) = delete;
  ~JsonlSink();

  /// Write one row atomically; flushes so downstream consumers can
  /// stream-parse a live campaign. Throws std::runtime_error if the
  /// row's keys deviate from the first row's schema.
  void write(const JsonRow& row);

  /// Write a `# ...` header/comment line (the bench header convention;
  /// strictly speaking an extension of JSONL).
  void comment(std::string_view text);

  /// Start a new table: write its `# title` line and drop the schema,
  /// so the table's first row sets the keys its later rows must carry.
  void table(std::string_view title);

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  JsonlSink(std::FILE* stream, bool owned, std::string* buffer)
      : stream_(stream), owned_(owned), buffer_(buffer) {}

  void write_line(const std::string& line);

  std::FILE* stream_ = nullptr;
  bool owned_ = false;
  std::string* buffer_ = nullptr;
  std::mutex mutex_;
  std::vector<std::string> schema_;
  std::size_t rows_ = 0;
};

}  // namespace icpda::runner
