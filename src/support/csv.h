// Minimal CSV writer for exporting experiment series (one file per figure)
// so the tables can be re-plotted outside this repository.
//
// Failure contract: an unopenable path (missing directory, no
// permission) throws at CONSTRUCTION with a one-line error citing the
// path -- never a silently empty run -- and `close()` (called by the
// engine sinks on finish) flushes and rechecks the stream, so a write
// that failed later (disk full, I/O error) also surfaces as an error
// instead of a truncated file and exit 0.
#ifndef OPINDYN_SUPPORT_CSV_H
#define OPINDYN_SUPPORT_CSV_H

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace opindyn {

class CsvWriter {
 public:
  /// Opens `path` for writing (no header yet -- call write_header).
  /// Throws std::runtime_error citing the path if it cannot be opened.
  explicit CsvWriter(const std::string& path);

  /// Opens `path` and emits the header row immediately.
  CsvWriter(const std::string& path, const std::vector<std::string>& columns);

  /// Closes the stream, swallowing late I/O errors -- call close()
  /// first when the caller needs them reported.
  ~CsvWriter() = default;

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes the header row; must be called exactly once, before rows.
  void write_header(const std::vector<std::string>& columns);

  /// Writes one row; `values.size()` must equal the number of columns.
  /// Throws std::runtime_error citing the path if the stream failed.
  void write_row(const std::vector<std::string>& values);
  /// Numbers with 12 significant digits (see append_general).
  void write_row(const std::vector<double>& values);

  /// Writes already-encoded rows (whole lines, e.g. a RowBlock's bytes)
  /// in one buffered write.  The bytes are not re-validated: their
  /// producer encoded each cell with append_csv_field.  write_row uses
  /// the same path, one encoded line at a time.
  void write_rows(std::string_view encoded);

  /// Flushes and closes; throws std::runtime_error citing the path if
  /// any buffered write failed (e.g. disk full).  Idempotent.
  void close();

  const std::string& path() const noexcept { return path_; }

 private:
  void check_stream(const char* when);

  std::string path_;
  std::size_t columns_ = 0;
  bool header_written_ = false;
  std::string line_;  // write_row's reused encoding buffer
  std::ofstream out_;
};

/// Quotes a CSV field if it contains separators/quotes/newlines.
std::string csv_escape(const std::string& field);

/// Appends `field` to `out`, quoted as csv_escape would.
void append_csv_field(std::string& out, std::string_view field);

/// Parses the CSV row that starts at byte `at` of `bytes` (fields as
/// append_csv_field writes them, the row ending in '\n' or at the end)
/// into `cells`, and returns the offset just past the row.  The exact
/// inverse of encoding a row with append_csv_field.
std::size_t parse_csv_row(std::string_view bytes, std::size_t at,
                          std::vector<std::string>& cells);

/// Fail-fast writability check WITHOUT truncation: throws the same
/// path-citing std::runtime_error as the CsvWriter constructor if
/// `path` cannot be opened for writing, but leaves an existing file's
/// contents untouched (append-mode probe).  For sinks that only write
/// at finish(): probe at construction, truncate at write time.
void probe_csv_writable(const std::string& path);

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_CSV_H
