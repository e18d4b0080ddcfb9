#include "src/support/csv.h"

#include <stdexcept>

#include "src/support/assert.h"
#include "src/support/format.h"

namespace opindyn {

void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    out.append(field);
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string csv_escape(const std::string& field) {
  std::string quoted;
  append_csv_field(quoted, field);
  return quoted;
}

std::size_t parse_csv_row(std::string_view bytes, std::size_t at,
                          std::vector<std::string>& cells) {
  cells.clear();
  std::string cell;
  bool quoted = false;
  for (; at < bytes.size(); ++at) {
    const char c = bytes[at];
    if (quoted) {
      if (c != '"') {
        cell += c;
      } else if (at + 1 < bytes.size() && bytes[at + 1] == '"') {
        cell += '"';
        ++at;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n') {
      ++at;
      break;
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return at;
}

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  OPINDYN_EXPECTS(!path.empty(), "CSV writer needs a non-empty path");
  if (!out_) {
    throw std::runtime_error("cannot open CSV file for writing: " + path);
  }
}

void probe_csv_writable(const std::string& path) {
  OPINDYN_EXPECTS(!path.empty(), "CSV writer needs a non-empty path");
  const std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw std::runtime_error("cannot open CSV file for writing: " + path);
  }
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& columns)
    : CsvWriter(path) {
  write_header(columns);
}

void CsvWriter::check_stream(const char* when) {
  if (!out_) {
    throw std::runtime_error(std::string("CSV write failed (") + when +
                             "): " + path_);
  }
}

void CsvWriter::write_header(const std::vector<std::string>& columns) {
  OPINDYN_EXPECTS(!columns.empty(), "CSV needs at least one column");
  OPINDYN_EXPECTS(!header_written_, "CSV header already written");
  columns_ = columns.size();
  header_written_ = true;
  line_.clear();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) {
      line_ += ',';
    }
    append_csv_field(line_, columns[i]);
  }
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  check_stream("header");
}

void CsvWriter::write_row(const std::vector<std::string>& values) {
  OPINDYN_EXPECTS(header_written_, "CSV header not written yet");
  OPINDYN_EXPECTS(values.size() == columns_,
                  "CSV row width does not match header");
  line_.clear();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      line_ += ',';
    }
    append_csv_field(line_, values[i]);
  }
  line_ += '\n';
  write_rows(line_);
}

void CsvWriter::write_row(const std::vector<double>& values) {
  std::vector<std::string> as_text(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    append_general(as_text[i], values[i], 12);
  }
  write_row(as_text);
}

void CsvWriter::write_rows(std::string_view encoded) {
  OPINDYN_EXPECTS(header_written_, "CSV header not written yet");
  out_.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  check_stream("row");
}

void CsvWriter::close() {
  if (!out_.is_open()) {
    return;
  }
  out_.flush();
  check_stream("close");
  out_.close();
  check_stream("close");
}

}  // namespace opindyn
