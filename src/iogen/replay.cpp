#include "iogen/replay.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.h"

namespace pas::iogen {

namespace {

// Splits a CSV line at commas; each field has surrounding spaces trimmed.
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (true) {
    std::size_t end = line.find(',', pos);
    if (end == std::string::npos) end = line.size();
    std::size_t b = pos;
    std::size_t e = end;
    while (b < e && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1]))) --e;
    fields.push_back(line.substr(b, e - b));
    if (end == line.size()) return fields;
    pos = end + 1;
  }
}

// Parses a field of decimal digits only (no sign, no spaces) whose value is
// at most `max`; returns what is wrong with it, or nullptr. strtoull would
// accept a leading '-' and wrap it.
const char* parse_u64(const std::string& s, std::uint64_t max, std::uint64_t& out) {
  if (s.empty()) return " is not an unsigned integer";
  std::uint64_t v = 0;
  bool in_range = true;
  for (const char c : s) {
    if (c < '0' || c > '9') return " is not an unsigned integer";
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (max - digit) / 10) in_range = false;
    if (in_range) v = v * 10 + digit;
  }
  if (!in_range) return " out of range";
  out = v;
  return nullptr;
}

// Reads one line of any length, without its line terminator; false at EOF.
bool read_line(std::FILE* f, std::string& line) {
  line.clear();
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line += buf;
    if (line.back() == '\n') break;
  }
  if (line.empty()) return false;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return true;
}

[[noreturn]] void bad_record(std::FILE* f, const std::string& path, std::size_t line_no,
                             const std::string& what) {
  std::fclose(f);
  std::fprintf(stderr, "ReplayTrace: %s at %s:%zu\n", what.c_str(), path.c_str(), line_no);
  std::abort();
}

}  // namespace

ReplayTrace ReplayTrace::from_records(std::vector<TraceRecord> records) {
  PAS_CHECK_MSG(!records.empty(), "a replay trace needs at least one record");
  TimeNs prev = 0;
  for (const TraceRecord& r : records) {
    PAS_CHECK_MSG(r.at >= prev, "trace timestamps must be non-decreasing");
    PAS_CHECK_MSG(r.bytes > 0, "trace records need a positive length");
    PAS_CHECK_MSG(r.op == sim::IoOp::kRead || r.op == sim::IoOp::kWrite,
                  "trace replay supports read and write records");
    prev = r.at;
  }
  ReplayTrace t;
  t.records_ = std::move(records);
  return t;
}

ReplayTrace ReplayTrace::load_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  PAS_CHECK_MSG(f != nullptr, "cannot open trace file");
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) { bad_record(f, path, line_no, what); };
  const auto number = [&](const std::string& field, std::uint64_t max, const char* name) {
    std::uint64_t v = 0;
    if (const char* wrong = parse_u64(field, max, v)) fail(name + std::string(wrong));
    return v;
  };
  while (read_line(f, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split_fields(line);
    // A first field that does not start like a number, on the first data
    // line, is a header row.
    const char lead = fields[0].empty() ? '\0' : fields[0][0];
    if (records.empty() && !std::isdigit(static_cast<unsigned char>(lead)) && lead != '-' &&
        lead != '+') {
      continue;
    }
    TraceRecord r;
    r.at = static_cast<TimeNs>(
        number(fields[0], static_cast<std::uint64_t>(std::numeric_limits<TimeNs>::max()),
               "timestamp"));
    if (fields.size() != 4) {
      fail(fields.size() < 4 ? "expected timestamp,op,lba,len" : "trailing field after len");
    }
    if (!records.empty() && r.at < records.back().at) {
      fail("trace timestamps must be non-decreasing");
    }
    const std::string& op = fields[1];
    const char c = op.empty() ? '\0' : static_cast<char>(std::tolower(
                                           static_cast<unsigned char>(op[0])));
    if (c == 'r') {
      r.op = sim::IoOp::kRead;
    } else if (c == 'w') {
      r.op = sim::IoOp::kWrite;
    } else {
      fail("op must be R or W");
    }
    r.bytes = static_cast<std::uint32_t>(number(fields[3], 0xFFFFFFFFull, "len"));
    if (r.bytes == 0) fail("len must be positive");
    // The record's last byte must be addressable: lba * 512 + len fits.
    const std::uint64_t max_lba =
        (std::numeric_limits<std::uint64_t>::max() - r.bytes) / kTraceSectorBytes;
    r.offset = number(fields[2], max_lba, "lba") * kTraceSectorBytes;
    records.push_back(r);
  }
  std::fclose(f);
  PAS_CHECK_MSG(!records.empty(), "trace file has no records");
  return from_records(std::move(records));
}

void ReplayTrace::save_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PAS_CHECK_MSG(f != nullptr, "cannot write trace file");
  std::fprintf(f, "timestamp,op,lba,len\n");
  for (const TraceRecord& r : records_) {
    PAS_CHECK_MSG(r.offset % kTraceSectorBytes == 0,
                  "record offset is not sector-aligned");
    std::fprintf(f, "%lld,%c,%llu,%u\n", static_cast<long long>(r.at),
                 r.op == sim::IoOp::kRead ? 'R' : 'W',
                 static_cast<unsigned long long>(r.offset / kTraceSectorBytes), r.bytes);
  }
  std::fclose(f);
}

TimeNs ReplayTrace::duration() const {
  return records_.empty() ? 0 : records_.back().at;
}

std::uint64_t ReplayTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const TraceRecord& r : records_) total += r.bytes;
  return total;
}

}  // namespace pas::iogen
