#include "common/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>

#include "common/io.h"
#include "common/journal.h"
#include "obs/metrics.h"

namespace kea {
namespace {

// Deterministic write/byte totals; write latency is kTiming (wall clock).
obs::Counter* SnapshotWritesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("snapshot.writes");
  return c;
}
obs::Counter* SnapshotBytesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("snapshot.bytes");
  return c;
}
obs::Histogram* SnapshotWriteLatencyHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "snapshot.write_us", "", obs::LatencyBucketsUs(), obs::Kind::kTiming);
  return h;
}
obs::Counter* GenerationsDiscardedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.generations_discarded");
  return c;
}

constexpr char kMagic[] = "KEASNP01";
constexpr size_t kMagicLen = 8;

void AppendU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

Status ParseU32(const std::string& data, size_t* pos, uint32_t* v) {
  if (data.size() - *pos < 4) {
    return Status::InvalidArgument("snapshot truncated");
  }
  const char* p = data.data() + *pos;
  *v = static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
       static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
       static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
       static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
  *pos += 4;
  return Status::OK();
}

}  // namespace

void SnapshotWriter::AddSection(const std::string& name, std::string content) {
  sections_.emplace_back(name, std::move(content));
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  std::string out(kMagic, kMagicLen);
  // The section count makes truncation at an exact section boundary — which
  // no per-section CRC can catch — detectable.
  AppendU32(static_cast<uint32_t>(sections_.size()), &out);
  for (const auto& [name, content] : sections_) {
    AppendU32(static_cast<uint32_t>(name.size()), &out);
    out += name;
    AppendU32(static_cast<uint32_t>(content.size()), &out);
    // The CRC covers name and content: a rotted name byte must not be able
    // to silently rename (and thereby hide) a section.
    AppendU32(Crc32Extend(Crc32(name), content), &out);
    out += content;
  }
  const auto start = std::chrono::steady_clock::now();
  Status written = AtomicWriteFile(path, out);
  if (written.ok()) {
    SnapshotWritesCounter()->Increment();
    SnapshotBytesCounter()->Increment(out.size());
    if (obs::MetricsEnabled()) {
      SnapshotWriteLatencyHistogram()->Observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
  }
  return written;
}

StatusOr<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::string data;
  KEA_ASSIGN_OR_RETURN(data, ReadFileToString(path));
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("not a KEA snapshot: " + path);
  }
  SnapshotReader reader;
  size_t pos = kMagicLen;
  uint32_t section_count = 0;
  KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &section_count));
  std::set<std::string> seen;
  for (uint32_t i = 0; i < section_count; ++i) {
    if (pos >= data.size()) {
      return Status::InvalidArgument(
          "snapshot section count mismatch: declared " +
          std::to_string(section_count) + " sections, found " +
          std::to_string(reader.sections_.size()));
    }
    uint32_t name_len = 0, content_len = 0, crc = 0;
    KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &name_len));
    if (data.size() - pos < name_len) {
      return Status::InvalidArgument("snapshot truncated in section name");
    }
    std::string name(data.data() + pos, name_len);
    pos += name_len;
    KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &content_len));
    KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &crc));
    if (data.size() - pos < content_len) {
      return Status::InvalidArgument("snapshot truncated in section '" + name +
                                     "'");
    }
    std::string content(data.data() + pos, content_len);
    pos += content_len;
    if (Crc32Extend(Crc32(name), content) != crc) {
      return Status::InvalidArgument("snapshot CRC mismatch in section '" +
                                     name + "'");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("snapshot has duplicate section '" +
                                     name + "'");
    }
    reader.sections_.emplace_back(std::move(name), std::move(content));
  }
  if (pos != data.size()) {
    return Status::InvalidArgument(
        "snapshot trailer mismatch: " + std::to_string(data.size() - pos) +
        " trailing bytes after " + std::to_string(section_count) +
        " declared sections");
  }
  return reader;
}

Status SnapshotGenerations::Write(const SnapshotWriter& snapshot,
                                  const std::string& path, int keep) {
  if (keep <= 0) return snapshot.WriteFile(path);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Rotate the live checkpoint out of the way before installing the new
    // one. A crash (or fault) between the rotate and the install leaves no
    // live file, but the rotated generation still restores.
    std::vector<uint64_t> gens = List(path);
    const uint64_t next = gens.empty() ? 1 : gens.back() + 1;
    KEA_RETURN_IF_ERROR(Io::Get().Rename(path, GenerationPath(path, next)));
  }
  KEA_RETURN_IF_ERROR(snapshot.WriteFile(path));
  std::vector<uint64_t> gens = List(path);
  while (static_cast<int>(gens.size()) > keep) {
    // Best-effort, injection-proof prune: a broken disk must not be able to
    // fail a checkpoint that already installed.
    Io::Get().RemoveFile(GenerationPath(path, gens.front()));
    gens.erase(gens.begin());
  }
  return Status::OK();
}

std::string SnapshotGenerations::GenerationPath(const std::string& path,
                                                uint64_t generation) {
  return path + ".g" + std::to_string(generation);
}

std::vector<uint64_t> SnapshotGenerations::List(const std::string& path) {
  std::vector<uint64_t> gens;
  const std::filesystem::path live(path);
  std::filesystem::path dir = live.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = live.filename().string() + ".g";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    gens.push_back(std::stoull(digits));
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

StatusOr<SnapshotGenerations::Restored> SnapshotGenerations::RestoreLatestValid(
    const std::string& path, const Validator& validate) {
  std::vector<std::pair<uint64_t, std::string>> candidates;
  candidates.emplace_back(0, path);  // The live file is newest.
  std::vector<uint64_t> gens = List(path);
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    candidates.emplace_back(*it, GenerationPath(path, *it));
  }

  size_t discarded = 0;
  Status last_error = Status::NotFound("no snapshot at " + path);
  bool any_exists = false;
  for (const auto& [gen, cpath] : candidates) {
    auto opened = SnapshotReader::Open(cpath);
    if (!opened.ok()) {
      if (opened.status().code() == StatusCode::kNotFound) continue;
      // Exists but unreadable or corrupt: discard and fall back.
      any_exists = true;
      ++discarded;
      last_error = opened.status();
      continue;
    }
    any_exists = true;
    if (validate) {
      Status valid = validate(opened.value());
      if (!valid.ok()) {
        ++discarded;
        last_error = valid;
        continue;
      }
    }
    if (discarded > 0) GenerationsDiscardedCounter()->Increment(discarded);
    Restored restored;
    restored.reader = std::move(opened).value();
    restored.source_path = cpath;
    restored.generation = gen;
    restored.discarded = discarded;
    return restored;
  }
  if (discarded > 0) GenerationsDiscardedCounter()->Increment(discarded);
  if (!any_exists) return Status::NotFound("no snapshot at " + path);
  return last_error;
}

StatusOr<std::string> SnapshotReader::Section(const std::string& name) const {
  for (const auto& [n, content] : sections_) {
    if (n == name) return content;
  }
  return Status::NotFound("snapshot has no section '" + name + "'");
}

bool SnapshotReader::Has(const std::string& name) const {
  for (const auto& [n, content] : sections_) {
    if (n == name) return true;
  }
  return false;
}

void StateWriter::PutU32(uint32_t v) { AppendU32(v, &buf_); }

void StateWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void StateWriter::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void StateWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_ += s;
}

Status StateReader::GetU32(uint32_t* v) { return ParseU32(data_, &pos_, v); }

Status StateReader::GetU64(uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  KEA_RETURN_IF_ERROR(GetU32(&lo));
  KEA_RETURN_IF_ERROR(GetU32(&hi));
  *v = static_cast<uint64_t>(hi) << 32 | lo;
  return Status::OK();
}

Status StateReader::GetI64(int64_t* v) {
  uint64_t u = 0;
  KEA_RETURN_IF_ERROR(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status StateReader::GetInt(int* v) {
  int64_t i = 0;
  KEA_RETURN_IF_ERROR(GetI64(&i));
  if (i < std::numeric_limits<int>::min() || i > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("state integer out of int range");
  }
  *v = static_cast<int>(i);
  return Status::OK();
}

Status StateReader::GetBool(bool* v) {
  uint32_t u = 0;
  KEA_RETURN_IF_ERROR(GetU32(&u));
  if (u > 1) return Status::InvalidArgument("state bool is neither 0 nor 1");
  *v = u != 0;
  return Status::OK();
}

Status StateReader::GetDouble(double* v) {
  uint64_t bits = 0;
  KEA_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status StateReader::GetString(std::string* s) {
  uint32_t len = 0;
  KEA_RETURN_IF_ERROR(GetU32(&len));
  if (data_.size() - pos_ < len) {
    return Status::InvalidArgument("state blob truncated in string");
  }
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

bool StateReader::GetCount(uint64_t* count) {
  if (!Check(GetU64(count))) return false;
  return Check(*count <= data_.size() - pos_
                   ? Status::OK()
                   : Status::InvalidArgument(
                         "state count " + std::to_string(*count) +
                         " exceeds the remaining bytes"));
}

bool StateReader::Check(const Status& status) {
  if (!status.ok() && status_.ok()) status_ = status;
  return status.ok();
}

Status StateReader::Finish() const {
  KEA_RETURN_IF_ERROR(status_);
  if (!AtEnd()) {
    return Status::InvalidArgument(std::to_string(data_.size() - pos_) +
                                   " trailing bytes in state blob");
  }
  return Status::OK();
}

}  // namespace kea
