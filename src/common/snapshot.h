#ifndef KEA_COMMON_SNAPSHOT_H_
#define KEA_COMMON_SNAPSHOT_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kea {

/// A multi-section checkpoint container written as ONE atomic file. Each
/// section is a named, CRC-checked blob (telemetry CSV, RNG state, cluster
/// config...). Because the whole container goes through AtomicWriteFile, a
/// crash during Checkpoint() can never leave mixed generations of the parts —
/// the checkpoint on disk is either entirely old or entirely new.
///
/// On-disk layout:
///   magic "KEASNP01"
///   [u32 section_count]
///   repeated: [u32 name_len][name][u32 content_len][u32 crc32(name+content)][content]
/// The up-front count catches truncation at an exact section boundary, which
/// the per-section CRCs alone cannot. The CRC covers the section NAME as
/// well as its content: a bit flip in a name would otherwise silently turn
/// an optional section invisible — state loss with no error anywhere.
class SnapshotWriter {
 public:
  /// Adds a named section. Names must be unique; content is arbitrary bytes.
  void AddSection(const std::string& name, std::string content);

  /// Serializes all sections and atomically replaces `path` (temp + rename).
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Reads a snapshot container, verifying every section's CRC. A snapshot
/// that fails any check is rejected whole — partial trust would defeat the
/// all-or-nothing guarantee the writer provides. Rejected with distinct
/// errors: truncation mid-section, fewer sections than declared, trailing
/// bytes past the declared count, duplicate section names, CRC mismatch.
class SnapshotReader {
 public:
  static StatusOr<SnapshotReader> Open(const std::string& path);

  /// Returns the named section, or NotFound.
  StatusOr<std::string> Section(const std::string& name) const;
  bool Has(const std::string& name) const;
  const std::vector<std::pair<std::string, std::string>>& sections() const {
    return sections_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Keep-last-K snapshot generations: every checkpoint write first rotates
/// the live file `<path>` to `<path>.g<N+1>` (monotonic generation numbers),
/// then installs the new container atomically, then prunes to the newest
/// `keep` rotated generations. Restore walks the live file and then the
/// generations newest-first, so a corrupted or half-installed checkpoint
/// falls back to the newest older one that still validates — the caller
/// replays the journal tail from there to catch up.
class SnapshotGenerations {
 public:
  /// Writes `snapshot` to `path` with rotation. `keep <= 0` disables
  /// rotation entirely — byte-identical to SnapshotWriter::WriteFile.
  static Status Write(const SnapshotWriter& snapshot, const std::string& path,
                      int keep);

  /// Rotated generation numbers present next to `path`, ascending.
  static std::vector<uint64_t> List(const std::string& path);

  /// `<path>.g<generation>`.
  static std::string GenerationPath(const std::string& path,
                                    uint64_t generation);

  struct Restored {
    SnapshotReader reader;
    std::string source_path;
    uint64_t generation = 0;  ///< 0 = the live file.
    size_t discarded = 0;     ///< Newer candidates skipped as invalid.
  };
  /// Opens the newest candidate that (a) parses with all CRCs intact and
  /// (b) passes `validate` (optional — e.g. "checkpoint coverage must not
  /// exceed what the ledger holds"). Candidates that exist but fail either
  /// check are counted in `discarded` and bump the
  /// `durability.generations_discarded` counter. NotFound only when no
  /// candidate exists at all; otherwise the last candidate's error.
  using Validator = std::function<Status(const SnapshotReader&)>;
  static StatusOr<Restored> RestoreLatestValid(const std::string& path,
                                               const Validator& validate = {});
};

// ---- Component state codecs.
//
// Every blob that outlives the process (checkpoint sections, ledger payloads)
// has ONE field list, written as a Transfer overload over the direction:
//
//   template <class Io> void Transfer(Io& io, Foo& foo) { io(foo.a, foo.b); }
//
// StateWriter and StateReader are both callable with any fields, and the C++
// type of each field fixes its little-endian wire type:
//   - bool: a u32, 0 or 1;
//   - any other integer, or an enum: 8 bytes (two's complement);
//   - double: its raw IEEE-754 bits, so restore is bit-exact;
//   - std::string: a u32 length, then the bytes;
//   - std::vector, std::map, std::unordered_map, std::unordered_set: a u64
//     count, then the elements (key before value; hashed containers in
//     ascending key order, so equal state always encodes to equal bytes).
//     A vector is resized to the count and each element decodes over the
//     one already there, so a layout that covers only part of an element
//     keeps the rest;
//   - std::array: its elements, no count;
//   - std::optional<T>: a bool presence flag, then the value (T{} if absent);
//   - anything else: its own Transfer overload, found by argument-dependent
//     lookup (the writer passes it a const_cast object it only reads).
// Three adapters cover what the C++ type does not decide: AsU32, AsBools and
// Nested, below.
//
// The reader never fabricates state: it keeps the first error, bounds every
// count by the bytes that remain before allocating, rejects integers that do
// not fit their field, bools other than 0/1, enums past their declared last
// value, out-of-order map keys and absent optionals that carry a value.
// DecodeState decodes into a copy and commits only on success.

/// Each enum that crosses the wire declares its last value next to its
/// definition, found by argument-dependent lookup:
///   constexpr Color StateEnumMax(Color) { return Color::kBlue; }
/// The reader accepts only [0, StateEnumMax].
template <class E>
concept StateEnum = std::is_enum_v<E> && requires(E e) {
  { StateEnumMax(e) } -> std::same_as<E>;
};

/// A type with its own blob codec (Rng, and components whose
/// SerializeState/RestoreState are the public face of their Transfer).
template <class T>
concept SelfSerializing = requires(T& t, const std::string& blob) {
  { t.SerializeState() } -> std::same_as<std::string>;
  { t.RestoreState(blob) } -> std::same_as<Status>;
};

/// An enum on the wire as a u32 instead of 8 bytes.
template <class T>
struct U32Field {
  T& value;
};
template <class T>
U32Field<T> AsU32(T& value) {
  return {value};
}

/// A vector of integer flags on the wire as bools.
template <class T>
struct BoolsField {
  std::vector<T>& value;
};
template <class T>
BoolsField<T> AsBools(std::vector<T>& value) {
  return {value};
}

/// `value`'s own encoding, on the wire as one length-prefixed string.
template <class T>
struct NestedField {
  T& value;
};
template <class T>
NestedField<T> Nested(T& value) {
  return {value};
}

namespace state_codec {
template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
template <class T>
inline constexpr bool kIsArray = false;
template <class T, size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;
template <class K, class V, class H, class E, class A>
inline constexpr bool kIsMap<std::unordered_map<K, V, H, E, A>> = true;
template <class T>
inline constexpr bool kIsSet = false;
template <class K, class H, class E, class A>
inline constexpr bool kIsSet<std::unordered_set<K, H, E, A>> = true;
template <class T>
inline constexpr bool kIsHashed = false;
template <class K, class V, class H, class E, class A>
inline constexpr bool kIsHashed<std::unordered_map<K, V, H, E, A>> = true;
template <class K, class H, class E, class A>
inline constexpr bool kIsHashed<std::unordered_set<K, H, E, A>> = true;
}  // namespace state_codec

class StateWriter {
 public:
  /// Appends each field in order, in the wire type its C++ type selects.
  template <class... Fields>
  void operator()(const Fields&... fields) {
    (Put(fields), ...);
  }

  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutInt(int v) { PutI64(v); }
  void PutBool(bool v) { PutU32(v ? 1 : 0); }
  void PutDouble(double v);
  void PutString(const std::string& s);

  const std::string& str() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  template <class T>
  void Put(const T& v);
  template <class T>
  void Put(const U32Field<T>& f) {
    PutU32(static_cast<uint32_t>(f.value));
  }
  template <class T>
  void Put(const BoolsField<T>& f) {
    PutU64(f.value.size());
    for (const T& flag : f.value) PutBool(flag != 0);
  }
  template <class T>
  void Put(const NestedField<T>& f);

  std::string buf_;
};

class StateReader {
 public:
  explicit StateReader(std::string data) : data_(std::move(data)) {}

  /// Decodes each field in order. After the first error every later field is
  /// left untouched and status() reports that first error.
  template <class... Fields>
  void operator()(Fields&&... fields) {
    (Get(fields), ...);
  }

  const Status& status() const { return status_; }
  /// status(), or InvalidArgument when bytes remain past the last field.
  Status Finish() const;

  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  /// InvalidArgument for a value outside int's range.
  Status GetInt(int* v);
  /// InvalidArgument for anything but 0 or 1.
  Status GetBool(bool* v);
  Status GetDouble(double* v);
  Status GetString(std::string* s);

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <class T>
  void Get(T& v);
  template <class T>
  void Get(U32Field<T>& f);
  template <class T>
  void Get(BoolsField<T>& f);
  template <class T>
  void Get(NestedField<T>& f);
  /// Reads an element count, failing when it exceeds the bytes that remain
  /// (every element takes at least one byte), so a forged count can never
  /// size an allocation.
  bool GetCount(uint64_t* count);
  /// Records `status` unless an earlier error is already recorded; returns
  /// whether `status` is OK.
  bool Check(const Status& status);
  /// An integer read as 8 bytes and range-checked into T.
  template <class T>
  void GetInteger(T& v);
  /// Stores `raw` into `e` when it lies in [0, StateEnumMax].
  template <class E>
  void SetEnum(E& e, int64_t raw);

  std::string data_;
  size_t pos_ = 0;
  Status status_;
};

/// `value` encoded through its field list.
template <class T>
std::string EncodeState(const T& value) {
  StateWriter writer;
  writer(value);
  return writer.Release();
}

/// Decodes `blob` into `*value` through its field list. The decode runs on a
/// copy of `*value` that replaces it only when the whole blob decoded with no
/// trailing bytes, so a rejected blob leaves `*value` untouched.
template <class T>
Status DecodeState(const std::string& blob, T* value) {
  T decoded = *value;
  StateReader reader(blob);
  reader(decoded);
  KEA_RETURN_IF_ERROR(reader.Finish());
  *value = std::move(decoded);
  return Status::OK();
}

template <class T>
void StateWriter::Put(const T& v) {
  using namespace state_codec;
  if constexpr (std::is_same_v<T, bool>) {
    PutBool(v);
  } else if constexpr (std::is_enum_v<T>) {
    PutI64(static_cast<int64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    PutU64(static_cast<uint64_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    PutDouble(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    PutString(v);
  } else if constexpr (kIsOptional<T>) {
    PutBool(v.has_value());
    Put(v.value_or(typename T::value_type{}));
  } else if constexpr (kIsArray<T>) {
    for (const auto& element : v) Put(element);
  } else if constexpr (kIsVector<T>) {
    PutU64(v.size());
    for (const auto& element : v) Put(element);
  } else if constexpr (kIsMap<T> || kIsSet<T>) {
    std::vector<const typename T::value_type*> entries;
    entries.reserve(v.size());
    for (const auto& entry : v) entries.push_back(&entry);
    if constexpr (kIsHashed<T>) {
      std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
        if constexpr (kIsMap<T>) {
          return a->first < b->first;
        } else {
          return *a < *b;
        }
      });
    }
    PutU64(entries.size());
    for (const auto* entry : entries) {
      if constexpr (kIsMap<T>) {
        Put(entry->first);
        Put(entry->second);
      } else {
        Put(*entry);
      }
    }
  } else {
    Transfer(*this, const_cast<T&>(v));
  }
}

template <class T>
void StateWriter::Put(const NestedField<T>& f) {
  if constexpr (SelfSerializing<T>) {
    PutString(f.value.SerializeState());
  } else {
    PutString(EncodeState(f.value));
  }
}

template <class T>
void StateReader::GetInteger(T& v) {
  uint64_t bits = 0;
  if (!Check(GetU64(&bits))) return;
  bool fits;
  if constexpr (std::is_signed_v<T>) {
    const int64_t i = static_cast<int64_t>(bits);
    fits = i >= std::numeric_limits<T>::min() && i <= std::numeric_limits<T>::max();
  } else {
    fits = bits <= std::numeric_limits<T>::max();
  }
  if (!fits) {
    Check(Status::InvalidArgument("state integer out of range"));
    return;
  }
  v = static_cast<T>(bits);
}

template <class T>
void StateReader::Get(T& v) {
  using namespace state_codec;
  if (!status_.ok()) return;
  if constexpr (std::is_same_v<T, bool>) {
    Check(GetBool(&v));
  } else if constexpr (std::is_enum_v<T>) {
    int64_t i = 0;
    if (Check(GetI64(&i))) SetEnum(v, i);
  } else if constexpr (std::is_integral_v<T>) {
    GetInteger(v);
  } else if constexpr (std::is_same_v<T, double>) {
    Check(GetDouble(&v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    Check(GetString(&v));
  } else if constexpr (kIsOptional<T>) {
    bool present = false;
    typename T::value_type value{};
    Get(present);
    Get(value);
    if (!status_.ok()) return;
    if (!present && !(value == typename T::value_type{})) {
      Check(Status::InvalidArgument("absent optional carries a value"));
      return;
    }
    v = present ? T(std::move(value)) : T();
  } else if constexpr (kIsArray<T>) {
    for (auto& element : v) Get(element);
  } else if constexpr (kIsVector<T>) {
    uint64_t count = 0;
    if (!GetCount(&count)) return;
    v.resize(count);
    for (auto& element : v) Get(element);
  } else if constexpr (kIsMap<T> || kIsSet<T>) {
    uint64_t count = 0;
    if (!GetCount(&count)) return;
    v.clear();
    std::optional<typename T::key_type> last;
    for (uint64_t i = 0; i < count && status_.ok(); ++i) {
      typename T::key_type key{};
      Get(key);
      if (last && !(*last < key)) {
        Check(Status::InvalidArgument("state keys out of order"));
        return;
      }
      if constexpr (kIsMap<T>) {
        typename T::mapped_type mapped{};
        Get(mapped);
        v.emplace(key, std::move(mapped));
      } else {
        v.insert(key);
      }
      last = std::move(key);
    }
  } else {
    Transfer(*this, v);
  }
}

template <class E>
void StateReader::SetEnum(E& e, int64_t raw) {
  static_assert(StateEnum<E>, "declare StateEnumMax for this enum");
  if (raw < 0 || raw > static_cast<int64_t>(StateEnumMax(E{}))) {
    Check(Status::InvalidArgument("state enum value " + std::to_string(raw) +
                                  " out of range"));
    return;
  }
  e = static_cast<E>(raw);
}

template <class T>
void StateReader::Get(U32Field<T>& f) {
  uint32_t u = 0;
  if (status_.ok() && Check(GetU32(&u))) SetEnum(f.value, u);
}

template <class T>
void StateReader::Get(BoolsField<T>& f) {
  uint64_t count = 0;
  if (!status_.ok() || !GetCount(&count)) return;
  f.value.assign(count, T{});
  for (T& flag : f.value) {
    bool b = false;
    Get(b);
    flag = b ? 1 : 0;
  }
}

template <class T>
void StateReader::Get(NestedField<T>& f) {
  std::string blob;
  Get(blob);
  if (!status_.ok()) return;
  if constexpr (SelfSerializing<T>) {
    Check(f.value.RestoreState(blob));
  } else {
    Check(DecodeState(blob, &f.value));
  }
}

}  // namespace kea

#endif  // KEA_COMMON_SNAPSHOT_H_
