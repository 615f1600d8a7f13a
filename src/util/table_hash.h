#ifndef ULTRAVERSE_UTIL_TABLE_HASH_H_
#define ULTRAVERSE_UTIL_TABLE_HASH_H_

#include <string_view>

#include "util/sha256.h"

namespace ultraverse {

/// Incremental multiset hash over table rows (Hash-jumper, §4.5).
///
/// The hash of a table is the sum of the SHA-256 digests of its rows,
/// treated as 256-bit integers, modulo 2^256. Inserting a row adds its
/// digest, deleting subtracts it, and an update is delete+insert. The cost
/// per query is therefore linear in the rows it touches and constant in the
/// table size, and the hash is independent of physical row order.
///
/// A sql::Table keeps one only while its database has table hashing on,
/// which is where digests are logged (Ultraverse::Options::eager_hash_log,
/// the oracle's universes); with it off no row is ever hashed.
class TableHash {
 public:
  TableHash() = default;

  /// Adds the digest of an encoded row to the running hash (mod 2^256).
  void AddRow(std::string_view encoded_row) { Add(Sha256::Hash(encoded_row)); }

  /// Subtracts the digest of an encoded row (mod 2^256).
  void RemoveRow(std::string_view encoded_row) {
    Subtract(Sha256::Hash(encoded_row));
  }

  void Add(const Digest256& d);
  void Subtract(const Digest256& d);

  const Digest256& value() const { return value_; }
  void Reset() { value_ = Digest256{}; }

  friend bool operator==(const TableHash&, const TableHash&) = default;

 private:
  Digest256 value_;  // Empty table hashes to 0 by definition.
};

}  // namespace ultraverse

#endif  // ULTRAVERSE_UTIL_TABLE_HASH_H_
