// Interned symbol table.
//
// All identifiers in a PARULEL program (template names, slot names, rule
// names, symbolic constants, variable names) are interned once and referred
// to by a dense 32-bit Symbol afterwards, so that matching and joining
// compare integers, never strings.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace parulel {

/// Dense handle for an interned string. Symbol 0 is always the empty string.
using Symbol = std::uint32_t;

/// Thread-safe append-only string interner.
///
/// Interning takes a lock; lookups of already-interned names (`name()`)
/// are lock-free reads of immutable storage, which is what the match
/// inner loops and the wire and journal encoders need. A symbol's entry
/// and text are written once, before intern() publishes the new size
/// with a release store; name() and size() read behind an acquire load.
class SymbolTable {
 public:
  SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Intern `text`, returning its stable Symbol. Idempotent.
  Symbol intern(std::string_view text);

  /// The text of a previously interned symbol. Takes no lock.
  /// The returned view is stable for the lifetime of the table.
  std::string_view name(Symbol sym) const;

  /// Number of interned symbols (including the empty string).
  std::size_t size() const;

 private:
  // Strings live in chunks that never move (so neither do their
  // characters): chunk k holds kFirstChunk << k of them, and 27 chunks
  // cover every 32-bit Symbol.
  static constexpr std::size_t kFirstChunk = 64;
  static constexpr std::size_t kChunks = 27;

  static std::size_t chunk_of(std::size_t sym);
  std::string& entry(std::size_t sym) const;

  std::atomic<std::size_t> size_{0};
  std::array<std::unique_ptr<std::string[]>, kChunks> chunks_;

  std::mutex mutex_;  // serializes intern(); guards index_
  std::unordered_map<std::string_view, Symbol> index_;
};

}  // namespace parulel
