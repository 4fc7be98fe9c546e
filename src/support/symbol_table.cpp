#include "support/symbol_table.hpp"

#include <bit>
#include <cassert>

namespace parulel {

SymbolTable::SymbolTable() {
  intern("");  // Symbol 0 == empty string.
}

std::size_t SymbolTable::chunk_of(std::size_t sym) {
  return static_cast<std::size_t>(std::bit_width(sym / kFirstChunk + 1) - 1);
}

std::string& SymbolTable::entry(std::size_t sym) const {
  const std::size_t k = chunk_of(sym);  // chunk k starts at 64 * (2^k - 1)
  return chunks_[k][sym - kFirstChunk * ((std::size_t{1} << k) - 1)];
}

Symbol SymbolTable::intern(std::string_view text) {
  std::scoped_lock lock(mutex_);
  if (auto it = index_.find(text); it != index_.end()) return it->second;
  const std::size_t sym = size_.load(std::memory_order_relaxed);
  const std::size_t k = chunk_of(sym);
  if (!chunks_[k]) {
    chunks_[k] = std::make_unique<std::string[]>(kFirstChunk << k);
  }
  std::string& stable = entry(sym);
  stable = text;
  index_.emplace(stable, static_cast<Symbol>(sym));
  size_.store(sym + 1, std::memory_order_release);
  return static_cast<Symbol>(sym);
}

std::string_view SymbolTable::name(Symbol sym) const {
  [[maybe_unused]] const std::size_t n = size_.load(std::memory_order_acquire);
  assert(sym < n);
  return entry(sym);
}

std::size_t SymbolTable::size() const {
  return size_.load(std::memory_order_acquire);
}

}  // namespace parulel
