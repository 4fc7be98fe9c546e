#include "distrib/wire.hpp"

#include <charconv>
#include <cstdlib>

#include "service/journal.hpp"
#include "support/error.hpp"

namespace parulel {

std::string encode_fact_wire(TemplateId tmpl, std::span<const Value> slots,
                             const SymbolTable& symbols,
                             const Schema& schema) {
  service::ByteWriter w;
  w.str(symbols.name(schema.at(tmpl).name));
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const Value& v : slots) service::encode_value(w, v, symbols);
  return w.take();
}

std::pair<TemplateId, std::vector<Value>> decode_fact_wire(
    std::string_view bytes, SymbolTable& symbols, const Schema& schema) {
  try {
    service::ByteReader r(bytes);
    const std::string name = r.str();
    const auto tmpl = schema.find(symbols.intern(name));
    if (!tmpl) {
      throw RuntimeError("cluster wire fact names unknown template '" + name +
                         "' (peer runs a different program?)");
    }
    std::vector<Value> slots(r.u32());
    for (Value& v : slots) v = service::decode_value(r, symbols);
    r.finish();
    return {*tmpl, std::move(slots)};
  } catch (const service::JournalError& e) {
    throw RuntimeError(std::string("malformed cluster wire fact: ") +
                       e.what());
  }
}

std::string encode_op_wire(const ClusterOp& op, const SymbolTable& symbols,
                           const Schema& schema) {
  std::string bytes;
  bytes.push_back(static_cast<char>(op.kind));
  bytes += encode_fact_wire(op.tmpl, op.slots, symbols, schema);
  return bytes;
}

ClusterOp decode_op_wire(std::string_view bytes, SymbolTable& symbols,
                         const Schema& schema) {
  if (bytes.empty()) throw RuntimeError("empty cluster wire op");
  const auto kind = static_cast<std::uint8_t>(bytes[0]);
  if (kind > static_cast<std::uint8_t>(ClusterOp::Kind::Retract)) {
    throw RuntimeError("cluster wire op has unknown kind " +
                       std::to_string(kind));
  }
  ClusterOp op;
  op.kind = static_cast<ClusterOp::Kind>(kind);
  auto [tmpl, slots] = decode_fact_wire(bytes.substr(1), symbols, schema);
  op.tmpl = tmpl;
  op.slots = std::move(slots);
  return op;
}

std::string encode_op_hex(const ClusterOp& op, const SymbolTable& symbols,
                          const Schema& schema) {
  return to_hex(encode_op_wire(op, symbols, schema));
}

ClusterOp decode_op_hex(std::string_view hex, SymbolTable& symbols,
                        const Schema& schema) {
  return decode_op_wire(from_hex(hex), symbols, schema);
}

std::uint64_t wire_field_u64(std::string_view line, std::string_view key,
                             std::uint64_t missing) {
  const std::string want = " " + std::string(key) + "=";
  const std::size_t at = line.find(want);
  if (at == std::string_view::npos) return missing;
  const char* first = line.data() + at + want.size();
  const char* last = line.data() + line.size();
  std::uint64_t v = missing;
  std::from_chars(first, last, v);
  return v;
}

std::string format_cc_ack(std::uint32_t epoch, const AppliedSeqs& seqs) {
  std::string line = "cc-ack epoch=" + std::to_string(epoch) +
                     " floor=" + std::to_string(seqs.floor);
  const char* sep = " sparse=";
  for (const std::uint64_t seq : seqs.sparse) {
    line += sep;
    line += std::to_string(seq);
    sep = ",";
  }
  return line;
}

AppliedSeqs parse_cc_ack(std::string_view line) {
  AppliedSeqs acked;
  acked.floor = wire_field_u64(line, "floor");
  const std::string sparse = wire_field_str(line, "sparse");
  std::size_t at = 0;
  while (at < sparse.size()) {
    const std::size_t comma = sparse.find(',', at);
    acked.sparse.insert(std::strtoull(sparse.c_str() + at, nullptr, 10));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return acked;
}

std::string wire_field_str(std::string_view line, std::string_view key) {
  const std::string want = " " + std::string(key) + "=";
  const std::size_t at = line.find(want);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + want.size();
  const std::size_t end = line.find(' ', start);
  return std::string(line.substr(
      start, end == std::string_view::npos ? line.size() - start
                                           : end - start));
}

}  // namespace parulel
