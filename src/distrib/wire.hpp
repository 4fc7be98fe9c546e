// Cluster wire codec: canonical bytes for facts and ops on the
// inter-site channel.
//
// The multi-process cluster (site_runner.hpp / cluster_driver.hpp)
// ships working-memory deltas between OS processes, so the encoding
// must be canonical ACROSS processes: the same fact content always
// produces the same bytes no matter which process encoded it. That is
// achieved the same way the journal does it — templates and symbols
// travel as text and are re-interned on decode — reusing the journal's
// ByteWriter/ByteReader/value codec (service/journal.hpp) so there is
// exactly one byte layout for durable and shipped payloads.
//
// Payloads are carried inside parulel/2 protocol lines as lowercase hex
// tokens (`cc-batch ... fact=<hex>`), keeping the cluster family
// line-based like the rest of the protocol. Canonical bytes also give
// the driver its dedup key: two sites dumping the same replicated fact
// produce byte-identical tokens, so global_fingerprint() dedup needs no
// cross-process id agreement.
//
// Exactness caveat (shared with the journal fingerprint digests): hash
// equality across processes relies on symbol ids matching, which holds
// when every symbol a fact carries appears in the program text (both
// processes intern program symbols in parse order). All shipped
// workloads satisfy this.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "distrib/checkpoint.hpp"
#include "lang/program.hpp"
#include "support/hex.hpp"

namespace parulel {

/// One content-addressed cross-site operation, as shipped in a
/// `cc-batch` line. Retracts carry content, not ids — fact ids are
/// site-local.
struct ClusterOp {
  enum class Kind : std::uint8_t { Assert = 0, Retract = 1 };
  Kind kind = Kind::Assert;
  TemplateId tmpl = kInvalidTemplate;
  std::vector<Value> slots;
};

/// Canonical fact bytes: [template name][slot count][values], symbols
/// as text. Encode with the sender's tables; decode re-interns against
/// the receiver's (both parsed the same program).
std::string encode_fact_wire(TemplateId tmpl, std::span<const Value> slots,
                             const SymbolTable& symbols, const Schema& schema);

/// Throws RuntimeError when the template name is not in `schema` (the
/// peer runs a different program — fail loudly, not quietly).
std::pair<TemplateId, std::vector<Value>> decode_fact_wire(
    std::string_view bytes, SymbolTable& symbols, const Schema& schema);

/// A ClusterOp as raw bytes: kind byte + fact bytes. The site WAL
/// stores these; the wire ships them hex-wrapped.
std::string encode_op_wire(const ClusterOp& op, const SymbolTable& symbols,
                           const Schema& schema);
ClusterOp decode_op_wire(std::string_view bytes, SymbolTable& symbols,
                         const Schema& schema);

/// A ClusterOp as one hex token: to_hex(encode_op_wire()).
std::string encode_op_hex(const ClusterOp& op, const SymbolTable& symbols,
                          const Schema& schema);
ClusterOp decode_op_hex(std::string_view hex, SymbolTable& symbols,
                        const Schema& schema);

/// `cc-ack epoch=E floor=F[ sparse=S,S,...]`: one cumulative ack of a
/// (sender, epoch) stream, and its applied-seq set back (the epoch is
/// read with wire_field_u64).
std::string format_cc_ack(std::uint32_t epoch, const AppliedSeqs& seqs);
AppliedSeqs parse_cc_ack(std::string_view line);

// -- `key=value` field helpers for cluster protocol lines --

/// Integer field " key=N" in a protocol line; `missing` when absent.
std::uint64_t wire_field_u64(std::string_view line, std::string_view key,
                             std::uint64_t missing = 0);

/// String field " key=token" (token runs to the next space); empty when
/// absent.
std::string wire_field_str(std::string_view line, std::string_view key);

}  // namespace parulel
