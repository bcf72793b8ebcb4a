// Isolated ns/op of the hot public functions on the message path, each
// timed at the calling workload's sizes: the per-layer costs the ledger
// multiplies by the run's op counts.
#pragma once

#include <cstddef>

namespace gridbench {

/// One EventQueue push plus one pop, holding the queue at `depth` pending
/// events (steady state: every pop is followed by a push).
[[nodiscard]] double queue_push_pop_ns(std::size_t depth);

/// One SimNetwork send through the simulator to a receiving endpoint
/// (loss-free), among `members` attached members: a Transport hop,
/// including its delivery event's queue push and pop.
[[nodiscard]] double send_deliver_ns(std::size_t members);

/// One MemberBitset::merge of two bitsets over a universe of `universe`.
[[nodiscard]] double bitset_merge_ns(std::size_t universe);

/// One agg::write_partial plus read_partial round trip.
[[nodiscard]] double partial_codec_ns();

/// One net::encode_datagram plus decode_datagram of a `frame_bytes` frame.
[[nodiscard]] double datagram_codec_ns(std::size_t frame_bytes);

/// One service::envelope_wrap plus envelope_unwrap of a `frame_bytes`
/// inner frame.
[[nodiscard]] double envelope_wrap_unwrap_ns(std::size_t frame_bytes);

}  // namespace gridbench
