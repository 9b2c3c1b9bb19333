//! Pluggable frontier/bitmap codecs for the collectives.
//!
//! Lv et al., "Compression and Sieve" (arXiv:1208.5542), cut BFS
//! communication volume by *compressing* the frontier payloads. This
//! module supplies that as a pluggable [`FrontierCodec`] trait with one
//! compressing implementation, [`DeltaVarint`]: delta-encode the sorted
//! values (or set-bit positions), emit LEB128 varint bytes.
//!
//! Honesty rules: a non-[`Codec::Raw`] collective really encodes into a
//! reusable [`CodecWorkspace`] buffer and really decodes into the
//! destination — a codec bug breaks the BFS parents, not just a byte
//! counter — and the *encoded* sizes are what the flow/network model
//! prices. Every encoder starts with a one-byte tag and falls back to a
//! raw passthrough when encoding would not shrink the payload, so a
//! compressed message never moves more than `raw + 1` bytes.

use serde::{Deserialize, Serialize};

use nbfs_simnet::NetworkModel;
use nbfs_topology::ProcessMap;
use nbfs_trace::{CollectiveStats, CommCost};
use nbfs_util::varint::{push_varint, read_varint, unzigzag, zigzag};

use crate::allgather::{allgather_sizes, concat_into, AllgatherAlgorithm};
use crate::fault::FaultEdge;

/// Which codec a collective payload goes through. The enum is the
/// selector carried by scenarios / CLI flags; [`Codec::implementation`]
/// resolves it to the [`FrontierCodec`] doing the byte work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// No encoding: today's byte-for-byte collective path. Default.
    #[default]
    Raw,
    /// Delta + LEB128 varint over sorted sparse payloads.
    DeltaVarint,
}

impl Codec {
    /// Every codec, for matrix-style harnesses.
    pub const ALL: [Codec; 2] = [Codec::Raw, Codec::DeltaVarint];

    /// Short label, also the CLI spelling (`--codec`).
    pub fn label(self) -> &'static str {
        self.implementation().label()
    }

    /// Parses the CLI spelling. `None` for unknown names.
    pub fn parse(name: &str) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.label() == name)
    }

    /// Whether this codec leaves payloads untouched.
    pub fn is_raw(self) -> bool {
        self == Codec::Raw
    }

    /// The [`FrontierCodec`] implementation behind this selector.
    pub fn implementation(self) -> &'static dyn FrontierCodec {
        match self {
            Codec::Raw => &Raw,
            Codec::DeltaVarint => &DeltaVarint,
        }
    }
}

/// Leading tag byte: the payload that follows is the raw little-endian
/// bytes of the input (the encoder's no-win fallback, and [`Raw`]'s only
/// mode).
const TAG_RAW: u8 = 0;
/// Leading tag byte: the payload that follows is codec-encoded.
const TAG_ENCODED: u8 = 1;

/// A reversible encoding for the three payload shapes the collectives
/// move: dense bitmap word segments, sorted `u32` vertex lists, and
/// `(u32, u32)` record streams. Implementations must be exact inverses
/// (`decode(encode(x)) == x`) — the engine routes real traffic through
/// them — and should fall back to the raw passthrough (a leading `0` tag
/// byte, then the input's little-endian bytes) whenever encoding would not
/// shrink the payload, capping every message at `raw + 1` bytes.
pub trait FrontierCodec {
    /// Short label for tables and CLI flags.
    fn label(&self) -> &'static str;

    /// Encodes a bitmap word segment into `buf` (cleared first).
    fn encode_words(&self, words: &[u64], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_RAW);
        write_raw_words(words, buf);
    }

    /// Decodes an `encode_words` payload into `dst` (the segment's exact
    /// word count; fully overwritten).
    fn decode_words(&self, buf: &[u8], dst: &mut [u64]) {
        read_raw_words(strip_raw_tag(buf), dst);
    }

    /// Encodes a sorted (ascending) `u32` list into `buf` (cleared first).
    fn encode_sorted_u32(&self, values: &[u32], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_RAW);
        write_raw_u32s(values, buf);
    }

    /// Decodes an `encode_sorted_u32` payload, appending to `out`.
    fn decode_sorted_u32(&self, buf: &[u8], out: &mut Vec<u32>) {
        read_raw_u32s(strip_raw_tag(buf), out);
    }

    /// Encodes a `(u32, u32)` record stream into `buf` (cleared first).
    fn encode_pairs(&self, records: &[(u32, u32)], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_RAW);
        write_raw_pairs(records, buf);
    }

    /// Decodes an `encode_pairs` payload, appending to `out`.
    fn decode_pairs(&self, buf: &[u8], out: &mut Vec<(u32, u32)>) {
        read_raw_pairs(strip_raw_tag(buf), out);
    }
}

/// Identity codec: tagged little-endian passthrough for every payload
/// shape. The trait's default methods *are* this codec.
#[derive(Clone, Copy, Debug, Default)]
pub struct Raw;

impl FrontierCodec for Raw {
    fn label(&self) -> &'static str {
        "raw"
    }
}

/// Delta + LEB128 varint codec for sorted sparse payloads. Word segments
/// are encoded as delta-varints over their set-bit positions; record
/// pairs as zigzag deltas per component.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaVarint;

impl FrontierCodec for DeltaVarint {
    fn label(&self) -> &'static str {
        "delta-varint"
    }

    fn encode_words(&self, words: &[u64], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_ENCODED);
        // Delta-varint the set-bit positions of the segment.
        let mut prev = 0u64;
        for (wi, &w) in words.iter().enumerate() {
            let mut pending = w;
            while pending != 0 {
                let pos = (wi as u64) * 64 + u64::from(pending.trailing_zeros());
                pending &= pending - 1;
                push_varint(buf, pos - prev);
                prev = pos;
            }
        }
        raw_fallback(buf, words.len() * 8, |b| write_raw_words(words, b));
    }

    fn decode_words(&self, buf: &[u8], dst: &mut [u64]) {
        assert!(!buf.is_empty(), "empty codec payload");
        let payload = &buf[1..];
        if buf[0] == TAG_RAW {
            read_raw_words(payload, dst);
            return;
        }
        dst.fill(0);
        let mut at = 0usize;
        let mut pos = 0u64;
        while at < payload.len() {
            let (delta, next) = read_varint(payload, at);
            at = next;
            pos += delta;
            let slot = (pos / 64) as usize;
            assert!(slot < dst.len(), "bit position overflows segment");
            dst[slot] |= 1u64 << (pos % 64);
        }
    }

    fn encode_sorted_u32(&self, values: &[u32], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_ENCODED);
        let mut prev = 0u64;
        for &value in values {
            let cur = u64::from(value);
            debug_assert!(cur >= prev || prev == 0, "list must be sorted");
            push_varint(buf, cur.wrapping_sub(prev));
            prev = cur;
        }
        raw_fallback(buf, values.len() * 4, |b| write_raw_u32s(values, b));
    }

    fn decode_sorted_u32(&self, buf: &[u8], out: &mut Vec<u32>) {
        assert!(!buf.is_empty(), "empty codec payload");
        let payload = &buf[1..];
        if buf[0] == TAG_RAW {
            read_raw_u32s(payload, out);
            return;
        }
        let mut at = 0usize;
        let mut prev = 0u64;
        while at < payload.len() {
            let (delta, next) = read_varint(payload, at);
            at = next;
            let cur = prev.wrapping_add(delta);
            assert!(cur <= u64::from(u32::MAX), "decoded value overflows u32");
            #[expect(clippy::cast_possible_truncation, reason = "asserted to fit in u32")]
            out.push(cur as u32);
            prev = cur;
        }
    }

    fn encode_pairs(&self, records: &[(u32, u32)], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_ENCODED);
        // The scatter's records are only loosely ordered, so both
        // components are zigzag-delta encoded against their own
        // predecessor.
        let mut prev_a = 0i64;
        let mut prev_b = 0i64;
        for &(a_val, b_val) in records {
            let cur_a = i64::from(a_val);
            let cur_b = i64::from(b_val);
            push_varint(buf, zigzag(cur_a - prev_a));
            push_varint(buf, zigzag(cur_b - prev_b));
            prev_a = cur_a;
            prev_b = cur_b;
        }
        raw_fallback(buf, records.len() * 8, |b| write_raw_pairs(records, b));
    }

    fn decode_pairs(&self, buf: &[u8], out: &mut Vec<(u32, u32)>) {
        assert!(!buf.is_empty(), "empty codec payload");
        let payload = &buf[1..];
        if buf[0] == TAG_RAW {
            read_raw_pairs(payload, out);
            return;
        }
        let mut at = 0usize;
        let mut prev_a = 0i64;
        let mut prev_b = 0i64;
        while at < payload.len() {
            let (za, next) = read_varint(payload, at);
            let (zb, after) = read_varint(payload, next);
            at = after;
            let cur_a = prev_a + unzigzag(za);
            let cur_b = prev_b + unzigzag(zb);
            let range = 0..=i64::from(u32::MAX);
            assert!(
                range.contains(&cur_a) && range.contains(&cur_b),
                "decoded pair overflows u32"
            );
            #[expect(clippy::cast_possible_truncation, reason = "asserted to fit in u32")]
            out.push((cur_a as u32, cur_b as u32));
            prev_a = cur_a;
            prev_b = cur_b;
        }
    }
}

/// Replaces `buf` (tagged encoding) with a raw passthrough when the
/// encoded payload did not undercut the raw byte size.
fn raw_fallback<F: FnOnce(&mut Vec<u8>)>(buf: &mut Vec<u8>, raw_len: usize, write_raw: F) {
    if buf.len() > raw_len + 1 {
        buf.clear();
        buf.push(TAG_RAW);
        write_raw(buf);
    }
    debug_assert!(buf.len() <= raw_len + 1, "fallback must cap the size");
}

/// Asserts the payload carries the raw tag and returns the bytes after
/// it. [`Raw`] can only meet raw-tagged payloads: its encoders never emit
/// [`TAG_ENCODED`], and codecs are never mixed across an exchange.
fn strip_raw_tag(buf: &[u8]) -> &[u8] {
    assert!(!buf.is_empty(), "empty codec payload");
    assert_eq!(buf[0], TAG_RAW, "raw codec met an encoded payload");
    &buf[1..]
}

fn write_raw_words(words: &[u64], buf: &mut Vec<u8>) {
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

fn read_raw_words(payload: &[u8], dst: &mut [u64]) {
    assert_eq!(payload.len(), dst.len() * 8, "raw payload size mismatch");
    for (word, chunk) in dst.iter_mut().zip(payload.chunks_exact(8)) {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        *word = u64::from_le_bytes(raw);
    }
}

fn write_raw_u32s(values: &[u32], buf: &mut Vec<u8>) {
    for &value in values {
        buf.extend_from_slice(&value.to_le_bytes());
    }
}

fn read_raw_u32s(payload: &[u8], out: &mut Vec<u32>) {
    assert_eq!(payload.len() % 4, 0, "raw u32 payload size mismatch");
    for chunk in payload.chunks_exact(4) {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(chunk);
        out.push(u32::from_le_bytes(raw));
    }
}

fn write_raw_pairs(records: &[(u32, u32)], buf: &mut Vec<u8>) {
    for &(a_val, b_val) in records {
        buf.extend_from_slice(&a_val.to_le_bytes());
        buf.extend_from_slice(&b_val.to_le_bytes());
    }
}

fn read_raw_pairs(payload: &[u8], out: &mut Vec<(u32, u32)>) {
    assert_eq!(payload.len() % 8, 0, "raw pair payload size mismatch");
    for chunk in payload.chunks_exact(8) {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&chunk[..4]);
        let a_val = u32::from_le_bytes(raw);
        raw.copy_from_slice(&chunk[4..]);
        out.push((a_val, u32::from_le_bytes(raw)));
    }
}

/// Reusable per-rank staging for the codec-aware collectives: encoded
/// payload buffers plus the raw/encoded size vectors the walk consumes.
/// Buffers grow to the high-water mark of the run and stay there (the
/// same treatment the allgather/alltoallv staging gets).
#[derive(Debug, Default)]
pub struct CodecWorkspace {
    bufs: Vec<Vec<u8>>,
    raw_bytes: Vec<u64>,
    enc_bytes: Vec<u64>,
}

impl CodecWorkspace {
    /// Resets the size vectors for `np` ranks and makes sure `np` encode
    /// buffers exist (their allocations are kept).
    fn reset(&mut self, np: usize) {
        self.bufs.resize_with(np, Vec::new);
        self.raw_bytes.clear();
        self.raw_bytes.resize(np, 0);
        self.enc_bytes.clear();
        self.enc_bytes.resize(np, 0);
    }
}

/// Codec-aware word allgather: concatenates the per-rank word segments
/// into `dst` and returns the cost and volume tally of moving the
/// *encoded* segments with `algo` (see [`allgather_sizes`]; `edges`
/// receives the transfer schedule).
///
/// Under [`Codec::Raw`] the segments are copied as they are and priced
/// at 8 bytes per word. Otherwise every segment is really encoded into
/// the workspace and really decoded into its `dst` slice, so a codec
/// defect corrupts the BFS rather than silently discounting bytes.
#[expect(
    clippy::too_many_arguments,
    reason = "the payload, the machine, the algorithm, the codec and the edge sink are independent"
)]
pub fn allgather_words_codec_into(
    dst: &mut [u64],
    parts: &[&[u64]],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
    codec: Codec,
    ws: &mut CodecWorkspace,
    edges: Option<&mut Vec<FaultEdge>>,
) -> (CommCost, CollectiveStats) {
    assert_eq!(parts.len(), pmap.world_size(), "need one segment per rank");
    ws.reset(parts.len());
    for (r, part) in parts.iter().enumerate() {
        ws.raw_bytes[r] = part.len() as u64 * 8;
    }
    if codec.is_raw() {
        concat_into(dst, parts, pmap);
        return allgather_sizes(&ws.raw_bytes, &ws.raw_bytes, pmap, net, algo, edges);
    }
    let total: usize = parts.iter().map(|p| p.len()).sum();
    assert_eq!(dst.len(), total, "dst must hold the concatenated segments");
    let imp = codec.implementation();
    let mut at = 0usize;
    for (r, part) in parts.iter().enumerate() {
        imp.encode_words(part, &mut ws.bufs[r]);
        ws.enc_bytes[r] = ws.bufs[r].len() as u64;
        imp.decode_words(&ws.bufs[r], &mut dst[at..at + part.len()]);
        at += part.len();
    }
    allgather_sizes(&ws.enc_bytes, &ws.raw_bytes, pmap, net, algo, edges)
}

/// Codec-aware allgatherv (MPI `allgatherv`) of sorted `u32` frontier
/// lists: replaces `items` with the rank-order concatenation of the lists
/// (its allocation is kept) and returns the cost and volume tally of
/// moving them with `algo` (`edges` receives the transfer schedule). The
/// top-down phase exchanges newly discovered frontier *vertex lists* this
/// way — sized by the frontier, not by the whole bitmap, which is why the
/// paper's top-down communication stays cheap while its bottom-up
/// allgathers dominate (Fig. 11).
///
/// Under [`Codec::Raw`] lists are priced at 4 bytes per vertex. Otherwise
/// every list is really encoded into the workspace and decoded into the
/// result, and the walk prices the encoded sizes.
#[expect(
    clippy::too_many_arguments,
    reason = "the destination, the payload, the machine, the algorithm, the codec and the edge sink are independent"
)]
pub fn allgatherv_u32_codec_into(
    items: &mut Vec<u32>,
    lists: &[impl AsRef<[u32]>],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
    codec: Codec,
    ws: &mut CodecWorkspace,
    edges: Option<&mut Vec<FaultEdge>>,
) -> (CommCost, CollectiveStats) {
    assert_eq!(lists.len(), pmap.world_size(), "one list per rank");
    ws.reset(lists.len());
    let total: usize = lists.iter().map(|l| l.as_ref().len()).sum();
    let imp = codec.implementation();
    // hot-path
    // Every sparse top-down level: the lists land in the caller's
    // recycled vector and the encodings in the workspace's buffers.
    items.clear();
    items.reserve(total);
    for (r, list) in lists.iter().enumerate() {
        let list = list.as_ref();
        ws.raw_bytes[r] = list.len() as u64 * 4;
        if codec.is_raw() {
            items.extend_from_slice(list);
            ws.enc_bytes[r] = ws.raw_bytes[r];
        } else {
            imp.encode_sorted_u32(list, &mut ws.bufs[r]);
            ws.enc_bytes[r] = ws.bufs[r].len() as u64;
            imp.decode_sorted_u32(&ws.bufs[r], items);
        }
    }
    // end-hot-path
    allgather_sizes(&ws.enc_bytes, &ws.raw_bytes, pmap, net, algo, edges)
}

/// Encoded byte size of one word payload under `codec`, using `scratch`
/// as the staging buffer. For cost-only payloads (the `in_queue_summary`
/// allgather materializes no concatenation, but its wire size under a
/// codec is the encoded size of the summary words).
pub fn encoded_words_size(codec: Codec, words: &[u64], scratch: &mut Vec<u8>) -> u64 {
    if codec.is_raw() {
        return words.len() as u64 * 8;
    }
    codec.implementation().encode_words(words, scratch);
    scratch.len() as u64
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for codec in Codec::ALL {
            assert_eq!(Codec::parse(codec.label()), Some(codec));
        }
        assert_eq!(Codec::parse("zstd"), None);
        assert_eq!(Codec::default(), Codec::Raw);
    }

    #[test]
    fn words_round_trip_every_codec() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![0b1010, 0, 0, u64::MAX, 7, 0],
            vec![0; 64],
            vec![u64::MAX; 64],
            (0..33)
                .map(|i| if i % 3 == 0 { 0 } else { 1 << (i % 64) })
                .collect(),
        ];
        let mut buf = Vec::new();
        for words in &cases {
            for codec in Codec::ALL {
                let imp = codec.implementation();
                imp.encode_words(words, &mut buf);
                assert!(buf.len() <= words.len() * 8 + 1, "{codec:?} exceeded cap");
                let mut back = vec![0xdead_beef_u64; words.len()];
                imp.decode_words(&buf, &mut back);
                assert_eq!(&back, words, "{codec:?}");
            }
        }
    }

    #[test]
    fn sparse_words_shrink() {
        // One set bit per 8 words: 4096 words = 32 KiB raw.
        let words: Vec<u64> = (0..4096).map(|i| u64::from(i % 8 == 0)).collect();
        let mut buf = Vec::new();
        DeltaVarint.encode_words(&words, &mut buf);
        assert!(
            buf.len() * 2 < words.len() * 8,
            "delta must shrink sparse words"
        );
    }

    #[test]
    fn sorted_lists_round_trip() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![1, 2, 3, 100, 1_000_000, u32::MAX],
            (0..500).map(|i| i * 7).collect(),
        ];
        let mut buf = Vec::new();
        for list in &cases {
            for codec in Codec::ALL {
                let imp = codec.implementation();
                imp.encode_sorted_u32(list, &mut buf);
                assert!(buf.len() <= list.len() * 4 + 1, "{codec:?} exceeded cap");
                let mut back = Vec::new();
                imp.decode_sorted_u32(&buf, &mut back);
                assert_eq!(&back, list, "{codec:?}");
            }
        }
    }

    #[test]
    fn dense_sorted_lists_shrink() {
        let list: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let mut buf = Vec::new();
        DeltaVarint.encode_sorted_u32(&list, &mut buf);
        assert!(
            buf.len() * 3 < list.len() * 4,
            "small deltas must shrink 3x+"
        );
    }

    #[test]
    fn pairs_round_trip() {
        let cases: Vec<Vec<(u32, u32)>> = vec![
            vec![],
            vec![(0, 0)],
            vec![(u32::MAX, 0), (0, u32::MAX)],
            (0..300).map(|i| (i * 5, i)).collect(),
        ];
        let mut buf = Vec::new();
        for records in &cases {
            for codec in Codec::ALL {
                let imp = codec.implementation();
                imp.encode_pairs(records, &mut buf);
                assert!(buf.len() <= records.len() * 8 + 1, "{codec:?} exceeded cap");
                let mut back = Vec::new();
                imp.decode_pairs(&buf, &mut back);
                assert_eq!(&back, records, "{codec:?}");
            }
        }
    }

    #[test]
    fn encoded_size_helper_matches_encoder() {
        let words: Vec<u64> = (0..128).map(|i| if i % 4 == 0 { 3 } else { 0 }).collect();
        let mut scratch = Vec::new();
        // Raw skips the encoder entirely: its size is the untagged byte
        // count, preserving today's cost accounting bit-for-bit.
        assert_eq!(
            encoded_words_size(Codec::Raw, &words, &mut scratch),
            words.len() as u64 * 8
        );
        let size = encoded_words_size(Codec::DeltaVarint, &words, &mut scratch);
        let mut buf = Vec::new();
        DeltaVarint.encode_words(&words, &mut buf);
        assert_eq!(size, buf.len() as u64);
    }
}
