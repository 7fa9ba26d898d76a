//! Block-compressed postings: fixed-size blocks of delta-encoded,
//! bit-packed doc ids with per-block skip metadata.
//!
//! Every CSR posting list is cut into blocks of up to [`BLOCK_SIZE`]
//! postings. A block stores its doc ids as deltas from the previous doc
//! (minus one — postings are strictly ascending, so every delta is
//! `≥ 1` and the encoded gap is `≥ 0`), bit-packed at the smallest fixed
//! width that fits the block's largest gap. Frequencies travel the same
//! way (as `tf − 1` / `ef − 1`, both `≥ 1` by construction); entity
//! blocks append their Eq. 2 weights as raw IEEE-754 bit patterns so the
//! decode is bit-exact. Each region starts byte-aligned, and every value
//! in a block shares one width — a branch-free, SIMD-friendly fixed-width
//! decode loop.
//!
//! Alongside the payload each block records the metadata the Block-Max
//! MaxScore pruner needs *without* decompressing anything: the block's
//! last doc id (to test whether an already-touched document can appear in
//! the block) and the block's maximum per-posting weight (`max tf` for
//! terms, `max ef·we` for entities — the same quantities the per-list
//! bounds are built from, so the per-block bound is exact, never an
//! estimate).
//!
//! Packing is a pure function of the CSR arrays: equal indexes always
//! pack to identical bytes, which keeps snapshot re-saves byte-identical.
//! [`unpack_terms`] / [`unpack_entities`] are the untrusted-input path
//! (the cold open of a snapshot shard): they re-validate every structural invariant —
//! block shapes, widths, payload spans, doc monotonicity, and that the
//! recorded block maxima match the decoded postings bit for bit — so
//! forged block metadata is rejected instead of silently unsoundly
//! pruning.

use crate::backing::Seg;
use crate::raw::{EntityParts, TermParts};

/// Postings per block. 128 keeps a whole decoded block (docs + freqs +
/// weights) inside two cache lines per array while leaving enough
/// postings per block for skipping to pay.
pub const BLOCK_SIZE: usize = 128;

/// One posting family (terms or entities) in block-compressed form.
///
/// Blocks are stored structure-of-arrays: `block_offsets` is a CSR over
/// blocks (list `i` owns blocks `block_offsets[i]..block_offsets[i+1]`),
/// and the per-block metadata arrays are indexed by block id. The
/// variable-width payloads live concatenated in `data`, addressed through
/// `data_offsets`.
/// Every array is a [`Seg`], so a packed side can either own its storage
/// (builder / streamed decode) or borrow it from an mmap'd `RCSHRD02`
/// shard — the decode loops below read through `Deref<[T]>` either way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedPostings {
    /// CSR over blocks: `n_lists + 1` entries, ascending.
    pub block_offsets: Seg<u32>,
    /// Last doc id of each block — the skip test reads this, not the data.
    pub last_doc: Seg<u32>,
    /// Postings in each block (`1..=BLOCK_SIZE`).
    pub counts: Seg<u32>,
    /// Bit width of the block's doc-gap values (`0..=32`).
    pub doc_bits: Seg<u8>,
    /// Bit width of the block's frequency values (`0..=32`).
    pub aux_bits: Seg<u8>,
    /// Block-max weight: `max tf` (terms) or `max ef·we` (entities).
    pub max_score: Seg<f64>,
    /// Payload extents: `n_blocks + 1` entries into `data`.
    pub data_offsets: Seg<u64>,
    /// Concatenated block payloads.
    pub data: Seg<u8>,
}

/// Bits needed to represent `v` (0 for 0).
#[inline]
fn bits_for(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Appends `values` at a fixed `width` bits each, little-endian bit
/// order, padding the final byte with zeros.
fn pack_bits(values: &[u32], width: u8, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let width = width as u32;
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &v in values {
        acc |= (v as u64) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Decodes `out.len()` fixed-width values from `bytes`, returning the
/// bytes consumed (`⌈len·width/8⌉`). The caller guarantees `bytes` holds
/// at least that many bytes.
#[inline]
fn unpack_bits(bytes: &[u8], width: u8, out: &mut [u32]) -> usize {
    if width == 0 {
        out.fill(0);
        return 0;
    }
    let width = width as u32;
    let mask: u64 = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    let mut pos = 0usize;
    for v in out.iter_mut() {
        while nbits < width {
            acc |= (bytes[pos] as u64) << nbits;
            pos += 1;
            nbits += 8;
        }
        *v = (acc & mask) as u32;
        acc >>= width;
        nbits -= width;
    }
    pos
}

/// The payload bytes a block occupies: gaps, then frequencies, then (for
/// entity blocks) `count` raw `f64` weights. Every region byte-aligned.
#[inline]
fn block_payload_len(count: usize, doc_bits: u8, aux_bits: u8, with_weights: bool) -> usize {
    let docs = (count * doc_bits as usize).div_ceil(8);
    let aux = (count * aux_bits as usize).div_ceil(8);
    docs + aux + if with_weights { count * 8 } else { 0 }
}

// ----- packing ----------------------------------------------------------

struct Packer {
    p: PackedPostings,
}

impl Packer {
    fn new() -> Self {
        Packer {
            p: PackedPostings {
                block_offsets: vec![0].into(),
                data_offsets: vec![0].into(),
                ..PackedPostings::default()
            },
        }
    }

    /// Encodes one block's doc gaps (relative to `prev`, `-1` at a list
    /// start) and returns the running `prev` for the next block.
    fn push_docs(&mut self, docs: &[u32], mut prev: i64) -> (i64, u8) {
        let mut gaps = [0u32; BLOCK_SIZE];
        for (g, &d) in gaps.iter_mut().zip(docs) {
            debug_assert!(i64::from(d) > prev, "postings must be strictly ascending");
            *g = (i64::from(d) - prev - 1) as u32;
            prev = i64::from(d);
        }
        let n = docs.len();
        let width = bits_for(gaps[..n].iter().copied().max().unwrap_or(0));
        self.p.last_doc.to_mut().push(*docs.last().expect("blocks are never empty"));
        self.p.counts.to_mut().push(n as u32);
        self.p.doc_bits.to_mut().push(width);
        pack_bits(&gaps[..n], width, self.p.data.to_mut());
        (prev, width)
    }

    /// Encodes one block's frequencies as `freq − 1`.
    fn push_freqs(&mut self, freqs: &[u32]) {
        let mut aux = [0u32; BLOCK_SIZE];
        for (a, &f) in aux.iter_mut().zip(freqs) {
            debug_assert!(f > 0, "frequencies are always positive");
            *a = f - 1;
        }
        let n = freqs.len();
        let width = bits_for(aux[..n].iter().copied().max().unwrap_or(0));
        self.p.aux_bits.to_mut().push(width);
        pack_bits(&aux[..n], width, self.p.data.to_mut());
    }

    fn end_block(&mut self) {
        let len = self.p.data.len() as u64;
        self.p.data_offsets.to_mut().push(len);
    }

    fn end_list(&mut self) {
        let blocks = self.p.counts.len() as u32;
        self.p.block_offsets.to_mut().push(blocks);
    }
}

/// Packs term posting lists, given as `(docs, tfs)` slices in dense-id
/// order. Deterministic: equal inputs pack to identical bytes.
pub fn pack_term_lists<'a>(
    lists: impl Iterator<Item = (&'a [u32], &'a [u32])>,
) -> PackedPostings {
    let mut pk = Packer::new();
    for (docs, tfs) in lists {
        let mut prev = -1i64;
        for (db, tb) in docs.chunks(BLOCK_SIZE).zip(tfs.chunks(BLOCK_SIZE)) {
            (prev, _) = pk.push_docs(db, prev);
            pk.push_freqs(tb);
            pk.p.max_score.to_mut().push(tb.iter().copied().max().unwrap_or(0) as f64);
            pk.end_block();
        }
        pk.end_list();
    }
    pk.p
}

/// Packs entity posting lists, given as `(docs, efs, we)` slices in dense
/// slot order. Weights travel as raw bit patterns, so the round trip is
/// bit-exact.
pub fn pack_entity_lists<'a>(
    lists: impl Iterator<Item = (&'a [u32], &'a [u32], &'a [f64])>,
) -> PackedPostings {
    let mut pk = Packer::new();
    for (docs, efs, wes) in lists {
        let mut prev = -1i64;
        for ((db, eb), wb) in docs
            .chunks(BLOCK_SIZE)
            .zip(efs.chunks(BLOCK_SIZE))
            .zip(wes.chunks(BLOCK_SIZE))
        {
            (prev, _) = pk.push_docs(db, prev);
            pk.push_freqs(eb);
            pk.p.max_score.to_mut().push(entity_block_max(eb, wb));
            for &w in wb {
                pk.p.data.to_mut().extend_from_slice(&w.to_bits().to_le_bytes());
            }
            pk.end_block();
        }
        pk.end_list();
    }
    pk.p
}

/// Block-max entity contribution, folded left-to-right from the first
/// posting — the same selection `unpack_entities` recomputes, so the
/// stored and re-derived maxima are bit-identical.
#[inline]
fn entity_block_max(efs: &[u32], wes: &[f64]) -> f64 {
    let mut m = efs[0] as f64 * wes[0];
    for (&ef, &we) in efs.iter().zip(wes).skip(1) {
        m = m.max(ef as f64 * we);
    }
    m
}

/// [`pack_term_lists`] over a wire-facing [`TermParts`].
pub fn pack_term_parts(t: &TermParts) -> PackedPostings {
    pack_term_lists(t.offsets.windows(2).map(|w| {
        let (a, b) = (w[0] as usize, w[1] as usize);
        (&t.docs[a..b], &t.tfs[a..b])
    }))
}

/// [`pack_entity_lists`] over a wire-facing [`EntityParts`].
pub fn pack_entity_parts(e: &EntityParts) -> PackedPostings {
    pack_entity_lists(e.offsets.windows(2).map(|w| {
        let (a, b) = (w[0] as usize, w[1] as usize);
        (&e.docs[a..b], &e.efs[a..b], &e.we[a..b])
    }))
}

// ----- trusted decode (query path) --------------------------------------

impl PackedPostings {
    /// The block-id range of list `id`.
    #[inline]
    pub fn list_blocks(&self, id: u32) -> (usize, usize) {
        (
            self.block_offsets[id as usize] as usize,
            self.block_offsets[id as usize + 1] as usize,
        )
    }

    /// Total number of blocks across every list.
    pub fn block_count(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    fn payload(&self, b: usize) -> &[u8] {
        &self.data[self.data_offsets[b] as usize..self.data_offsets[b + 1] as usize]
    }

    /// Decodes block `b`'s doc ids and frequencies into the caller's
    /// buffers. `prev` is the previous block's last doc, or `-1` at a
    /// list start. Returns `(count, payload_bytes)`. Trusted-input path:
    /// the packed state was built (or fully validated) in this process.
    #[inline]
    pub fn decode_block(
        &self,
        b: usize,
        prev: i64,
        docs: &mut [u32; BLOCK_SIZE],
        freqs: &mut [u32; BLOCK_SIZE],
    ) -> (usize, u64) {
        let n = self.counts[b] as usize;
        let payload = self.payload(b);
        let used = unpack_bits(payload, self.doc_bits[b], &mut docs[..n]);
        unpack_bits(&payload[used..], self.aux_bits[b], &mut freqs[..n]);
        let mut p = prev;
        for (d, f) in docs[..n].iter_mut().zip(&mut freqs[..n]) {
            p += i64::from(*d) + 1;
            *d = p as u32;
            *f += 1;
        }
        (n, payload.len() as u64)
    }

    /// [`Self::decode_block`] for an entity block: additionally decodes
    /// the trailing raw-bit-pattern Eq. 2 weights.
    #[inline]
    pub fn decode_entity_block(
        &self,
        b: usize,
        prev: i64,
        docs: &mut [u32; BLOCK_SIZE],
        freqs: &mut [u32; BLOCK_SIZE],
        wes: &mut [f64; BLOCK_SIZE],
    ) -> (usize, u64) {
        let (n, bytes) = self.decode_block(b, prev, docs, freqs);
        let payload = self.payload(b);
        let wstart = payload.len() - n * 8;
        for (i, chunk) in payload[wstart..].chunks_exact(8).enumerate() {
            wes[i] = f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        (n, bytes)
    }
}

// ----- untrusted decode (snapshot path) ---------------------------------

fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Validates the structure-of-arrays shape shared by both sides and
/// returns the block count. Also the memory-safety gate for mapped
/// stores (see [`crate::mapped`]): passing it guarantees every
/// `decode_block` stays in bounds.
pub(crate) fn validate_shape(
    p: &PackedPostings,
    n_lists: usize,
    with_weights: bool,
) -> Result<usize, String> {
    let nblocks = p.counts.len();
    check(p.block_offsets.len() == n_lists + 1, || {
        format!("blocks: block_offsets length {} != lists {} + 1", p.block_offsets.len(), n_lists)
    })?;
    check(p.block_offsets.first() == Some(&0), || "blocks: block_offsets[0] != 0".into())?;
    check(p.block_offsets.windows(2).all(|w| w[0] <= w[1]), || {
        "blocks: block_offsets not ascending".into()
    })?;
    check(p.block_offsets.last().copied() == Some(nblocks as u32), || {
        format!("blocks: block_offsets end {:?} != block count {nblocks}", p.block_offsets.last())
    })?;
    for (name, len) in [
        ("last_doc", p.last_doc.len()),
        ("doc_bits", p.doc_bits.len()),
        ("aux_bits", p.aux_bits.len()),
        ("max_score", p.max_score.len()),
    ] {
        check(len == nblocks, || {
            format!("blocks: {name} length {len} != block count {nblocks}")
        })?;
    }
    check(p.data_offsets.len() == nblocks + 1, || {
        format!("blocks: data_offsets length {} != block count {nblocks} + 1", p.data_offsets.len())
    })?;
    check(p.data_offsets.first() == Some(&0), || "blocks: data_offsets[0] != 0".into())?;
    check(p.data_offsets.windows(2).all(|w| w[0] <= w[1]), || {
        "blocks: data_offsets not ascending".into()
    })?;
    check(p.data_offsets.last().copied() == Some(p.data.len() as u64), || {
        format!("blocks: data_offsets end {:?} != data length {}", p.data_offsets.last(), p.data.len())
    })?;
    for b in 0..nblocks {
        let count = p.counts[b] as usize;
        check((1..=BLOCK_SIZE).contains(&count), || {
            format!("blocks: block {b} count {count} outside 1..={BLOCK_SIZE}")
        })?;
        check(p.doc_bits[b] <= 32 && p.aux_bits[b] <= 32, || {
            format!("blocks: block {b} bit width above 32")
        })?;
        let span = (p.data_offsets[b + 1] - p.data_offsets[b]) as usize;
        let expect = block_payload_len(count, p.doc_bits[b], p.aux_bits[b], with_weights);
        check(span == expect, || {
            format!("blocks: block {b} payload spans {span} bytes, layout needs {expect}")
        })?;
    }
    Ok(nblocks)
}

/// Shared untrusted decode: walks every list's blocks, re-deriving docs
/// and frequencies with full monotonicity/overflow checking, and hands
/// each verified block to `on_block(block_id, docs, freqs)`.
fn decode_validated(
    p: &PackedPostings,
    n_lists: usize,
    with_weights: bool,
    mut on_block: impl FnMut(usize, &[u32], &[u32]) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    validate_shape(p, n_lists, with_weights)?;
    let mut offsets = Vec::with_capacity(n_lists + 1);
    offsets.push(0u64);
    let mut docs = [0u32; BLOCK_SIZE];
    let mut freqs = [0u32; BLOCK_SIZE];
    let mut postings = 0u64;
    for list in 0..n_lists {
        let (bs, be) = (p.block_offsets[list] as usize, p.block_offsets[list + 1] as usize);
        let mut prev = -1i64;
        for b in bs..be {
            let count = p.counts[b] as usize;
            let payload = p.payload(b);
            let used = unpack_bits(payload, p.doc_bits[b], &mut docs[..count]);
            unpack_bits(&payload[used..], p.aux_bits[b], &mut freqs[..count]);
            for i in 0..count {
                prev += i64::from(docs[i]) + 1;
                check(prev <= i64::from(u32::MAX), || {
                    format!("blocks: block {b} decodes a doc id beyond u32")
                })?;
                docs[i] = prev as u32;
                freqs[i] = freqs[i].checked_add(1).ok_or_else(|| {
                    format!("blocks: block {b} frequency overflows u32")
                })?;
            }
            check(prev as u32 == p.last_doc[b], || {
                format!(
                    "blocks: block {b} decodes last doc {prev} but metadata says {}",
                    p.last_doc[b]
                )
            })?;
            postings += count as u64;
            on_block(b, &docs[..count], &freqs[..count])?;
        }
        offsets.push(postings);
    }
    Ok(offsets)
}

/// Decompresses and fully validates a term-side [`PackedPostings`] back
/// into CSR arrays: `(offsets, docs, tfs, max_tf)`. The per-list `max_tf`
/// is re-derived from the verified block maxima, so it is exactly the
/// value the builder would have computed.
#[allow(clippy::type_complexity)]
pub fn unpack_terms(
    p: &PackedPostings,
    n_lists: usize,
) -> Result<(Vec<u64>, Vec<u32>, Vec<u32>, Vec<u32>), String> {
    let mut docs = Vec::with_capacity(p.data_offsets.len().saturating_sub(1) * 4);
    let mut tfs = Vec::with_capacity(docs.capacity());
    let mut block_maxes = Vec::with_capacity(p.counts.len());
    let offsets = decode_validated(p, n_lists, false, |b, bdocs, btfs| {
        let block_max = btfs.iter().copied().max().unwrap_or(0);
        check(p.max_score[b].to_bits() == (block_max as f64).to_bits(), || {
            format!(
                "blocks: block {b} max weight {} disagrees with decoded max tf {block_max}",
                p.max_score[b]
            )
        })?;
        block_maxes.push(block_max);
        docs.extend_from_slice(bdocs);
        tfs.extend_from_slice(btfs);
        Ok(())
    })?;
    let max_tf = (0..n_lists)
        .map(|l| {
            let (bs, be) = (p.block_offsets[l] as usize, p.block_offsets[l + 1] as usize);
            block_maxes[bs..be].iter().copied().max().unwrap_or(0)
        })
        .collect();
    Ok((offsets, docs, tfs, max_tf))
}

/// Decompresses and fully validates an entity-side [`PackedPostings`]
/// back into CSR arrays: `(offsets, docs, efs, we, max_contrib)`. Weights
/// come back bit-exact; `max_contrib` is re-derived from the verified
/// block maxima.
#[allow(clippy::type_complexity)]
pub fn unpack_entities(
    p: &PackedPostings,
    n_lists: usize,
) -> Result<(Vec<u64>, Vec<u32>, Vec<u32>, Vec<f64>, Vec<f64>), String> {
    let mut docs = Vec::with_capacity(p.data_offsets.len().saturating_sub(1) * 4);
    let mut efs = Vec::with_capacity(docs.capacity());
    let mut we = Vec::with_capacity(docs.capacity());
    let offsets = decode_validated(p, n_lists, true, |b, bdocs, befs| {
        let payload = p.payload(b);
        let wstart = payload.len() - befs.len() * 8;
        let mut block_max = 0f64;
        for (i, (&ef, chunk)) in befs.iter().zip(payload[wstart..].chunks_exact(8)).enumerate() {
            let w = f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8-byte weight")));
            let contrib = ef as f64 * w;
            block_max = if i == 0 { contrib } else { block_max.max(contrib) };
            we.push(w);
        }
        check(p.max_score[b].to_bits() == block_max.to_bits(), || {
            format!(
                "blocks: block {b} max weight {} disagrees with decoded max contribution {block_max}",
                p.max_score[b]
            )
        })?;
        docs.extend_from_slice(bdocs);
        efs.extend_from_slice(befs);
        Ok(())
    })?;
    let max_contrib = (0..n_lists)
        .map(|l| {
            let (bs, be) = (p.block_offsets[l] as usize, p.block_offsets[l + 1] as usize);
            p.max_score[bs..be].iter().copied().fold(0.0f64, f64::max)
        })
        .collect();
    Ok((offsets, docs, efs, we, max_contrib))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term_roundtrip(lists: &[(Vec<u32>, Vec<u32>)]) {
        let packed = pack_term_lists(lists.iter().map(|(d, t)| (&d[..], &t[..])));
        let n = lists.len();
        let (offsets, docs, tfs, max_tf) = unpack_terms(&packed, n).expect("roundtrip");
        let mut want_offsets = vec![0u64];
        let (mut want_docs, mut want_tfs, mut want_max) = (Vec::new(), Vec::new(), Vec::new());
        for (d, t) in lists {
            want_docs.extend_from_slice(d);
            want_tfs.extend_from_slice(t);
            want_offsets.push(want_docs.len() as u64);
            want_max.push(t.iter().copied().max().unwrap_or(0));
        }
        assert_eq!(offsets, want_offsets);
        assert_eq!(docs, want_docs);
        assert_eq!(tfs, want_tfs);
        assert_eq!(max_tf, want_max);
    }

    /// A list of `len` postings with spread-out docs and cycling tfs.
    fn synth_list(len: usize) -> (Vec<u32>, Vec<u32>) {
        let docs: Vec<u32> = (0..len as u32).map(|i| i * 7 + (i % 3)).collect();
        let tfs: Vec<u32> = (0..len as u32).map(|i| i % 19 + 1).collect();
        (docs, tfs)
    }

    #[test]
    fn boundary_lengths_roundtrip() {
        // ISSUE 6 satellite: lengths 0, 1, exactly one block, block ± 1.
        for len in [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 5] {
            term_roundtrip(&[synth_list(len)]);
        }
    }

    #[test]
    fn multiple_lists_roundtrip() {
        term_roundtrip(&[
            synth_list(0),
            synth_list(BLOCK_SIZE + 3),
            synth_list(2),
            synth_list(0),
            synth_list(BLOCK_SIZE),
        ]);
    }

    #[test]
    fn all_equal_weights_use_zero_width() {
        // Degenerate block max: every tf identical → aux width 0, and the
        // block max equals that weight.
        let docs: Vec<u32> = (0..BLOCK_SIZE as u32).map(|i| i * 2).collect();
        let tfs = vec![5u32; BLOCK_SIZE];
        let packed = pack_term_lists(std::iter::once((&docs[..], &tfs[..])));
        assert_eq!(packed.aux_bits, vec![bits_for(4)]);
        assert_eq!(packed.max_score, vec![5.0]);
        // Dense consecutive docs after the first gap: width driven by max gap.
        term_roundtrip(&[(docs, tfs)]);
        // Truly consecutive docs pack gaps at width 0.
        let docs: Vec<u32> = (10..10 + BLOCK_SIZE as u32).collect();
        let tfs = vec![1u32; BLOCK_SIZE];
        let packed = pack_term_lists(std::iter::once((&docs[..], &tfs[..])));
        // First gap is 10, so width is driven by it; a second block of the
        // same list would be width 0. Check via a 2-block list.
        let docs: Vec<u32> = (0..2 * BLOCK_SIZE as u32).collect();
        let tfs = vec![1u32; 2 * BLOCK_SIZE];
        let p2 = pack_term_lists(std::iter::once((&docs[..], &tfs[..])));
        assert_eq!(p2.doc_bits, vec![0, 0]);
        assert_eq!(p2.aux_bits, vec![0, 0]);
        assert_eq!(p2.data_offsets, vec![0, 0, 0]);
        let _ = packed;
    }

    #[test]
    fn entity_roundtrip_is_bit_exact() {
        let docs: Vec<u32> = (0..BLOCK_SIZE as u32 + 9).map(|i| i * 13 + 1).collect();
        let efs: Vec<u32> = (0..docs.len() as u32).map(|i| i % 4 + 1).collect();
        let wes: Vec<f64> = (0..docs.len()).map(|i| 1.0 + (i as f64 * 0.07).fract()).collect();
        let packed = pack_entity_lists(std::iter::once((&docs[..], &efs[..], &wes[..])));
        let (offsets, d2, e2, w2, max_contrib) = unpack_entities(&packed, 1).unwrap();
        assert_eq!(offsets, vec![0, docs.len() as u64]);
        assert_eq!(d2, docs);
        assert_eq!(e2, efs);
        assert_eq!(w2.len(), wes.len());
        for (a, b) in w2.iter().zip(&wes) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let want = efs.iter().zip(&wes).map(|(&e, &w)| e as f64 * w).fold(0.0f64, f64::max);
        assert_eq!(max_contrib[0].to_bits(), want.to_bits());
    }

    #[test]
    fn packing_is_deterministic() {
        let lists = [synth_list(300), synth_list(7)];
        let a = pack_term_lists(lists.iter().map(|(d, t)| (&d[..], &t[..])));
        let b = pack_term_lists(lists.iter().map(|(d, t)| (&d[..], &t[..])));
        assert_eq!(a, b);
    }

    #[test]
    fn trusted_block_decode_matches_unpack() {
        let (docs, tfs) = synth_list(2 * BLOCK_SIZE + 17);
        let packed = pack_term_lists(std::iter::once((&docs[..], &tfs[..])));
        let (bs, be) = packed.list_blocks(0);
        let mut dbuf = [0u32; BLOCK_SIZE];
        let mut fbuf = [0u32; BLOCK_SIZE];
        let mut prev = -1i64;
        let (mut got_docs, mut got_tfs, mut bytes) = (Vec::new(), Vec::new(), 0u64);
        for b in bs..be {
            let (n, nbytes) = packed.decode_block(b, prev, &mut dbuf, &mut fbuf);
            got_docs.extend_from_slice(&dbuf[..n]);
            got_tfs.extend_from_slice(&fbuf[..n]);
            bytes += nbytes;
            prev = i64::from(packed.last_doc[b]);
        }
        assert_eq!(got_docs, docs);
        assert_eq!(got_tfs, tfs);
        assert_eq!(bytes, packed.data.len() as u64);
    }

    #[test]
    fn forged_metadata_is_rejected() {
        let (docs, tfs) = synth_list(BLOCK_SIZE + 40);
        let good = pack_term_lists(std::iter::once((&docs[..], &tfs[..])));

        // Forged block max (would unsoundly weaken or tighten pruning).
        let mut p = good.clone();
        p.max_score[0] += 1.0;
        assert!(unpack_terms(&p, 1).unwrap_err().contains("max"));

        // Forged last doc id (would break the skip test).
        let mut p = good.clone();
        p.last_doc[1] ^= 1;
        assert!(unpack_terms(&p, 1).unwrap_err().contains("last doc"));

        // Count outside the block size.
        let mut p = good.clone();
        p.counts[0] = BLOCK_SIZE as u32 + 1;
        assert!(unpack_terms(&p, 1).is_err());

        // Payload span disagreeing with the declared widths.
        let mut p = good.clone();
        p.doc_bits[0] += 1;
        assert!(unpack_terms(&p, 1).unwrap_err().contains("payload"));

        // Width beyond 32 bits.
        let mut p = good.clone();
        p.doc_bits[0] = 33;
        assert!(unpack_terms(&p, 1).unwrap_err().contains("width"));

        // Broken block CSR.
        let mut p = good.clone();
        p.block_offsets[1] = 99;
        assert!(unpack_terms(&p, 1).is_err());

        // Wrong list count.
        assert!(unpack_terms(&good, 2).is_err());
    }

    #[test]
    fn wide_gaps_and_large_tfs_survive() {
        let docs = vec![0u32, 1, u32::MAX - 1];
        let tfs = vec![1u32, u32::MAX, 2];
        term_roundtrip(&[(docs, tfs)]);
    }
}
