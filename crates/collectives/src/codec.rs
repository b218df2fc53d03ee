//! Lossy gradient compression for the collective layer.
//!
//! A [`Codec`] decides how `f32` gradient payloads are serialized onto the
//! transport. [`Codec::None`] keeps the legacy raw little-endian `f32`
//! frames (4 bytes per element, bitwise identical to the pre-codec wire
//! format). The lossy codecs trade precision for bytes:
//!
//! - [`Codec::Bf16`] — bfloat16 truncation with round-to-nearest-even:
//!   2 bytes per element, ~8 bits of mantissa, full `f32` exponent range.
//! - [`Codec::TopK`] — magnitude sparsification: only the `k` largest
//!   entries (by `|v|`, ties broken by lower index) travel, as
//!   `[dense_len: u32][k: u32][k × index: u32][k × value: f32]`, indices
//!   ascending. `k = max(1, ⌈len · permille / 1000⌉)` per frame.
//!
//! ## Wire-format invariants
//!
//! Every codec here is **idempotent**: `encode(decode(encode(x))) ==
//! encode(x)` byte-for-byte. The ring collectives lean on this — after the
//! reduce-scatter phase each rank re-quantizes the chunk it owns
//! ([`Codec::quantize`]) before the all-gather circulates it, so every
//! rank's forwarded copy decodes to the same bits and the group stays
//! replica-consistent even under lossy compression.
//!
//! `none` and `bf16` are **elementwise**: a frame is its elements'
//! encodings laid end to end, so a slice of a frame is the frame of the
//! slice and the ring may cut a chunk into as many frames as it likes.
//! `topk` selects across the whole frame and must see a chunk whole.
//!
//! ## Error feedback
//!
//! Lossy codecs bias the gradient; [`ErrorFeedback`] keeps the classic
//! EF-SGD residual (Karimireddy et al., 2019): the part of the gradient the
//! codec dropped this step is stored and added back into the next step's
//! gradient, so the *accumulated* update converges to the uncompressed
//! trajectory instead of drifting.

use std::fmt;

/// Gradient wire codec, selected per communicator group; the trainer
/// builders default to [`Codec::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Raw little-endian `f32` frames — the lossless legacy format.
    #[default]
    None,
    /// bfloat16 (round-to-nearest-even): 2 bytes per element.
    Bf16,
    /// Keep only the `permille`/1000 largest-magnitude entries per frame.
    TopK {
        /// Kept fraction in thousandths, `1..=1000`. `100` keeps the top
        /// 10%.
        permille: u16,
    },
}

impl Codec {
    /// A short stable label (`none` / `bf16` / `topk`), e.g. for
    /// telemetry tags and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Bf16 => "bf16",
            Codec::TopK { .. } => "topk",
        }
    }

    /// Whether encoding can lose information (everything but
    /// [`Codec::None`]).
    pub fn is_lossy(&self) -> bool {
        !matches!(self, Codec::None)
    }

    /// Wire bytes per element when a frame is its elements' encodings end
    /// to end, so that a chunk may travel as several frames; `None` for
    /// [`Codec::TopK`], whose frame must hold the chunk whole.
    pub(crate) fn scalar_width(&self) -> Option<usize> {
        match self {
            Codec::None => Some(4),
            Codec::Bf16 => Some(2),
            Codec::TopK { .. } => None,
        }
    }

    /// Serialize a gradient slice into its wire frame.
    pub fn encode(&self, values: &[f32]) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(values, &mut frame);
        frame
    }

    /// [`Codec::encode`] into a frame the caller keeps: `frame` is
    /// overwritten and its allocation reused.
    pub(crate) fn encode_into(&self, values: &[f32], frame: &mut Vec<u8>) {
        match self {
            Codec::None => pack(values, frame, f32::to_le_bytes),
            Codec::Bf16 => pack(values, frame, |v| f32_to_bf16(v).to_le_bytes()),
            Codec::TopK { permille } => encode_topk(values, *permille, frame),
        }
    }

    /// Deserialize a wire frame back into a dense gradient vector.
    ///
    /// # Errors
    ///
    /// A description of the malformation when the frame does not match this
    /// codec's format (wrong length granularity, truncated header, sparse
    /// index out of range or out of order).
    pub fn decode(&self, frame: &[u8]) -> Result<Vec<f32>, String> {
        let mut values = vec![0.0; self.frame_elems(frame)?];
        self.decode_onto(frame, &mut values, false)?;
        Ok(values)
    }

    /// How many elements `frame` decodes to, from its length (and, for
    /// top-k, its header) alone.
    ///
    /// # Errors
    ///
    /// A description of the malformation when no frame of this codec has
    /// that length.
    pub(crate) fn frame_elems(&self, frame: &[u8]) -> Result<usize, String> {
        let whole = |width: usize, scalar: &str| {
            if frame.len().is_multiple_of(width) {
                Ok(frame.len() / width)
            } else {
                Err(format!("frame of {} bytes is not a whole number of {scalar}s", frame.len()))
            }
        };
        match self {
            Codec::None => whole(4, "f32"),
            Codec::Bf16 => whole(2, "bf16"),
            Codec::TopK { .. } => topk_header(frame).map(|(dense_len, _)| dense_len),
        }
    }

    /// Decode `frame` onto `dst`, element by element: `dst[i] += vᵢ` when
    /// `accumulate`, `dst[i] = vᵢ` otherwise. The frame is validated in
    /// full first, so on error `dst` is untouched.
    ///
    /// # Errors
    ///
    /// As [`Codec::decode`], and when the frame does not hold exactly
    /// `dst.len()` elements (the ring checks that first, to name its
    /// schedule in the error).
    pub(crate) fn decode_onto(&self, frame: &[u8], dst: &mut [f32], accumulate: bool) -> Result<(), String> {
        let elems = self.frame_elems(frame)?;
        if elems != dst.len() {
            return Err(format!("frame of {elems} elements onto a destination of {}", dst.len()));
        }
        match self {
            Codec::None => unpack(frame, dst, accumulate, f32::from_le_bytes),
            Codec::Bf16 => unpack(frame, dst, accumulate, |b| bf16_to_f32(u16::from_le_bytes(b))),
            Codec::TopK { .. } => return decode_topk_onto(frame, dst, accumulate),
        }
        Ok(())
    }

    /// Apply the codec's loss in place without serializing: afterwards
    /// `data` equals `decode(encode(data))`. Used by the ring collectives
    /// to re-quantize a rank's owned chunk before the all-gather phase.
    pub fn quantize(&self, data: &mut [f32]) {
        match self {
            Codec::None => {}
            Codec::Bf16 => data.iter_mut().for_each(|v| *v = round_bf16(*v)),
            Codec::TopK { permille } => {
                let mut keep = topk_indices(data, *permille).into_iter().peekable();
                for (i, v) in data.iter_mut().enumerate() {
                    if keep.next_if_eq(&(i as u32)).is_none() {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    /// The error-feedback step in front of a lossy exchange, in place:
    /// `data` becomes `Q((data + residual) · weight)` — the Eq. (9)
    /// contribution as the codec will carry it — and `residual` becomes
    /// what `Q` dropped, divided by `weight` again (unscaled space). The
    /// elementwise codecs do it in one pass; top-k needs the whole scaled
    /// slice before it can select.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub(crate) fn quantize_with_feedback(&self, data: &mut [f32], residual: &mut [f32], weight: f32) {
        assert_eq!(data.len(), residual.len(), "error-feedback window mismatch");
        let unscale = if weight != 0.0 { 1.0 / weight } else { 0.0 };
        match self {
            Codec::None => feed_back(data, residual, weight, unscale, |v| v),
            Codec::Bf16 => feed_back(data, residual, weight, unscale, round_bf16),
            Codec::TopK { permille } => {
                for (v, r) in data.iter_mut().zip(residual.iter()) {
                    *v = (*v + *r) * weight;
                }
                let mut keep = topk_indices(data, *permille).into_iter().peekable();
                for (i, (v, r)) in data.iter_mut().zip(residual.iter_mut()).enumerate() {
                    let kept = if keep.next_if_eq(&(i as u32)).is_some() { *v } else { 0.0 };
                    *r = (*v - kept) * unscale;
                    *v = kept;
                }
            }
        }
    }

    /// Encoded size in bytes of a `len`-element frame (exact for every
    /// codec; used by byte-budget estimates in the bench harness).
    pub fn frame_bytes(&self, len: usize) -> usize {
        match self {
            Codec::None => len * 4,
            Codec::Bf16 => len * 2,
            Codec::TopK { permille } => 8 + topk_count(len, *permille) * 8,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::TopK { permille } => write!(f, "topk:{permille}"),
            other => f.write_str(other.label()),
        }
    }
}

/// EF-SGD residual accumulator: the gradient mass a lossy [`Codec`]
/// dropped on previous steps, fed back into the next step so compression
/// error stays bounded instead of compounding.
///
/// The residual is stored in *unscaled* gradient space (before the Eq. (9)
/// batch-ratio weight), so it remains meaningful when the weight changes
/// between steps as the adaptive split moves samples across nodes.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// A zeroed residual for a `len`-parameter model.
    pub fn new(len: usize) -> Self {
        ErrorFeedback { residual: vec![0.0; len] }
    }

    /// Number of parameters this accumulator covers.
    pub fn len(&self) -> usize {
        self.residual.len()
    }

    /// Whether the accumulator covers zero parameters.
    pub fn is_empty(&self) -> bool {
        self.residual.is_empty()
    }

    /// Add the stored residual into `data` (which starts at parameter
    /// `offset` of the flat gradient).
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the accumulator length.
    pub fn compensate(&self, data: &mut [f32], offset: usize) {
        let window = &self.residual[offset..offset + data.len()];
        for (d, r) in data.iter_mut().zip(window) {
            *d += *r;
        }
    }

    /// The residual of the `len` parameters starting at `offset`, for the
    /// exchange to rewrite in place.
    ///
    /// # Panics
    ///
    /// Panics if the window overruns the accumulator.
    pub(crate) fn window(&mut self, offset: usize, len: usize) -> &mut [f32] {
        &mut self.residual[offset..offset + len]
    }
}

/// Overwrite `frame` with every value's `W` wire bytes. The frame is not
/// cleared first: only growth is zero-filled, and a reused frame usually has
/// the right length already.
fn pack<const W: usize>(values: &[f32], frame: &mut Vec<u8>, narrow: impl Fn(f32) -> [u8; W]) {
    frame.resize(values.len() * W, 0);
    for (bytes, &v) in frame.as_chunks_mut::<W>().0.iter_mut().zip(values) {
        *bytes = narrow(v);
    }
}

/// Widen `frame`'s `W`-byte scalars onto `dst`, which holds as many.
fn unpack<const W: usize>(frame: &[u8], dst: &mut [f32], accumulate: bool, widen: impl Fn([u8; W]) -> f32) {
    let values = frame.as_chunks::<W>().0.iter().map(|&bytes| widen(bytes));
    if accumulate {
        dst.iter_mut().zip(values).for_each(|(d, v)| *d += v);
    } else {
        dst.iter_mut().zip(values).for_each(|(d, v)| *d = v);
    }
}

/// [`Codec::quantize_with_feedback`] for a codec that rounds each element
/// on its own: compensate, scale, round and keep the rounding error, once
/// through both slices.
fn feed_back(data: &mut [f32], residual: &mut [f32], weight: f32, unscale: f32, round: impl Fn(f32) -> f32) {
    for (v, r) in data.iter_mut().zip(residual) {
        let scaled = (*v + *r) * weight;
        *v = round(scaled);
        *r = (scaled - *v) * unscale;
    }
}

// ---- bfloat16 ----

/// `f32` → bf16 with round-to-nearest-even. NaNs are quieted (their
/// payload is truncated but a mantissa bit is forced so they stay NaN).
pub(crate) fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = ((bits >> 16) & 1) + 0x7FFF;
    (bits.wrapping_add(round) >> 16) as u16
}

/// bf16 → `f32` (exact: bf16 is the top half of the f32 bit pattern).
pub(crate) fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits(u32::from(h) << 16)
}

fn round_bf16(x: f32) -> f32 {
    bf16_to_f32(f32_to_bf16(x))
}

// ---- top-k sparsification ----

/// How many entries a `len`-element frame keeps at `permille`/1000.
fn topk_count(len: usize, permille: u16) -> usize {
    if len == 0 {
        return 0;
    }
    ((len * permille as usize).div_ceil(1000)).max(1)
}

/// Indices of the `k` largest-magnitude entries, deterministic under ties:
/// ordered by (`|v|` descending, index ascending) before the cut, returned
/// ascending. Uses `total_cmp` so NaN/∞ payloads still order consistently
/// on every rank.
fn topk_indices(values: &[f32], permille: u16) -> Vec<u32> {
    let k = topk_count(values.len(), permille);
    let mut idx: Vec<u32> = (0..values.len() as u32).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            values[b as usize]
                .abs()
                .total_cmp(&values[a as usize].abs())
                .then(a.cmp(&b))
        });
        idx.truncate(k);
    }
    idx.sort_unstable();
    idx
}

fn encode_topk(values: &[f32], permille: u16, frame: &mut Vec<u8>) {
    let idx = topk_indices(values, permille);
    frame.clear();
    frame.reserve(8 + idx.len() * 8);
    frame.extend_from_slice(&(values.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(idx.len() as u32).to_le_bytes());
    for &i in &idx {
        frame.extend_from_slice(&i.to_le_bytes());
    }
    for &i in &idx {
        frame.extend_from_slice(&values[i as usize].to_le_bytes());
    }
}

/// `(dense_len, k)` of a top-k frame whose length is what its header says.
fn topk_header(frame: &[u8]) -> Result<(usize, usize), String> {
    if frame.len() < 8 {
        return Err(format!("top-k frame of {} bytes is shorter than its header", frame.len()));
    }
    let dense_len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    let k = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
    if frame.len() != 8 + k * 8 {
        return Err(format!("top-k frame of {} bytes does not hold {k} entries", frame.len()));
    }
    Ok((dense_len, k))
}

/// Scatter a top-k frame onto the `dense_len` elements of `dst`; an index
/// the frame leaves out counts as `0.0` and is written (or added) as one.
fn decode_topk_onto(frame: &[u8], dst: &mut [f32], accumulate: bool) -> Result<(), String> {
    let (dense_len, k) = topk_header(frame)?;
    let (idx_bytes, val_bytes) = frame[8..].split_at(k * 4);
    let indices = || idx_bytes.as_chunks::<4>().0.iter().map(|&b| u32::from_le_bytes(b) as usize);
    // The merge below walks `dst` once and so needs the indices as the
    // encoder emits them: in range and ascending.
    let mut floor = 0;
    for i in indices() {
        if i >= dense_len {
            return Err(format!("top-k index {i} out of range for dense length {dense_len}"));
        }
        if i < floor {
            return Err(format!("top-k index {i} does not ascend from the one before it"));
        }
        floor = i + 1;
    }
    let values = val_bytes.as_chunks::<4>().0.iter().map(|&b| f32::from_le_bytes(b));
    let mut entries = indices().zip(values).peekable();
    for (i, d) in dst.iter_mut().enumerate() {
        let v = entries.next_if(|&(at, _)| at == i).map_or(0.0, |(_, v)| v);
        if accumulate {
            *d += v;
        } else {
            *d = v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_bitwise_lossless() {
        let values = vec![0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e30, f32::NEG_INFINITY];
        let frame = Codec::None.encode(&values);
        assert_eq!(frame.len(), values.len() * 4);
        let decoded = Codec::None.decode(&frame).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bf16_halves_bytes_and_bounds_error() {
        let values: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.37).collect();
        let frame = Codec::Bf16.encode(&values);
        assert_eq!(frame.len(), values.len() * 2);
        let decoded = Codec::Bf16.decode(&frame).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            // bf16 has 8 mantissa bits → relative error < 2⁻⁸.
            assert!((a - b).abs() <= a.abs() * 0.004 + 1e-30, "{a} vs {b}");
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // bf16 keeps 7 explicit mantissa bits: the ulp at 1.0 is 2⁻⁷.
        assert_eq!(f32_to_bf16(1.0), 0x3F80);
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0078125)), 1.0078125, "1 + 2⁻⁷ is exact");
        // 1 + 2⁻⁸ is exactly halfway between 1.0 and 1 + 2⁻⁷; RNE keeps
        // the even mantissa (1.0).
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0 + 1.0 / 256.0)), 1.0);
        // 1 + 3·2⁻⁸ is halfway with an odd low mantissa below it; RNE
        // rounds up to the even 1 + 2⁻⁶.
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0 + 3.0 / 256.0)), 1.015625);
        // Above the midpoint always rounds up.
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0 + 1.0 / 256.0 + 1e-4)), 1.0078125);
        // Specials survive.
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f32_to_bf16(-0.0).to_le_bytes()[1] & 0x80, 0x80, "sign survives");
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let values = vec![0.1f32, -5.0, 0.2, 3.0, -0.05, 0.0, 4.0, -0.3];
        let codec = Codec::TopK { permille: 375 }; // keep 3 of 8
        let decoded = codec.decode(&codec.encode(&values)).unwrap();
        assert_eq!(decoded, vec![0.0, -5.0, 0.0, 3.0, 0.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn topk_ties_break_by_lower_index() {
        let values = vec![1.0f32, -1.0, 1.0, 1.0];
        let codec = Codec::TopK { permille: 500 }; // keep 2 of 4
        let decoded = codec.decode(&codec.encode(&values)).unwrap();
        assert_eq!(decoded, vec![1.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_empty_and_tiny_frames() {
        let codec = Codec::TopK { permille: 10 };
        assert_eq!(codec.decode(&codec.encode(&[])).unwrap(), Vec::<f32>::new());
        // k is floored at 1: a single element always travels.
        assert_eq!(codec.decode(&codec.encode(&[7.0])).unwrap(), vec![7.0]);
    }

    #[test]
    fn every_codec_is_idempotent() {
        let values: Vec<f32> = (0..257).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.5).collect();
        for codec in [
            Codec::None,
            Codec::Bf16,
            Codec::TopK { permille: 100 },
            Codec::TopK { permille: 1000 },
        ] {
            let once = codec.encode(&values);
            let decoded = codec.decode(&once).unwrap();
            let twice = codec.encode(&decoded);
            assert_eq!(once, twice, "encode∘decode∘encode must be stable for {codec}");
            // quantize must agree with the wire round-trip.
            let mut q = values.clone();
            codec.quantize(&mut q);
            let qb: Vec<u32> = q.iter().map(|v| v.to_bits()).collect();
            let db: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
            assert_eq!(qb, db, "quantize must equal decode(encode(·)) for {codec}");
        }
    }

    #[test]
    fn frame_bytes_is_exact() {
        let values = vec![1.0f32; 123];
        for codec in [Codec::None, Codec::Bf16, Codec::TopK { permille: 250 }] {
            assert_eq!(codec.encode(&values).len(), codec.frame_bytes(values.len()), "{codec}");
        }
        assert_eq!(Codec::TopK { permille: 250 }.frame_bytes(0), 8);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Codec::None.decode(&[0; 5]).is_err());
        assert!(Codec::Bf16.decode(&[0; 3]).is_err());
        let topk = Codec::TopK { permille: 100 };
        assert!(topk.decode(&[0; 4]).is_err(), "truncated header");
        let mut bad = topk.encode(&[1.0, 2.0, 3.0]);
        bad[8] = 200; // index beyond dense_len
        assert!(topk.decode(&bad).is_err(), "out-of-range index");
        bad.pop();
        assert!(topk.decode(&bad).is_err(), "length mismatch");
    }

    #[test]
    fn display_names_the_codec() {
        let shown = [Codec::None, Codec::Bf16, Codec::TopK { permille: 37 }].map(|c| c.to_string());
        assert_eq!(shown, ["none", "bf16", "topk:37"]);
    }

    /// The residual as a vector (compensating zeros reads it out).
    fn residual_of(ef: &ErrorFeedback) -> Vec<f32> {
        let mut out = vec![0.0f32; ef.len()];
        ef.compensate(&mut out, 0);
        out
    }

    #[test]
    fn error_feedback_accumulates_dropped_mass() {
        let codec = Codec::TopK { permille: 500 };
        let mut ef = ErrorFeedback::new(4);
        // Step 1: [3, 1, -2, 0.5] keeps {3, -2}; residual holds {1, 0.5}.
        let mut g = vec![3.0f32, 1.0, -2.0, 0.5];
        codec.quantize_with_feedback(&mut g, ef.window(0, 4), 1.0);
        assert_eq!(g, vec![3.0, 0.0, -2.0, 0.0]);
        // Step 2: the same raw gradient plus feedback now carries the
        // previously dropped entries forward.
        let mut g2 = vec![3.0f32, 1.0, -2.0, 0.5];
        ef.compensate(&mut g2, 0);
        assert_eq!(g2, vec![3.0, 2.0, -2.0, 1.0]);
    }

    #[test]
    fn error_feedback_windows_are_independent_and_unscaled() {
        let mut ef = ErrorFeedback::new(6);
        // At weight 1/2 the window [1, 4] scales to [0.5, 2]; keeping one
        // of two drops the 0.5, which is 1 again in unscaled space.
        let mut g = [1.0f32, 4.0];
        Codec::TopK { permille: 500 }.quantize_with_feedback(&mut g, ef.window(2, 2), 0.5);
        assert_eq!(g, [0.0, 2.0]);
        assert_eq!(residual_of(&ef), vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        // A pass that drops nothing leaves nothing behind, and carries what
        // was there.
        let mut g = [1.0f32, 4.0];
        Codec::TopK { permille: 1000 }.quantize_with_feedback(&mut g, ef.window(2, 2), 0.5);
        assert_eq!(g, [1.0, 2.0]);
        assert_eq!(residual_of(&ef), vec![0.0; 6]);
    }

    #[test]
    fn feedback_in_one_pass_equals_the_steps_taken_apart() {
        let values: Vec<f32> = (0..257).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.5).collect();
        let carried: Vec<f32> = (0..257).map(|i| ((i * 13) % 17) as f32 * 0.0031 - 0.02).collect();
        for codec in [Codec::Bf16, Codec::TopK { permille: 100 }] {
            for weight in [0.3f32, 1.0, 0.0] {
                let (mut data, mut residual) = (values.clone(), carried.clone());
                codec.quantize_with_feedback(&mut data, &mut residual, weight);
                // Compensate, scale, quantize a copy, subtract, unscale.
                let scaled: Vec<f32> = values.iter().zip(&carried).map(|(v, r)| (v + r) * weight).collect();
                let mut quantized = scaled.clone();
                codec.quantize(&mut quantized);
                let unscale = if weight != 0.0 { 1.0 / weight } else { 0.0 };
                let dropped: Vec<f32> = scaled.iter().zip(&quantized).map(|(s, q)| (s - q) * unscale).collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&data), bits(&quantized), "{codec} at weight {weight}");
                assert_eq!(bits(&residual), bits(&dropped), "{codec} at weight {weight}");
            }
        }
    }

    #[test]
    fn decode_onto_checks_before_it_writes() {
        let topk = Codec::TopK { permille: 500 };
        let mut dst = [1.0f32, 2.0, 3.0, 4.0];
        // Accumulating adds the kept entries where they belong.
        topk.decode_onto(&topk.encode(&[0.5, -9.0, 0.25, 7.0]), &mut dst, true).unwrap();
        assert_eq!(dst, [1.0, -7.0, 3.0, 11.0]);
        let untouched = dst;
        for codec in [Codec::None, Codec::Bf16, topk] {
            for len in [3, 5] {
                let err = codec.decode_onto(&codec.encode(&vec![1.0; len]), &mut dst, true).unwrap_err();
                assert!(err.contains(&format!("{len} elements onto a destination of 4")), "{codec}: {err}");
            }
        }
        // Indices 1 and 3 swapped: in range, but not as the encoder emits them.
        let mut unordered = topk.encode(&[0.5, -9.0, 0.25, 7.0]);
        unordered[8] = 3;
        unordered[12] = 1;
        assert!(topk.decode_onto(&unordered, &mut dst, false).unwrap_err().contains("does not ascend"));
        unordered[8] = 1;
        unordered[12] = 1;
        assert!(topk.decode_onto(&unordered, &mut dst, false).unwrap_err().contains("does not ascend"));
        let mut beyond = topk.encode(&[0.5, -9.0, 0.25, 7.0]);
        beyond[12] = 4;
        assert!(topk.decode_onto(&beyond, &mut dst, false).unwrap_err().contains("out of range"));
        assert_eq!(dst, untouched);
    }
}
