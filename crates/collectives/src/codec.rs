//! Lossy gradient compression for the collective layer.
//!
//! A [`Codec`] decides how `f32` gradient payloads are serialized onto the
//! transport. [`Codec::None`] keeps the legacy raw little-endian `f32`
//! frames (4 bytes per element, bitwise identical to the pre-codec wire
//! format). The lossy codecs trade precision for bytes:
//!
//! - [`Codec::Bf16`] — bfloat16 truncation with round-to-nearest-even:
//!   2 bytes per element, ~8 bits of mantissa, full `f32` exponent range.
//! - [`Codec::F16`] — IEEE 754 binary16: 2 bytes per element, 11 bits of
//!   effective mantissa, narrow exponent range (saturates to ±∞ beyond
//!   ~65504; gradients this large indicate divergence anyway).
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
//! `none`, `bf16` and `f16` are **elementwise**: a frame is its elements'
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
use std::str::FromStr;

/// Gradient wire codec, selected per communicator group.
///
/// Parsed from the `CANNIKIN_CODEC` environment variable by
/// `core::runtime::codec_from_env` (`none`, `bf16`, `f16`, or
/// `topk:PERMILLE`); builder settings take precedence over the environment,
/// which takes precedence over the [`Codec::None`] default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Raw little-endian `f32` frames — the lossless legacy format.
    #[default]
    None,
    /// bfloat16 (round-to-nearest-even): 2 bytes per element.
    Bf16,
    /// IEEE binary16 (round-to-nearest-even, saturating): 2 bytes/element.
    F16,
    /// Keep only the `permille`/1000 largest-magnitude entries per frame.
    TopK {
        /// Kept fraction in thousandths, clamped to `1..=1000` at parse
        /// time. `100` keeps the top 10%.
        permille: u16,
    },
}

impl Codec {
    /// A short stable label (`none` / `bf16` / `f16` / `topk`), e.g. for
    /// telemetry tags and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Bf16 => "bf16",
            Codec::F16 => "f16",
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
            Codec::Bf16 | Codec::F16 => Some(2),
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
            Codec::F16 => pack(values, frame, |v| f32_to_f16(v).to_le_bytes()),
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
            Codec::F16 => whole(2, "f16"),
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
            Codec::F16 => unpack(frame, dst, accumulate, |b| f16_to_f32(u16::from_le_bytes(b))),
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
            Codec::F16 => data.iter_mut().for_each(|v| *v = round_f16(*v)),
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
            Codec::F16 => feed_back(data, residual, weight, unscale, round_f16),
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
            Codec::Bf16 | Codec::F16 => len * 2,
            Codec::TopK { permille } => 8 + topk_count(len, *permille) * 8,
        }
    }
}

/// Error from parsing a [`Codec`] spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCodecError {
    value: String,
}

impl fmt::Display for ParseCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown codec `{}` (expected `none`, `bf16`, `f16` or `topk:PERMILLE` with PERMILLE in 1..=1000)",
            self.value
        )
    }
}

impl std::error::Error for ParseCodecError {}

impl FromStr for Codec {
    type Err = ParseCodecError;

    /// Parse `none`/`off`, `bf16`, `f16`/`fp16`/`half`, or `topk:N` with
    /// `N` in thousandths (1..=1000).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        match t.to_ascii_lowercase().as_str() {
            "none" | "off" | "raw" | "f32" => Ok(Codec::None),
            "bf16" | "bfloat16" => Ok(Codec::Bf16),
            "f16" | "fp16" | "half" => Ok(Codec::F16),
            lower => match lower.split_once(':') {
                Some(("topk", arg)) => match arg.parse::<u16>() {
                    Ok(p) if (1..=1000).contains(&p) => Ok(Codec::TopK { permille: p }),
                    _ => Err(ParseCodecError { value: t.to_string() }),
                },
                _ => Err(ParseCodecError { value: t.to_string() }),
            },
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

// ---- IEEE binary16 ----

/// `f32` → f16 with round-to-nearest-even, gradual underflow to the f16
/// subnormal range, saturation to ±∞ above the f16 range.
pub(crate) fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf stays Inf; NaN keeps a mantissa bit so it stays NaN.
        return sign | 0x7C00 | u16::from(man != 0) << 9;
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7C00; // overflow → ±∞
    }
    if unbiased >= -14 {
        // Normal half: drop 13 mantissa bits with RNE. A mantissa carry
        // may overflow into the exponent — that is exactly the right
        // rounding (up to the next binade, or to ∞ at the top).
        let mut h = (((unbiased + 15) as u32) << 10) | (man >> 13);
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
            h += 1;
        }
        return sign | h as u16;
    }
    if unbiased >= -25 {
        // Subnormal half: shift the full significand (implicit bit
        // included) into place, rounding the dropped bits to even. The
        // −25 binade rounds up to the smallest subnormal when above its
        // midpoint and to zero at or below it — plain RNE.
        let full = man | 0x0080_0000;
        let shift = (13 - 14 - unbiased) as u32;
        let mut h = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && h & 1 == 1) {
            h += 1;
        }
        return sign | h as u16;
    }
    sign // underflow → ±0
}

/// f16 → `f32` (exact for every finite half value).
pub(crate) fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1F;
    let man = u32::from(h & 0x03FF);
    match exp {
        0 => {
            // Subnormal: man · 2⁻²⁴, exact because the scale is a power
            // of two and man fits in 10 bits.
            let mag = man as f32 * f32::from_bits(0x3380_0000);
            f32::from_bits(mag.to_bits() | sign)
        }
        31 => f32::from_bits(sign | 0x7F80_0000 | (man << 13)),
        e => f32::from_bits(sign | ((u32::from(e) + 112) << 23) | (man << 13)),
    }
}

fn round_f16(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
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
    fn f16_round_trips_exact_halves() {
        for v in [0.0f32, 1.0, -2.5, 0.5, 65504.0, -65504.0, 6.103_515_6e-5, 5.960_464_5e-8] {
            let q = f16_to_f32(f32_to_f16(v));
            assert_eq!(q, v, "{v} must be exactly representable in f16");
        }
        // Saturation and specials.
        assert_eq!(f16_to_f32(f32_to_f16(1e6)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(-1e6)), f32::NEG_INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f32_to_f16(1e-10)), 0.0, "deep underflow flushes to zero");
        assert_eq!(f32_to_f16(-1e-10), 0x8000, "…keeping the sign");
    }

    #[test]
    fn f16_subnormals_are_gradual() {
        // Half the smallest normal is a subnormal, not zero.
        let v = 1.0f32 / 32_768.0; // 2⁻¹⁵
        let q = f16_to_f32(f32_to_f16(v));
        assert!(q > 0.0 && (q - v).abs() / v < 0.001, "{v} -> {q}");
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
            Codec::F16,
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
        for codec in [Codec::None, Codec::Bf16, Codec::F16, Codec::TopK { permille: 250 }] {
            assert_eq!(codec.encode(&values).len(), codec.frame_bytes(values.len()), "{codec}");
        }
        assert_eq!(Codec::TopK { permille: 250 }.frame_bytes(0), 8);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Codec::None.decode(&[0; 5]).is_err());
        assert!(Codec::Bf16.decode(&[0; 3]).is_err());
        assert!(Codec::F16.decode(&[0; 1]).is_err());
        let topk = Codec::TopK { permille: 100 };
        assert!(topk.decode(&[0; 4]).is_err(), "truncated header");
        let mut bad = topk.encode(&[1.0, 2.0, 3.0]);
        bad[8] = 200; // index beyond dense_len
        assert!(topk.decode(&bad).is_err(), "out-of-range index");
        bad.pop();
        assert!(topk.decode(&bad).is_err(), "length mismatch");
    }

    #[test]
    fn parse_and_display_round_trip() {
        for (s, want) in [
            ("none", Codec::None),
            ("off", Codec::None),
            ("BF16", Codec::Bf16),
            ("f16", Codec::F16),
            ("fp16", Codec::F16),
            (" half ", Codec::F16),
            ("topk:100", Codec::TopK { permille: 100 }),
            ("topk:1000", Codec::TopK { permille: 1000 }),
        ] {
            assert_eq!(s.parse::<Codec>().unwrap(), want, "{s}");
        }
        for codec in [Codec::None, Codec::Bf16, Codec::F16, Codec::TopK { permille: 37 }] {
            assert_eq!(codec.to_string().parse::<Codec>().unwrap(), codec);
        }
    }

    #[test]
    fn parse_error_lists_valid_values() {
        for bad in ["gzip", "topk", "topk:0", "topk:1001", "topk:abc", ""] {
            let err = bad.parse::<Codec>().unwrap_err().to_string();
            for needle in ["`none`", "`bf16`", "`f16`", "`topk:PERMILLE`"] {
                assert!(err.contains(needle), "error for {bad:?} must list {needle}: {err}");
            }
        }
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
        for codec in [Codec::Bf16, Codec::F16, Codec::TopK { permille: 100 }] {
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
        for codec in [Codec::None, Codec::Bf16, Codec::F16, topk] {
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
