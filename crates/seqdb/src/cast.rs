//! Checked integer conversions for CSR offset/length math.
//!
//! The columnar stores keep CSR offsets as `u32` and snapshot section
//! counts/byte lengths as `u64`, while slicing happens in `usize`. A bare
//! `as` cast between those widths silently truncates on narrow targets, so
//! every conversion in offset/length math goes through the helpers below:
//! widening conversions are provably lossless (backed by compile-time
//! width asserts), narrowing ones return `Option` and force the caller to
//! surface a [`SnapshotError`](crate::snapshot::SnapshotError) or assert an
//! invariant instead of wrapping. The CSR modules deny every `as` cast
//! (`clippy::as_conversions`) in favour of these.

// Every supported target has 32-bit-or-wider pointers (the snapshot layer
// additionally requires 64-bit; see `snapshot::mapping`), so `u32 -> usize`
// cannot truncate, and no target has pointers wider than 64 bits, so
// `usize -> u64` cannot truncate either.
const _: () = assert!(std::mem::size_of::<usize>() >= 4);
const _: () = assert!(std::mem::size_of::<usize>() <= 8);

/// Widens a `u32` CSR offset to a `usize` index. Lossless on every
/// supported target (compile-time asserted above).
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "const-asserted: usize >= 32 bits"
)]
pub fn u32_to_usize(v: u32) -> usize {
    v as usize
}

/// Widens a `usize` length to a `u64` section count. Lossless on every
/// supported target (compile-time asserted above).
#[inline]
#[must_use]
pub fn usize_to_u64(v: usize) -> u64 {
    v as u64
}

/// Narrows a `u64` section count or byte length to a `usize` index.
///
/// Returns `None` when the value does not fit — possible only on 32-bit
/// targets, where a >4 GiB snapshot section is unaddressable and must be
/// reported as corrupt/unsupported rather than silently wrapped.
#[inline]
#[must_use]
pub fn u64_to_usize(v: u64) -> Option<usize> {
    usize::try_from(v).ok()
}

/// Narrows a `usize` length to a `u32` CSR offset.
///
/// Returns `None` when the value exceeds `u32::MAX` — the store's
/// documented capacity ceiling (~4.29 billion events).
#[inline]
#[must_use]
pub fn usize_to_u32(v: usize) -> Option<u32> {
    u32::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_lossless() {
        assert_eq!(u32_to_usize(u32::MAX), u32::MAX as usize);
        assert_eq!(usize_to_u64(7), 7);
    }

    #[test]
    fn narrowing_detects_overflow() {
        assert_eq!(usize_to_u32(42), Some(42));
        assert_eq!(u64_to_usize(9), Some(9));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            usize_to_u32(usize::try_from(u64::from(u32::MAX)).unwrap() + 1),
            None
        );
    }
}
