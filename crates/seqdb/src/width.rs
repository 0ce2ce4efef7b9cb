//! Event-column element widths: the u16/u32 axis of the storage layer.
//!
//! The paper's workloads live on small alphabets (Gazelle ~1.4k items,
//! TCAS ~80 events), so the flat event arena of a
//! [`SeqStore`](crate::SeqStore) rarely needs all 32 bits of an
//! [`EventId`]. This module defines the [`EventWidth`] trait — the two
//! physical element types an event column may use — so storage code can be
//! written once, monomorphized per width, and always compare events at
//! their *native* width (no per-element widening inside scans).
//!
//! Only the **store's event column** narrows. CSR offsets and the inverted
//! index's posting rows stay `u32`: positions index into sequences (not the
//! alphabet) and the growth kernel consumes them as `&[u32]` regardless of
//! how the arena is stored.

// Offsets and lengths convert through `crate::cast` or `TryFrom`: an `as`
// cast can truncate or wrap without a trace.
#![warn(clippy::as_conversions)]

use crate::catalog::EventId;

/// Largest event id a narrow (`u16`) column can hold: `u16::MAX`.
pub const NARROW_MAX_EVENT: u32 = 65_535;

/// A physical element type for the event column: narrow `u16` or wide
/// `u32` (via the transparent [`EventId`] newtype).
///
/// The trait is deliberately tiny — a width tag plus lossless conversions
/// to and from [`EventId`] — so generic column code monomorphizes into the
/// same machine loops a hand-written `&[u16]` / `&[u32]` version would get.
pub trait EventWidth: Copy + Eq + Ord + Send + Sync + std::fmt::Debug + 'static {
    /// Size of one element in bytes (2 or 4).
    const BYTES: usize;
    /// Human-readable width name, as printed by `rgs-mine stats` and
    /// `snapshot info` ("u16" / "u32").
    const NAME: &'static str;

    /// Widens this element to the logical [`EventId`]. Always lossless.
    fn to_event(self) -> EventId;

    /// Narrows an [`EventId`] to this width, or `None` when it does not
    /// fit (only possible for `u16`).
    fn from_event(event: EventId) -> Option<Self>;
}

impl EventWidth for u16 {
    const BYTES: usize = 2;
    const NAME: &'static str = "u16";

    #[inline]
    fn to_event(self) -> EventId {
        EventId(u32::from(self))
    }

    #[inline]
    fn from_event(event: EventId) -> Option<Self> {
        u16::try_from(event.0).ok()
    }
}

impl EventWidth for EventId {
    const BYTES: usize = 4;
    const NAME: &'static str = "u32";

    #[inline]
    fn to_event(self) -> EventId {
        self
    }

    #[inline]
    fn from_event(event: EventId) -> Option<Self> {
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_round_trips_within_range() {
        assert_eq!(u16::from_event(EventId(0)), Some(0u16));
        assert_eq!(u16::from_event(EventId(65_535)), Some(u16::MAX));
        assert_eq!(u16::from_event(EventId(65_536)), None);
        assert_eq!(7u16.to_event(), EventId(7));
    }

    #[test]
    fn wide_conversions_are_identity() {
        let e = EventId(u32::MAX);
        assert_eq!(EventId::from_event(e), Some(e));
        assert_eq!(e.to_event(), e);
    }

    #[test]
    fn width_constants() {
        assert_eq!(<u16 as EventWidth>::BYTES, 2);
        assert_eq!(<EventId as EventWidth>::BYTES, 4);
        assert_eq!(<u16 as EventWidth>::NAME, "u16");
        assert_eq!(<EventId as EventWidth>::NAME, "u32");
    }
}
