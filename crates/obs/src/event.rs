//! The event vocabulary.
//!
//! One variant per `FrontendMetrics` counter bump, plus
//! observability-only variants (lookup outcomes, fill shapes, array
//! occupancy) that carry detail the aggregate counters cannot express.
//! Events are small `Copy` values so the hot emit path never
//! allocates.

/// What kind of cycle just closed.
///
/// Every `Frontend::step` emits exactly one [`Event::Cycle`] as its
/// *last* event; all events since the previous `Cycle` belong to the
/// cycle it closes. The three kinds partition total cycles:
/// `cycles == build_cycles + delivery_cycles + stall_cycles`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleKind {
    /// A build-mode cycle: the IC + BTB + decoder pipeline advanced.
    Build,
    /// A delivery-mode cycle: uops drained from the cached structure.
    Delivery,
    /// A stall cycle: a miss or mispredict penalty burned, or a mode
    /// switch consumed the slot.
    Stall,
}

/// Where a fetch group's uops came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UopSource {
    /// Delivered from the cached structure (uop cache / TC / BBTC / XBC).
    Structure,
    /// Decoded on the build path (instruction cache + decoder).
    Ic,
}

/// Which way a branch prediction failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MispredictKind {
    /// Conditional direction mispredict.
    Cond,
    /// Target mispredict (indirect, return, or a stale/merged pointer).
    Target,
}

/// Why delivery mode gave up and switched back to build mode.
///
/// Exactly one cause accompanies every delivery→build switch, so the
/// per-cause counters sum to `delivery_to_build` (the d2b-cause
/// partition, one of the identities `FrontendMetrics::check_identities`
/// defines and a checked `Replay` asserts after every step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum D2bCause {
    /// XBTB lookup missed while resolving the next-XB pointer.
    XbtbMiss,
    /// No successor pointer was available (cold entry or unresolved end).
    NoPointer,
    /// The successor pointer was stale: it named uops the array no
    /// longer holds in that shape.
    StalePointer,
    /// The XBC array itself missed (or the fetch budget was exhausted
    /// with nothing accepted).
    ArrayMiss,
    /// A return mispredict with no cached recovery path.
    Return,
    /// An indirect-branch mispredict with no cached recovery path.
    Indirect,
    /// The fetched (merged) XB diverged from the committed path
    /// mid-block — a misfetch, not a structure miss.
    Misfetch,
    /// A non-XBC structure miss (uop cache / TC / BBTC lookup failed).
    StructureMiss,
}

/// Which pointer structure a lookup probed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupKind {
    /// The XB target buffer (per-XB successor pointers).
    Xbtb,
    /// The indirect-target XBTB.
    Xibtb,
    /// The return-stack buffer of XB pointers.
    Xrsb,
}

/// How the fill unit's completed XB landed in the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillKind {
    /// A brand-new XB; fresh lines were allocated.
    Fresh,
    /// Fully contained in an existing XB; no storage written.
    Contained,
    /// Extended an existing XB in place.
    Extended,
    /// Stored as an additional "complex" copy next to a same-tag XB.
    Complex,
}

/// One cycle-level trace event.
///
/// The first group of variants mirrors `FrontendMetrics` bit-for-bit
/// (see `FrontendMetrics::apply_event`); the second group
/// (`Lookup` / `Fill` / `Eviction` / `Occupancy`) is observability
/// detail with no aggregate-counter effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A cycle closed. Always the last event a step emits.
    Cycle(CycleKind),
    /// `n` uops were handed to the renamer this cycle.
    Uops {
        /// Supply path the uops came from.
        src: UopSource,
        /// Uop count (bounded by the renamer width).
        n: u16,
    },
    /// A branch mispredicted and the penalty was charged.
    Mispredict(MispredictKind),
    /// Delivery mode switched back to build mode.
    SwitchToBuild(D2bCause),
    /// Build mode switched (back) to delivery mode.
    SwitchToDelivery,
    /// The cached structure missed on its leading lookup.
    StructureMiss,
    /// An XBC bank conflict deferred part of the fetch group.
    BankConflict {
        /// Uops pushed into the next fetch cycle.
        deferred: u16,
    },
    /// A set search for an alternative XB copy ran (XBC repair path).
    SetSearch {
        /// Whether a usable copy was found.
        hit: bool,
    },
    /// An XB was promoted to merge-eligible.
    Promotion,
    /// A promoted XB was demoted (its merges were discarded).
    Depromotion,
    /// A pointer-structure lookup resolved. Observability only.
    Lookup {
        /// Which structure was probed.
        what: LookupKind,
        /// Whether it produced a usable entry.
        hit: bool,
    },
    /// The fill unit installed a completed XB. Observability only.
    Fill {
        /// How the install landed in the array.
        kind: FillKind,
        /// Uop length of the completed XB.
        uops: u16,
        /// Bank mask bits the stored XB occupies.
        banks: u8,
    },
    /// An install evicted valid lines. Observability only.
    Eviction {
        /// Number of lines evicted by this install.
        lines: u16,
    },
    /// Array occupancy snapshot after an install. Observability only.
    Occupancy {
        /// Valid lines in the array.
        lines: u32,
        /// Stored uops in the array.
        uops: u32,
    },
}

/// Narrows a count to an event's `u16` payload field.
///
/// Event counts come from `usize` arithmetic (delivered uops, deferred
/// uops, evicted lines); a plain `as u16` cast would silently wrap on
/// configurations wider than 65535 (e.g. a pathological fuzz config's
/// renamer width) and corrupt every downstream counter. Overflow is a
/// config bug, so debug builds assert; release builds saturate, which
/// at worst under-counts instead of wrapping to a small value.
#[inline]
pub fn saturate_u16(n: usize) -> u16 {
    debug_assert!(n <= u16::MAX as usize, "event count {n} exceeds the u16 payload");
    n.try_into().unwrap_or(u16::MAX)
}

impl Event {
    /// Whether this event affects `FrontendMetrics` when folded
    /// (`false` for the observability-only variants).
    pub fn is_metric(&self) -> bool {
        !matches!(
            self,
            Event::Lookup { .. }
                | Event::Fill { .. }
                | Event::Eviction { .. }
                | Event::Occupancy { .. }
        )
    }
}
