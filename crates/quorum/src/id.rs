//! Overlay node identifiers and view indices.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU16;

/// A compact overlay node identifier.
///
/// The paper's wire format (section 5, "Table Exchange") encodes node IDs
/// as 2-byte integers, which bounds the overlay at 65 536 nodes — far above
/// the "hundreds of nodes" the system targets and the 10 000-node Skype
/// scenario of section 2.
///
/// `NodeId` is the *stable identity* of a node across membership changes.
/// It is distinct from the node's *grid index*: the membership service
/// sorts the current member IDs and places them row-major into the grid, so
/// the same `NodeId` may occupy different grid cells as membership evolves.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The number of bytes a `NodeId` occupies on the wire.
    pub const WIRE_SIZE: usize = 2;

    /// Construct from a raw index, panicking if it exceeds the 16-bit space.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index <= u16::MAX as usize, "node index {index} exceeds u16");
        NodeId(index as u16)
    }

    /// The identifier as a `usize`, convenient for table indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u16 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// A node's index `0 … n − 1` in a view of `n` members: the grid
/// position the paper numbers members by, and a routing frame's 2-byte
/// node field. Checked when made ([`NodeIdx::new`], [`NodeIdx::from_wire`])
/// and trusted after; [`NodeIdx::get`] is the way back to a slice index.
/// Kept as `index + 1`, so `Option<NodeIdx>` is 2 bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(NonZeroU16);

impl NodeIdx {
    /// Index `i` of a view of `n` members; `None` unless `i < n ≤ u16::MAX`
    /// (a frame's `u16` width must be able to say `n`).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // i < n ≤ u16::MAX
    pub const fn new(i: usize, n: usize) -> Option<Self> {
        if i >= n || n > u16::MAX as usize {
            return None;
        }
        Some(NodeIdx(NonZeroU16::MIN.saturating_add(i as u16)))
    }

    /// [`new`](Self::new) on a frame's node field and width.
    #[must_use]
    pub const fn from_wire(i: u16, width: u16) -> Option<Self> {
        Self::new(i as usize, width as usize)
    }

    /// Every index of a view of `n` members, ascending (none when
    /// `n > u16::MAX`).
    pub fn all(n: usize) -> impl Iterator<Item = NodeIdx> + Clone {
        (0..n).map_while(move |i| Self::new(i, n))
    }

    /// The index as a slice index.
    #[must_use]
    pub const fn get(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl From<NodeIdx> for u16 {
    /// The index as a frame carries it.
    fn from(i: NodeIdx) -> Self {
        i.0.get() - 1
    }
}

impl From<NodeIdx> for NodeId {
    /// The index as an index-space id, as a router addresses a frame.
    fn from(i: NodeIdx) -> Self {
        NodeId(u16::from(i))
    }
}

impl fmt::Debug for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_idx_is_checked_against_the_view_and_the_wire() {
        assert_eq!(NodeIdx::new(3, 4).map(NodeIdx::get), Some(3));
        assert_eq!(NodeIdx::new(4, 4), None);
        assert_eq!(NodeIdx::new(0, 0), None);
        let max = usize::from(u16::MAX);
        let last = NodeIdx::new(max - 1, max).expect("the widest view's last index");
        assert_eq!((last.get(), u16::from(last)), (max - 1, u16::MAX - 1));
        assert_eq!(
            NodeIdx::new(0, max + 1),
            None,
            "a view past u16::MAX members"
        );
        assert_eq!(NodeIdx::new(usize::MAX, usize::MAX), None);
        assert_eq!(NodeIdx::from_wire(7, 8), NodeIdx::new(7, 8));
        assert_eq!(NodeIdx::from_wire(8, 8), None);
        assert_eq!(NodeIdx::from_wire(u16::MAX, u16::MAX), None);
    }

    #[test]
    fn node_idx_reads_as_its_index() {
        let i = NodeIdx::new(5, 9).unwrap();
        assert_eq!(format!("{i:?}"), "5");
        assert_eq!(NodeId::from(i), NodeId(5));
        assert!(NodeIdx::new(0, 9).unwrap() < i);
        assert_eq!(size_of::<Option<NodeIdx>>(), 2);
        let all: Vec<usize> = NodeIdx::all(4).map(NodeIdx::get).collect();
        assert_eq!(all, [0, 1, 2, 3]);
        assert_eq!(NodeIdx::all(usize::from(u16::MAX) + 1).count(), 0);
        assert_eq!(
            NodeIdx::all(usize::from(u16::MAX)).count(),
            usize::from(u16::MAX)
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }

    #[test]
    fn from_index_roundtrip() {
        let id = NodeId::from_index(512);
        assert_eq!(id.index(), 512);
        assert_eq!(u16::from(id), 512);
        assert_eq!(NodeId::from(512u16), id);
    }

    #[test]
    #[should_panic(expected = "exceeds u16")]
    fn from_index_overflow_panics() {
        let _ = NodeId::from_index(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(NodeId(3) < NodeId(4));
        assert_eq!(NodeId::default(), NodeId(0));
    }
}
