//! Typed identifiers for nodes and edges.
//!
//! The scheduling algorithms juggle several index spaces at once (disks,
//! transfer edges, split copies, flow-network vertices). Newtyped ids keep
//! those spaces from being confused at compile time (C-NEWTYPE).

use core::fmt;

/// Identifier of a node (disk) in a [`crate::Multigraph`].
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`.
///
/// # Example
///
/// ```
/// use dmig_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an edge (data item to migrate) in a [`crate::Multigraph`].
///
/// Edge ids are dense and stable: they are assigned in insertion order and
/// never reused, so an `EdgeId` can safely identify a data item across the
/// whole planning pipeline (padding, orientation, coloring, scheduling).
///
/// # Example
///
/// ```
/// use dmig_graph::EdgeId;
/// let e = EdgeId::new(7);
/// assert_eq!(e.index(), 7);
/// assert_eq!(format!("{e}"), "e7");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }

    /// Returns the dense index of this edge.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for EdgeId {
    #[inline]
    fn from(index: usize) -> Self {
        EdgeId::new(index)
    }
}

impl From<EdgeId> for usize {
    #[inline]
    fn from(id: EdgeId) -> Self {
        id.index()
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(usize::from(v), 42);
        assert_eq!(NodeId::from(42usize), v);
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::new(11);
        assert_eq!(e.index(), 11);
        assert_eq!(usize::from(e), 11);
        assert_eq!(EdgeId::from(11usize), e);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::new(0).to_string(), "v0");
        assert_eq!(EdgeId::new(9).to_string(), "e9");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(3) > EdgeId::new(2));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn node_id_overflow_panics() {
        let _ = NodeId::new(usize::MAX);
    }
}
