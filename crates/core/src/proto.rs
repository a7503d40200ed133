//! One protocol instance of either flavor behind one surface: what every
//! driver — the synchronous [`Cluster`](crate::Cluster) and the timed fabric
//! in `tmk-machines` — holds per node.

use crate::{
    BarrierId, Config, Envelope, Handled, IvyNode, LockId, Node, NodeId, NodeStats, PageId,
    SharedAddr, Start,
};

/// Which page-based DSM protocol a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DsmProtocol {
    /// TreadMarks lazy release consistency (the paper's protocol).
    #[default]
    Lrc,
    /// IVY-style sequential consistency (Li & Hudak): the single-writer
    /// write-invalidate baseline, for the LRC-vs-SC ablation.
    Ivy,
}

/// One protocol instance, either flavor.
#[derive(Debug)]
pub enum ProtoNode {
    /// A TreadMarks node.
    Lrc(Node),
    /// An IVY node.
    Ivy(IvyNode),
}

/// Defines each listed method as a call of the method of the same name on
/// whichever node `self` holds (the `&mut self` ones after `mut:`).
macro_rules! forward {
    (@call $node:ident.$method:ident($($arg:ident),*)) => {
        match $node {
            ProtoNode::Lrc(n) => n.$method($($arg),*),
            ProtoNode::Ivy(n) => n.$method($($arg),*),
        }
    };
    ($(fn $name:ident(&self $(, $a:ident: $t:ty)*) -> $ret:ty;)*
     mut: $(fn $mname:ident(&mut self $(, $ma:ident: $mt:ty)*) $(-> $mret:ty)?;)*) => {
        $(pub fn $name(&self $(, $a: $t)*) -> $ret {
            forward!(@call self.$name($($a),*))
        })*
        $(pub fn $mname(&mut self $(, $ma: $mt)*) $(-> $mret)? {
            forward!(@call self.$mname($($ma),*))
        })*
    };
}

impl ProtoNode {
    /// Node `id` of a `protocol` cluster described by `cfg`.
    pub fn new(protocol: DsmProtocol, id: NodeId, cfg: Config) -> ProtoNode {
        match protocol {
            DsmProtocol::Lrc => ProtoNode::Lrc(Node::new(id, cfg)),
            DsmProtocol::Ivy => ProtoNode::Ivy(IvyNode::new(id, cfg)),
        }
    }

    /// The TreadMarks node, for LRC-only inspection (vector time, cached
    /// diffs, snapshots). Panics on an IVY node.
    pub fn lrc(&self) -> &Node {
        match self {
            ProtoNode::Lrc(n) => n,
            ProtoNode::Ivy(_) => panic!("LRC-only inspection of an IVY node"),
        }
    }

    // The one statement of the protocol-node surface the drivers use.
    forward! {
        fn config(&self) -> &Config;
        fn stats(&self) -> &NodeStats;
        fn holds(&self, lock: LockId) -> bool;
        fn next_fault(&self, addr: SharedAddr, len: usize, write: bool) -> Option<PageId>;
        fn page_valid(&self, page: PageId) -> bool;
        fn fetch_in_flight(&self, page: PageId) -> bool;
        fn page_writable(&self, page: PageId) -> bool;
        fn pages_resident(&self) -> u64;
        fn forgotten_tokens(&self, crashed: bool) -> u64;
        fn sync_debug(&self) -> String;
        mut:
        fn fault(&mut self, page: PageId, write: bool) -> Start;
        fn acquire(&mut self, lock: LockId) -> Start;
        fn release(&mut self, lock: LockId) -> Vec<Envelope>;
        fn barrier_arrive(&mut self, barrier: BarrierId) -> Start;
        fn handle(&mut self, env: Envelope) -> Handled;
        fn read_into(&mut self, addr: SharedAddr, buf: &mut [u8]);
        fn write_from(&mut self, addr: SharedAddr, bytes: &[u8]);
        fn master_write(&mut self, addr: SharedAddr, bytes: &[u8]);
    }
}
