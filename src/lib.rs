//! # allpairs-overlay
//!
//! Facade crate for the reproduction of *Scaling All-Pairs Overlay Routing*
//! (Sontag et al., CoNEXT 2009). Re-exports the workspace crates:
//!
//! * [`quorum`] — grid-quorum construction (section 3)
//! * [`topology`] — synthetic Internet latency & failure models
//! * [`linkstate`] — link-state tables, probing state, wire codec (section 5)
//! * [`membership`] — decentralized SWIM gossip membership (beyond the
//!   paper: replaces the centralized coordinator)
//! * [`netsim`] — deterministic discrete-event network simulator
//! * [`routing`] — sans-io routing protocol cores (sections 3–4)
//! * [`overlay`] — the RON-like overlay node with its two drivers, the
//!   simulator's and the real-clock UDP one (section 5)
//! * [`analysis`] — metrics, CDFs, and the experiment toolkit (section 6)

#![forbid(unsafe_code)]

pub use apor_analysis as analysis;
pub use apor_linkstate as linkstate;
pub use apor_membership as membership;
pub use apor_netsim as netsim;
pub use apor_overlay as overlay;
pub use apor_quorum as quorum;
pub use apor_routing as routing;
pub use apor_topology as topology;
