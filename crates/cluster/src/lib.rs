//! # pal-cluster
//!
//! The GPU-cluster model underneath the PAL scheduler reproduction:
//!
//! - [`ClusterTopology`]: nodes × GPUs-per-node layout (TACC Frontera's GPU
//!   subsystem has 4 GPUs per node; the paper's simulations use 16-node /
//!   64-GPU and 64-node / 256-GPU configurations),
//! - [`LocalityModel`]: the two-level locality cost model of Section III-C.1
//!   (`L_within = 1.0` inside a node, `L_across` when an allocation spills
//!   across nodes),
//! - [`VariabilityProfile`]: per-class, per-GPU variability profiles
//!   (normalized iteration times — the PM penalties of Section IV-C),
//!   including the paper's sample-without-repetition construction from
//!   measured profiles,
//! - [`ClusterState`]: GPU occupancy tracking (free lists, allocate/release),
//!   with an [`OccupancyToken`] that tells whether a GPU was freed,
//! - [`ClusterView`]: the incrementally maintained free-GPU view placement
//!   policies borrow, plus the lazily built per-class score orderings
//!   and their walk cursors ([`ClassOrders`]),
//! - [`GpuId`], [`NodeId`] and [`JobClass`]: typed identifiers.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ids;
mod locality;
mod profile;
mod state;
mod topology;
mod view;

pub use ids::{GpuId, JobClass, NodeId};
pub use locality::LocalityModel;
pub use profile::VariabilityProfile;
pub use state::{ClusterState, OccupancyToken};
pub use topology::ClusterTopology;
pub use view::{ClassOrders, ClusterView, NodeFree, NodeFreeIter};
