//! # hdfs-sim — HDFS substrate simulator
//!
//! Models the parts of HDFS that the MapReduce performance model and the
//! cluster simulator depend on: cluster [`Topology`] (nodes and racks),
//! replicated [`Block`]s, the [`Namespace`] of files, HDFS's
//! default replica [`placement`], and [`InputSplit`] generation (one split
//! per block, with replica hosts for locality-aware scheduling).

pub mod block;
pub mod namespace;
pub mod placement;
pub mod splits;
pub mod topology;

pub use block::{Block, BlockId};
pub use namespace::{DfsFile, Namespace};
pub use placement::place_replicas;
pub use splits::{split_count, splits_for_file, InputSplit};
pub use topology::{NodeId, RackId, Topology};
