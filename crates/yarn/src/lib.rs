//! # yarn-sim — YARN substrate simulator
//!
//! The resource-management layer of Hadoop 2.x, as described in §3 of the
//! paper: a global [`ResourceManager`] arbitrating cluster capacity, per-
//! node bookkeeping ([`node::NodeState`]), the AM↔RM
//! [`request::ResourceRequest`] protocol with priorities and locality
//! (paper Table 1), container lifecycles, and one scheduling pass,
//! [`scheduler::assign`], under two policies: the Capacity scheduler with
//! a single root queue, which serves applications in FIFO order (the
//! Hadoop default and the configuration the paper's model assumes), and
//! max–min fair sharing.
//!
//! The crate is deliberately *time-free*: it is a deterministic state
//! machine driven by `mapreduce-sim`'s event loop, which makes every
//! scheduling rule unit-testable in isolation.

pub mod container;
pub mod node;
pub mod request;
pub mod resources;
pub mod rm;
pub mod scheduler;

pub use container::{Container, ContainerId, ContainerState};
pub use node::{ClusterState, NodeState};
pub use request::{render_table1, AskTable, Location, MatchLevel, Priority, ResourceRequest};
pub use resources::ResourceVector;
pub use rm::{AppId, ResourceManager};
pub use scheduler::SchedulerPolicy;
