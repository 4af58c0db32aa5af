//! # simcore — discrete-event simulation engine
//!
//! The substrate beneath the Hadoop 2.x cluster simulator, carrying only
//! what that simulator runs: simulated time ([`SimTime`]), the event loop
//! ([`Engine`]: a clock over a binary-heap calendar), the fair-share
//! resource model ([`FairShare`]), lognormal work jitter ([`LogNormal`])
//! and the statistics its profiles and repetition summaries use
//! ([`Welford`], [`median`]).
//!
//! Design rules:
//! * deterministic given a seed — ties in the calendar break FIFO;
//! * resources are passive state machines driven by the owner's event loop
//!   (generation counters invalidate stale completion ticks);
//! * everything is measured in seconds and bytes.

pub mod engine;
pub mod random;
pub mod resource;
pub mod stats;
pub mod time;

pub use engine::Engine;
pub use random::LogNormal;
pub use resource::FairShare;
pub use stats::{median, Welford};
pub use time::SimTime;
