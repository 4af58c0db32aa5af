//! # simcore — discrete-event simulation engine
//!
//! The substrate beneath the Hadoop 2.x cluster simulator: simulated time
//! ([`SimTime`]), a deterministic event calendar ([`EventQueue`]) and loop
//! driver ([`Engine`]), the fair-share resource model ([`FairShare`]),
//! two-moment random variates ([`Rv`]) and online statistics
//! ([`Welford`], [`Samples`]).
//!
//! Design rules:
//! * deterministic given a seed — ties in the calendar break FIFO;
//! * resources are passive state machines driven by the owner's event loop
//!   (generation counters invalidate stale completion ticks);
//! * everything is measured in seconds and bytes.

pub mod engine;
pub mod event;
pub mod random;
pub mod resource;
pub mod stats;
pub mod time;

pub use engine::Engine;
pub use event::EventQueue;
pub use random::Rv;
pub use resource::FairShare;
pub use stats::{Samples, Welford};
pub use time::SimTime;
