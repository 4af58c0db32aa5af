//! # queueing — closed queueing-network substrate
//!
//! Everything the MapReduce performance model needs from queueing theory:
//!
//! * [`network`]: closed multi-class network definitions, the Seidmann
//!   multi-server expansion, and solution containers;
//! * [`mva`]: exact Reiser–Lavenberg MVA, Bard–Schweitzer approximate MVA,
//!   and the overlap-factor-adjusted variant the paper builds on (Mak &
//!   Lundstrom);
//! * [`distribution`]: the Erlang/hyperexponential (phase-type) algebra
//!   behind the Tripathi-based estimator — exact moments for sums, minima
//!   and maxima of independent phase-type variables, with per-node
//!   re-fitting by coefficient of variation;
//! * [`forkjoin`]: the harmonic numbers behind the Varki fork/join
//!   approximation;
//! * [`open`]: the open (Poisson-arrival) counterpart — exact
//!   product-form utilizations and response times over the same
//!   station/demand definitions, with analytic saturation detection.
//!
//! Two test oracles live beside them, compiled only into this crate's
//! unit tests: `bounds` (asymptotic and balanced-system bounds on any
//! closed-network solution) and `markov` (a small CTMC solver, the
//! ground truth for exact MVA on networks tiny enough to enumerate).

#[cfg(test)]
mod bounds;
pub mod distribution;
pub mod forkjoin;
#[cfg(test)]
mod markov;
pub mod mva;
pub mod network;
pub mod open;

pub use distribution::ExpPoly;
pub use forkjoin::harmonic;
pub use mva::{approximate_mva, exact_mva, overlap_mva, OverlapMva, EPSILON, MAX_ITER};
pub use network::{ClosedNetwork, MvaSolution, Station, StationKind};
pub use open::{solve_open, OpenSolution};
