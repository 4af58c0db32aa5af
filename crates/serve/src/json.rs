//! Minimal hand-rolled JSON for the service's request/response types.
//!
//! The implementation lives in [`mr2_scenario::json`] — the scenario
//! engine's trace ingestion parses JSON-lines job histories with the
//! same parser — and is re-exported here so the service's modules (and
//! external users of `mr2_serve::json`) keep their paths.

pub use mr2_scenario::json::{write_object, ArrayWriter, Json, JsonError, ObjectWriter};
