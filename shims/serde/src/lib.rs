//! Offline stand-in for `serde`.
//!
//! The build environment for this repository cannot reach crates.io, so this
//! workspace-local crate keeps the `#[derive(Serialize, Deserialize)]`
//! annotations across the codebase compiling. The traits are markers: nothing
//! in the workspace serializes through serde (CSV/markdown rendering is
//! hand-written in `ciflow_bench::report`). Replacing this shim with the real
//! serde only requires editing `[workspace.dependencies]` in the root
//! manifest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize {}
