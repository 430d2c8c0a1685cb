//! # nvmecr-bench — the reproduction harness
//!
//! One computation function per paper figure/table (in [`figures`]), each
//! returning a [`report::FigureReport`] that prints as an aligned text
//! table. The `src/bin/` binaries are thin wrappers (`fig1`, `fig7a` ...
//! `table2`), and `reproduce_all` runs everything — its output is the
//! source for EXPERIMENTS.md.
//!
//! Criterion microbenchmarks of the *functional* code (B+Tree, block pool,
//! WAL coalescing, microfs op paths) live in `benches/`.

#![forbid(unsafe_code)]

pub mod doctor;
pub mod figures;
pub mod report;
pub mod scenario;
pub mod stamp;

pub use report::{FigureReport, Series, TableReport};
