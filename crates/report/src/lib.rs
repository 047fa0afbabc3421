//! # swim-report
//!
//! The reporting layer of the `swim` workspace: a typed document model,
//! three renderers, and the parallel cross-trace comparison pipeline that
//! is the paper's actual deliverable — the same analysis battery run over
//! N workloads side by side (the VLDB'12 study is a *cross-industry
//! comparison*, not any single figure).
//!
//! Three layers:
//!
//! 1. **Document model** ([`doc`]) — [`Report`] → [`Section`] →
//!    [`Block`]`::{Table, Sparkline, Prose, KeyValue}`. Experiments build
//!    block trees instead of pushing strings.
//! 2. **Renderers** — [`Section::render_text`] reproduces the historical
//!    terminal format byte for byte (golden-pinned in `swim-bench`);
//!    [`markdown`] and [`html`] render the same tree for documents.
//! 3. **Comparison pipeline** ([`battery`], [`compare`]) — load N traces
//!    (CSV, JSON-lines, or `swim-store`), run every figure/table
//!    experiment per trace in parallel (workers claim trace × experiment
//!    cells through [`swim_obs::par::map`], so results are deterministic
//!    and bit-identical to serial runs), and emit one trace×metric
//!    comparison table per experiment with per-trace sparklines.
//!
//! The `swim-report` binary is the CLI:
//!
//! ```text
//! swim-report --traces a.swim b.csv c.jsonl --out report.md --format md
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod battery;
pub mod compare;
pub mod doc;
pub mod html;
pub mod markdown;
pub mod render;

pub use battery::{
    CompareExperiment, ExperimentResult, Metric, Series, TraceContext, Value, BATTERY,
};
pub use compare::Comparison;
pub use doc::{Block, KeyValueBlock, Report, Section, SparklineBlock, TableBlock};
pub use render::{bytes, pct, ratio, sparkline, Table};
