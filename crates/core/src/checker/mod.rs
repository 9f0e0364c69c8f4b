//! Consistency checkers.
//!
//! Two jobs:
//!
//! * **Witness checkers** (batch / sharded / streaming) validate a
//!   serialization witness the protocol implementations emit (commit
//!   timestamps / carstamps) against a model's constraints in near-linear
//!   time, which lets the integration tests verify histories with tens of
//!   thousands of operations: [`certificate`] holds the batch checker
//!   ([`check_witness`]) and its `Shard` fan-out
//!   ([`check_witness_parallel`]); [`window`] holds the streaming checker
//!   that certifies a still-growing run with memory bounded by window size.
//! * **Exact search** = plain search → saturation fallback: [`search`] +
//!   [`models`] decide whether a (small) history satisfies a consistency
//!   model by looking for a legal sequence. The plain backtracking search
//!   runs under a fixed step budget; only when it runs out does the
//!   complete saturated search of [`saturate`](mod@saturate) take over (a
//!   saturation cycle refutes without search). Used for the Table 1 /
//!   Appendix A comparisons and for property tests of the definitions.
//!
//! Around them: [`proximal`] checks the neighbouring consistency models of
//! Appendix A (CRDB, strong snapshot isolation, OSC(U), VV-regularity,
//! real-time causal, and the Shao et al. multi-writer regularity family)
//! through the same exact search; [`assemble`] builds witnesses from order
//! edges; and [`decompose`] computes a history's communication components,
//! which the sweep and the benchmarks report.

pub mod assemble;
pub mod certificate;
pub mod decompose;
pub mod models;
pub mod proximal;
pub mod saturate;
pub mod search;
pub mod window;

pub use assemble::{assemble_witness, AssembleError};
pub use certificate::{check_witness, check_witness_parallel, WitnessModel, WitnessViolation};
pub use decompose::ComponentSplit;
pub use models::{check, CheckOutcome, Model};
pub use saturate::{find_sequence_saturated, saturate, Saturation};
pub use search::{
    find_sequence, find_sequence_reference, find_sequence_with, ConstraintGraph, Constraints,
};
pub use window::{StreamingChecker, WindowBuffer};
