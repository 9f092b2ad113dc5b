//! Compositional Markov models for the `mdlump` workspace.
//!
//! This crate is the stand-in for the Möbius modeling environment the paper
//! used (see `DESIGN.md` §3 for the substitution argument). It provides:
//!
//! * [`ComposedModel`] — a small event-synchronized
//!   compositional formalism: one component per MD level, events with a
//!   rate and one sparse factor per touched level. The composed
//!   state-transition rate matrix is `R = Σ_e λ_e ⊗_i W_i^e`, generated as
//!   a matrix diagram; the reachable state space is computed symbolically
//!   as an MDD image fixpoint (`mdl_mdd::Mdd::reachable`, the role of the
//!   paper's symbolic state-space generator);
//! * [`tandem`] — the paper's Section 5 evaluation model: a closed tandem
//!   multi-processor system with a 3-server/4-queue MSMQ polling subsystem
//!   and an 8-node hypercube subsystem with dispatching, load balancing,
//!   failures and repair;
//! * [`ftmp`] — a fault-tolerant multiprocessor dependability model with
//!   two redundant banks (processors, memories) and a recovery controller;
//! * [`multi_bank`] — a deep-MD stress model (`G + 1` levels) with both
//!   within-level and cross-level symmetries, probing exactly what
//!   level-local lumping can and cannot exploit;
//! * [`shared_repair`] — a machine-repair showcase model whose
//!   within-level symmetry makes compositional lumping collapse `2^M`
//!   failure configurations to `M + 1` counts;
//! * [`random`] — random Kronecker models with *planted* per-level
//!   symmetries, used by the property-based tests and benches to check
//!   that the lumping algorithm recovers (at least) the planted partition;
//! * [`sim`] — a discrete-event Monte Carlo simulator over the same model
//!   semantics, as an independent cross-check of the numerical stack.
//!
//! # Example
//!
//! ```
//! use mdl_models::tandem::{TandemConfig, TandemModel};
//!
//! let model = TandemModel::new(TandemConfig { jobs: 1, ..TandemConfig::default() });
//! let mrp = model.build_md_mrp()?;
//! assert!(mrp.num_states() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ftmp;
pub mod model;
pub mod multi_bank;
pub mod random;
pub mod shared_repair;
pub mod sim;
pub mod tandem;

pub use model::{Component, ComposedModel, Event, ModelError};
