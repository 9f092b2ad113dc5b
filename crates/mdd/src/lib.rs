//! Hash-consed multi-valued decision diagrams (MDDs).
//!
//! An MDD encodes a set of tuples `(s₁, …, s_L)` with `s_i ∈ {0, …, |S_i|−1}`
//! as a leveled DAG with shared subgraphs — the data structure symbolic
//! state-space generators produce for the *reachable* states of a
//! compositional Markov model. In this reproduction it plays the role of
//! Möbius's symbolic state space:
//!
//! * matrix-diagram × vector products (`mdl-md`) index iteration vectors
//!   over reachable states only, via the **offset labelling** every [`Mdd`]
//!   carries (the classical "indexing function" of Ciardo & Miner);
//! * the compositional lumping algorithm (`mdl-core`) quotients the MDD
//!   alongside the matrix diagram, so the lumped chain again has an
//!   MDD-indexed state space.
//!
//! MDDs here are immutable after construction and quasi-reduced (no two
//! equal nodes on a level), maintained by hash-consing during the
//! bottom-up build. Every constructor numbers nodes in one canonical
//! depth-first order, so equal sets give byte-identical MDDs.
//!
//! [`Mdd::reachable`] computes the reachable set of an event-synchronized
//! model symbolically: each event is a list of per-level
//! [`LocalRelation`]s, and a chained breadth-first image fixpoint over the
//! hash-consed nodes replaces explicit state enumeration.
//!
//! # Example
//!
//! ```
//! use mdl_mdd::Mdd;
//!
//! // Tuples over S₁ × S₂ with |S₁| = 2, |S₂| = 3.
//! let mdd = Mdd::from_tuples(vec![2, 3], vec![
//!     vec![0, 0], vec![0, 2], vec![1, 0], vec![1, 2],
//! ]).unwrap();
//! assert_eq!(mdd.count(), 4);
//! assert!(mdd.contains(&[0, 2]));
//! assert!(!mdd.contains(&[1, 1]));
//! // Lexicographic indexing of reachable tuples:
//! assert_eq!(mdd.index_of(&[1, 0]), Some(2));
//! assert_eq!(mdd.tuple_at(3), vec![1, 2]);
//! // The two identical rows share one node at level 2:
//! assert_eq!(mdd.nodes_per_level(), vec![1, 1]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod mdd;
mod ops;
mod quotient;
mod reach;

pub use mdd::{Mdd, MddError, MddNodeId, MddNodeRef};
pub use quotient::QuotientError;
pub use reach::LocalRelation;
