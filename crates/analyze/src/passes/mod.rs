//! The semantic passes. Each exposes `run(..) -> Vec<Finding>` and is
//! pure over parsed [`crate::parse::SourceFile`]s.

pub mod deadline;
pub mod lock_order;
pub mod nonblocking;
pub mod panic_hygiene;
pub mod raw_sync;
pub mod raw_thread;
pub mod unsafe_confinement;
