#![warn(missing_docs)]

//! The repo's performance benchmark: four workloads against the stack
//! the server actually runs, measured end to end from outside and, in a
//! separate traced run, layer by layer. See `benchmark/README.md`.

pub mod compare;
pub mod handle;
pub mod ladder;
pub mod loads;
pub mod measure;
pub mod report;
pub mod run;
pub mod session;
pub mod stack;
pub mod timed;
pub mod workloads;
