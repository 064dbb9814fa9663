//! # regmutex-cli
//!
//! Command-line driver for the RegMutex reproduction. The library half holds
//! the argument grammar and the command implementations so they can be unit
//! tested; `main.rs` is a thin shell.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{parse, Command};
