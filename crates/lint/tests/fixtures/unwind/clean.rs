//! R6 clean fixture: failures travel as values, no panic boundary at all.
//! Importing `catch_unwind` is harmless; the rule polices call sites.
use std::panic::{
    catch_unwind, AssertUnwindSafe,
};
pub use std::panic::catch_unwind as cu;

pub fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    f()
}
