//! # jarvis-stdkit
//!
//! The zero-dependency foundation of the Jarvis workspace. Every other crate
//! builds on the modules here instead of pulling registry dependencies,
//! so `cargo build --release && cargo test -q` completes with no network and
//! no vendored registry:
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rng`] | `rand`, `rand_chacha` | ChaCha8, xoshiro256++, SplitMix64; `Rng`/`SeedableRng`/`SliceRandom` traits, Gaussian sampling |
//! | [`json`] | `serde`, `serde_json` | `Json` tree, strict parser, `ToJson`/`FromJson`, `json_struct!`/`json_newtype!`/`json_enum!` derives |
//! | [`propcheck`] | `proptest` | seeded property harness, choice-tape shrinking, `prop_assert*!` macros |
//! | [`bench`] | `criterion` | warmup+sampling micro-bench runner, `bench_group!`/`bench_main!` |
//! | [`pool`] | `rayon` (scoped pools) | scoped fork/join over `std::thread::scope`: caller participation, atomic task claiming, lowest-index panic re-raise |
//! | [`alloc`] | allocation-counting test allocators | `CountingAlloc`, a per-thread counting `GlobalAlloc` over `System` for allocation-budget tests |
//!
//! Everything is deterministic by construction: generators are seeded,
//! property cases derive from a fixed base seed, and JSON output has a
//! canonical field order — the bedrock for the reproducibility claims the
//! paper reproduction makes (identical episode traces, weights, and
//! Q-tables from identical seeds).

pub mod alloc;
pub mod bench;
pub mod json;
pub mod pool;
pub mod propcheck;
pub mod rng;
