//! Allocation budget of the serving decision path.
//!
//! This binary counts heap allocations per thread through
//! `jarvis_stdkit::alloc::CountingAlloc` and pins two properties of
//! deterministic (caller-thread) serving:
//!
//! - A query allocates nothing between its envelope and its decision: two
//!   query-only streams of `N` and `2N` queries, served from the same
//!   snapshot, differ in allocations by exactly the batched forward's
//!   per-batch constant times the extra batches. Everything else a serve
//!   call allocates (routing, the output vectors, the outcome merge) is a
//!   per-call constant.
//! - Rebuilding a home's valid-action mask after a sensor event moved its
//!   state makes no allocation, under every match mode.

use jarvis_repro::model::EnvAction;
use jarvis_repro::neural::Matrix;
use jarvis_repro::policy::{MatchMode, SafeTransitionTable};
use jarvis_repro::rl::policy::{mask_bits, mask_words};
use jarvis_repro::rl::{DqnAgent, DqnConfig};
use jarvis_repro::runtime::{Envelope, EventKind, RuntimeConfig, ServingRuntime};
use jarvis_repro::smart_home::SmartHome;
use jarvis_stdkit::alloc::{allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The batching window of the measured runtime.
const BATCH: usize = 64;

/// Allocations one batched f64 forward makes through the paper's
/// two-hidden-layer network (three dense layers): per layer, the GEMM
/// output, which the bias and activation then overwrite in place, and the
/// GEMM kernel's two packing buffers.
const FORWARD_ALLOCS: u64 = 9;

/// The evaluation home, a table that allows a few of its agent actions
/// from midnight and from the states they lead to, and a one-shard
/// deterministic runtime over them with a `BATCH`-query window.
fn runtime(mode: MatchMode) -> (ServingRuntime, SmartHome, SafeTransitionTable) {
    let home = SmartHome::evaluation_home();
    let mut table = SafeTransitionTable::new();
    let midnight = home.midnight_state();
    for (i, &mini) in home.agent_mini_actions().iter().enumerate().step_by(3) {
        let action = EnvAction::single(mini);
        table.allow(home.fsm(), &midnight, &action);
        if let Ok(next) = home.fsm().step(&midnight, &action) {
            let back = home.agent_mini_actions()[(i + 1) % home.agent_mini_actions().len()];
            table.allow(home.fsm(), &next, &EnvAction::single(back));
        }
    }
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.seed = 11;
    let policy = DqnAgent::new(cfg).expect("policy net");
    let mut config = RuntimeConfig::new(1);
    config.deterministic = true;
    config.batch_window = BATCH;
    config.match_mode = mode;
    let mut rt = ServingRuntime::new(config, policy).expect("runtime");
    rt.register_home(0, home.clone(), table.clone()).expect("register");
    (rt, home, table)
}

/// `n` decision queries for home 0, one a minute.
fn queries(n: usize) -> Vec<Envelope> {
    (0..n)
        .map(|i| Envelope {
            seq: i as u64,
            home: 0,
            minute: (i % 1440) as u32,
            kind: EventKind::Query {
                indoor_c: 20.0 + (i % 7) as f64 * 0.25,
                outdoor_c: 5.0 + (i % 11) as f64,
                price_per_kwh: 0.1 + (i % 5) as f64 * 0.01,
            },
        })
        .collect()
}

#[test]
fn the_forward_is_the_only_per_batch_allocation() {
    let (rt, _, _) = runtime(MatchMode::Exact);
    let dim = rt.policy().config().state_dim;
    let obs = Matrix::from_vec(BATCH, dim, vec![0.5; BATCH * dim]).expect("obs");
    // The first forward of the process also resolves the SIMD tier.
    rt.policy().q_values_matrix(&obs).expect("warm-up forward");
    let before = allocations();
    let q = rt.policy().q_values_matrix(&obs).expect("forward");
    assert_eq!(allocations() - before, FORWARD_ALLOCS, "allocations of one batched forward");
    assert_eq!(q.shape(), (BATCH, rt.policy().config().num_actions));
}

#[test]
fn decisions_allocate_nothing_per_query() {
    let (mut rt, _, _) = runtime(MatchMode::Exact);
    let snap = rt.snapshot();
    // Warm up: the first serve call touches lazily initialised state.
    rt.serve(queries(2 * BATCH)).expect("warm-up serve");
    let mut serve_allocs = |n: usize| {
        rt.restore(&snap).expect("restore");
        let events = queries(n);
        let before = allocations();
        let report = rt.serve(events).expect("serve");
        let made = allocations() - before;
        assert_eq!(report.decisions(), n, "every query decided");
        made
    };
    let n = 4 * BATCH;
    let single = serve_allocs(n);
    let double = serve_allocs(2 * n);
    assert_eq!(
        double - single,
        (n / BATCH) as u64 * FORWARD_ALLOCS,
        "{n} extra queries in {} extra batches must allocate only their forwards \
         ({single} allocations for {n} queries, {double} for {})",
        n / BATCH,
        2 * n
    );
}

#[test]
fn mask_rebuild_after_a_sensor_event_allocates_nothing() {
    for mode in [MatchMode::Exact, MatchMode::DeviceContext, MatchMode::Generalized] {
        let (mut rt, home, table) = runtime(mode);
        let midnight = home.midnight_state();
        let mini = home
            .agent_mini_actions()
            .into_iter()
            .find(|&m| home.fsm().step(&midnight, &EnvAction::single(m)).ok() != Some(midnight.clone()))
            .expect("an action that moves the midnight state");
        let sensor = Envelope { seq: 0, home: 0, minute: 1, kind: EventKind::Sensor(mini) };
        rt.serve(vec![sensor]).expect("sensor event");
        let slot = rt.slot(0).expect("registered");
        assert_ne!(slot.state(), &midnight, "the sensor event moved the state");
        let mut mask = vec![0u64; slot.mask_words()];
        assert_eq!(mask.len(), mask_words(slot.num_actions()));
        let before = allocations();
        slot.fill_valid_mask(&mut mask);
        assert_eq!(allocations() - before, 0, "{mode:?}: mask rebuild allocated");
        let oracle: Vec<usize> = std::iter::once(0)
            .chain((1..slot.num_actions()).filter(|&flat| {
                let action = EnvAction::single(slot.mini_for(flat).expect("agent action"));
                table.is_safe_action(slot.state(), &action, mode)
            }))
            .collect();
        assert_eq!(mask_bits(&mask).collect::<Vec<_>>(), oracle, "{mode:?}");
    }
}
