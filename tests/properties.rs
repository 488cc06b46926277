//! Property-based tests over the core data structures and invariants,
//! spanning the workspace crates.

use jarvis_repro::model::{
    ActionPattern, DeviceId, DeviceSpec, EnvAction, EnvState, Fsm, MiniAction,
    StateIdx, StatePattern, TimeStep,
};
use jarvis_repro::neural::metrics::{auc, Confusion};
use jarvis_repro::policy::{
    Enforcer, ManualPolicy, ManualRule, MatchMode, RuleEffect, SafeTransitionTable, Verdict,
};
use jarvis_repro::smart_home::{emergency_rules, SmartHome};
use jarvis_repro::rl::policy::{argmax, mask_bits, mask_set, mask_words, max_q_c};
use jarvis_repro::rl::{top_c, ReplayBuffer};
use jarvis_stdkit::prop_assert;
use jarvis_stdkit::prop_assert_eq;
use jarvis_stdkit::propcheck::{Config, Gen};

/// A random small FSM of 1..=6 devices with 2..=4 states and 1..=4 actions
/// each, and fully random (but valid) transition tables.
fn gen_fsm(g: &mut Gen) -> Fsm {
    let n_devices = g.usize_in(1, 6);
    let specs: Vec<DeviceSpec> = (0..n_devices)
        .map(|i| {
            let ns = g.usize_in(2, 4);
            let na = g.usize_in(1, 4);
            let seed = g.u64();
            let states: Vec<String> = (0..ns).map(|s| format!("s{s}")).collect();
            let actions: Vec<String> = (0..na).map(|a| format!("a{a}")).collect();
            let mut b = DeviceSpec::builder(format!("d{i}"))
                .states(states.clone())
                .actions(actions.clone());
            // Derive transitions deterministically from the seed.
            let mut x = seed | 1;
            for s in 0..ns {
                for a in 0..na {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let to = (x >> 33) as usize % ns;
                    b = b.transition(&states[s], &actions[a], &states[to]);
                }
            }
            b.build().expect("valid device")
        })
        .collect();
    Fsm::new(specs).expect("non-empty")
}

/// A valid state of `fsm`.
fn gen_state(g: &mut Gen, fsm: &Fsm) -> EnvState {
    fsm.state_sizes().iter().map(|&n| StateIdx(g.u8() % n as u8)).collect()
}

/// Δ always yields a valid state, and the no-op is the identity.
#[test]
fn fsm_step_closure() {
    Config::with_cases(64).run(|g| {
        let fsm = gen_fsm(g);
        let raw = gen_state(g, &fsm);
        prop_assert!(fsm.validate_state(&raw).is_ok());
        let noop = fsm.step(&raw, &EnvAction::noop()).unwrap();
        prop_assert_eq!(&noop, &raw);
        // Every mini-action leads to another valid state differing in at
        // most the actuated device.
        for mini in fsm.mini_actions() {
            let next = fsm.step(&raw, &EnvAction::single(mini)).unwrap();
            prop_assert!(fsm.validate_state(&next).is_ok());
            prop_assert!(raw.hamming(&next) <= 1);
            for (id, s) in next.iter() {
                if id != mini.device {
                    prop_assert_eq!(raw.device(id), Some(s));
                }
            }
        }
        Ok(())
    });
}

/// Mini-action flat indexing is a bijection over the whole action space.
#[test]
fn mini_action_bijection() {
    Config::with_cases(64).run(|g| {
        let fsm = gen_fsm(g);
        let mut seen = std::collections::HashSet::new();
        for flat in 0..fsm.num_mini_actions() {
            let mini = fsm.mini_action_at(flat);
            prop_assert_eq!(fsm.mini_action_index(mini), Some(flat));
            prop_assert!(seen.insert(mini), "duplicate at {}", flat);
        }
        prop_assert_eq!(fsm.mini_action_at(fsm.num_mini_actions()), None);
        Ok(())
    });
}

/// EnvAction canonicalization: construction order never matters.
#[test]
fn env_action_canonical() {
    Config::with_cases(64).run(|g| {
        let mut minis: Vec<(usize, u8)> =
            (0..g.usize_in(0, 5)).map(|_| (g.usize_in(0, 7), g.u8_in(0, 3))).collect();
        minis.sort();
        minis.dedup_by_key(|m| m.0);
        let forward: Vec<MiniAction> =
            minis.iter().map(|&(d, a)| MiniAction::new(DeviceId(d), a)).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let a = EnvAction::try_from_minis(forward).unwrap();
        let b = EnvAction::try_from_minis(reversed).unwrap();
        prop_assert_eq!(&a, &b);
        for m in a.minis() {
            prop_assert_eq!(a.on_device(m.device), Some(m.action));
        }
        Ok(())
    });
}

/// StatePattern: a fully pinned pattern matches exactly its source
/// state; widening any slot keeps it matching.
#[test]
fn pattern_widening_is_monotone() {
    Config::with_cases(64).run(|g| {
        let fsm = gen_fsm(g);
        let s = gen_state(g, &fsm);
        let widen: Vec<bool> = (0..6).map(|_| g.bool(0.5)).collect();
        let full = StatePattern::new(s.iter().map(|(_, st)| Some(st)).collect());
        prop_assert!(full.matches(&s));
        let widened = StatePattern::new(
            s.iter()
                .enumerate()
                .map(|(i, (_, st))| {
                    if widen.get(i).copied().unwrap_or(false) { None } else { Some(st) }
                })
                .collect(),
        );
        prop_assert!(widened.matches(&s), "widening can never unmatch");
        prop_assert!(widened.specificity() <= full.specificity());
        Ok(())
    });
}

/// SafeTransitionTable: everything allowed is reported safe under every
/// mode; Exact never reports an unobserved pair safe.
#[test]
fn safe_table_soundness() {
    Config::with_cases(64).run(|g| {
        let fsm = gen_fsm(g);
        let states: Vec<EnvState> = (0..g.usize_in(1, 4)).map(|_| gen_state(g, &fsm)).collect();
        let mut table = SafeTransitionTable::new();
        let mut allowed = Vec::new();
        for (i, s) in states.iter().enumerate() {
            let minis = fsm.mini_actions();
            let mini = minis[i % minis.len()];
            let action = EnvAction::single(mini);
            table.allow(&fsm, s, &action);
            allowed.push((s.clone(), action));
        }
        for (s, a) in &allowed {
            for mode in [MatchMode::Exact, MatchMode::DeviceContext, MatchMode::Generalized] {
                prop_assert!(table.is_safe_action(s, a, mode), "{mode:?}");
            }
        }
        // A pair never allowed is not Exact-safe (unless it is the no-op).
        let unseen_state = states[0].clone();
        for mini in fsm.mini_actions() {
            let action = EnvAction::single(mini);
            if !allowed.iter().any(|(s, a)| s == &unseen_state && a == &action) {
                prop_assert!(!table.is_safe_action(&unseen_state, &action, MatchMode::Exact));
            }
        }
        Ok(())
    });
}

/// Replay buffer: never exceeds capacity, keeps the newest items.
#[test]
fn replay_buffer_bounds() {
    Config::with_cases(64).run(|g| {
        let capacity = g.usize_in(1, 63);
        let items: Vec<u32> = (0..g.usize_in(0, 255)).map(|_| g.u32()).collect();
        let mut buf = ReplayBuffer::new(capacity);
        for &x in &items {
            buf.push(x);
        }
        prop_assert!(buf.len() <= capacity);
        prop_assert_eq!(buf.len(), items.len().min(capacity));
        let kept: Vec<u32> = buf.iter().copied().collect();
        let expected: Vec<u32> = items[items.len().saturating_sub(capacity)..].to_vec();
        prop_assert_eq!(kept, expected);
        Ok(())
    });
}

/// `top_c` enumerates the valid set exactly once, in non-increasing
/// Q order.
#[test]
fn top_c_is_a_ranking() {
    Config::with_cases(64).run(|g| {
        let q: Vec<f64> = (0..g.usize_in(1, 19)).map(|_| g.f64_in(-100.0, 100.0)).collect();
        let valid: Vec<usize> = (0..q.len()).collect();
        let ranking: Vec<usize> = (0..q.len()).map(|c| top_c(&q, &valid, c).unwrap()).collect();
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &valid, "must be a permutation");
        for w in ranking.windows(2) {
            prop_assert!(q[w[0]] >= q[w[1]]);
        }
        prop_assert_eq!(top_c(&q, &valid, q.len()), None);
        Ok(())
    });
}

/// The serving runtime's `Max(Q, c)` walk as it stood before the one-pass
/// rewrite, kept as the oracle: argsort the whole head (descending Q,
/// ascending index on ties), take the first valid entry and its position.
fn argsort_walk(q: &[f64], valid: &[usize]) -> (usize, f64, usize) {
    let mut ranked: Vec<usize> = (0..q.len()).collect();
    ranked.sort_by(|&a, &b| {
        q[b].partial_cmp(&q[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    ranked
        .iter()
        .enumerate()
        .find(|(_, a)| valid.contains(a))
        .map(|(c, &a)| (a, q[a], c))
        .unwrap_or((0, q.first().copied().unwrap_or(0.0), 0))
}

/// The one-pass walk exactly as `run_batch` reports it.
fn one_pass_walk(q: &[f64], mask: &[u64]) -> (usize, f64, usize) {
    match max_q_c(q, mask) {
        Some((a, c)) => (a, q[a], c),
        None => (0, q.first().copied().unwrap_or(0.0), 0),
    }
}

/// A random subset of `0..n` of exactly `k` actions, ascending.
fn gen_subset(g: &mut Gen, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = g.usize_in(i, n - 1);
        idx.swap(i, j);
    }
    let mut subset = idx[..k].to_vec();
    subset.sort_unstable();
    subset
}

fn to_mask(valid: &[usize], n: usize) -> Vec<u64> {
    let mut mask = vec![0u64; mask_words(n)];
    for &a in valid {
        mask_set(&mut mask, a);
    }
    mask
}

/// A Q head of 1..=130 actions (one to three mask words): wide random
/// values, values from a small pool that forces ties and signed zeros, or
/// one value throughout.
fn gen_head(g: &mut Gen) -> Vec<f64> {
    const POOL: [f64; 5] = [-1.5, -0.0, 0.0, 0.25, 2.0];
    let n = g.usize_in(1, 130);
    match g.usize_in(0, 2) {
        0 => (0..n).map(|_| g.f64_in(-10.0, 10.0)).collect(),
        1 => (0..n).map(|_| *g.choose(&POOL)).collect(),
        _ => vec![*g.choose(&POOL); n],
    }
}

/// The one-pass `Max(Q, c)` walk over a valid-action bitmask reports
/// bit-identically what the argsort walk did — action, Q value and rank —
/// on NaN-free heads, for every valid-set size from 1 to the head width.
#[test]
fn one_pass_walk_matches_the_argsort_oracle() {
    Config::with_cases(64).run(|g| {
        let q = gen_head(g);
        for k in 1..=q.len() {
            let valid = gen_subset(g, q.len(), k);
            let mask = to_mask(&valid, q.len());
            prop_assert_eq!(mask_bits(&mask).collect::<Vec<_>>(), valid.clone());
            let (flat, q_value, rank) = one_pass_walk(&q, &mask);
            let (want_flat, want_q, want_rank) = argsort_walk(&q, &valid);
            prop_assert_eq!((flat, rank), (want_flat, want_rank), "k = {k}");
            prop_assert_eq!(q_value.to_bits(), want_q.to_bits(), "k = {k}");
        }
        Ok(())
    });
}

/// On a head holding NaNs the walk's action follows `argmax`'s rule (a
/// NaN never displaces, and is never displaced by, the running best).
#[test]
fn one_pass_walk_on_nan_rows_follows_argmax() {
    Config::with_cases(64).run(|g| {
        let mut q = gen_head(g);
        for _ in 0..g.usize_in(1, 4) {
            let at = g.usize_in(0, q.len() - 1);
            q[at] = f64::NAN;
        }
        let k = g.usize_in(1, q.len());
        let valid = gen_subset(g, q.len(), k);
        let (flat, q_value, _) = one_pass_walk(&q, &to_mask(&valid, q.len()));
        prop_assert_eq!(Some(flat), argmax(&q, &valid));
        prop_assert_eq!(q_value.to_bits(), q[flat].to_bits());
        Ok(())
    });
}

/// 0..=6 random Allow/Deny rules over `fsm`: each pins up to two device
/// states in its trigger and one device's action (or forbids any action on
/// it) in its action pattern.
fn gen_manual(g: &mut Gen, fsm: &Fsm) -> ManualPolicy {
    let sizes = fsm.state_sizes();
    let k = sizes.len();
    (0..g.usize_in(0, 6))
        .map(|i| {
            let mut trigger = StatePattern::any(k);
            for _ in 0..g.usize_in(0, 2) {
                let d = g.usize_in(0, k - 1);
                trigger = trigger.with(DeviceId(d), StateIdx(g.u8() % sizes[d] as u8));
            }
            let m = *g.choose(&fsm.mini_actions());
            let action = if g.bool(0.2) {
                ActionPattern::any(k).without(m.device)
            } else {
                ActionPattern::any(k).with(m.device, m.action)
            };
            let effect = if g.bool(0.5) { RuleEffect::Allow } else { RuleEffect::Deny };
            ManualRule { name: format!("r{i}"), trigger, action, effect }
        })
        .collect()
}

/// `for_each_safe_mini` — the valid-action mask's table probe — marks
/// exactly the mini-actions the per-action `is_safe_action` rule calls
/// safe, and `Enforcer::for_each_allowed` exactly those its `verdict`
/// does not call a violation, in every match mode, over random tables
/// (singles, joint actions and the no-op allowed from random states),
/// random query states, and manual rules: none, random Allow/Deny rules,
/// or the evaluation home's emergency rules over that home's FSM.
#[test]
fn safe_mini_marks_match_the_per_action_oracle() {
    let home = SmartHome::evaluation_home();
    let emergency = emergency_rules(&home);
    Config::with_cases(64).run(|g| {
        let (fsm, manual) = match g.usize_in(0, 3) {
            0 => (home.fsm().clone(), Some(emergency.clone())),
            1 => (gen_fsm(g), None),
            _ => {
                let fsm = gen_fsm(g);
                let manual = gen_manual(g, &fsm);
                (fsm, Some(manual))
            }
        };
        let minis = fsm.mini_actions();
        let mut table = SafeTransitionTable::new();
        table.set_allow_noop(g.bool(0.5));
        for _ in 0..g.usize_in(0, 24) {
            let state = gen_state(g, &fsm);
            let action = match g.usize_in(0, 5) {
                0 => EnvAction::noop(),
                1 => {
                    let (a, b) = (*g.choose(&minis), *g.choose(&minis));
                    EnvAction::try_from_minis(vec![a, b]).unwrap_or_else(|_| EnvAction::single(a))
                }
                _ => EnvAction::single(*g.choose(&minis)),
            };
            table.allow(&fsm, &state, &action);
        }
        let allowed: Vec<EnvState> = table.iter().map(|(s, _)| s.clone()).collect();
        for _ in 0..8 {
            let state = if !allowed.is_empty() && g.bool(0.5) {
                g.choose(&allowed).clone()
            } else {
                gen_state(g, &fsm)
            };
            for mode in [MatchMode::Exact, MatchMode::DeviceContext, MatchMode::Generalized] {
                let mut marked = Vec::new();
                table.for_each_safe_mini(&state, &minis, mode, |i| marked.push(i));
                let oracle: Vec<usize> = (0..minis.len())
                    .filter(|&i| table.is_safe_action(&state, &EnvAction::single(minis[i]), mode))
                    .collect();
                prop_assert_eq!(&marked, &oracle, "{mode:?}");

                let enforcer =
                    Enforcer { table: &table, mode, manual: manual.as_ref(), filter: None };
                let mut allowed = Vec::new();
                enforcer.for_each_allowed(&state, &minis, |i| allowed.push(i));
                let oracle: Vec<usize> = (0..minis.len())
                    .filter(|&i| {
                        let action = EnvAction::single(minis[i]);
                        enforcer.verdict(&state, &action, TimeStep(0)) != Verdict::Violation
                    })
                    .collect();
                prop_assert_eq!(&allowed, &oracle, "{mode:?} with {manual:?}");
            }
        }
        Ok(())
    });
}

/// Confusion counts always total the sample size; AUC is within [0, 1].
#[test]
fn metrics_invariants() {
    Config::with_cases(64).run(|g| {
        let n = g.usize_in(1, 99);
        let scores: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 1.0)).collect();
        let labels: Vec<bool> = (0..n).map(|_| g.bool(0.5)).collect();
        let thr = g.f64_in(0.0, 1.0);
        let c = Confusion::at_threshold(&scores, &labels, thr);
        prop_assert_eq!(c.tp + c.fp + c.tn + c.fn_, n);
        let a = auc(&scores, &labels);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a), "auc {a}");
        Ok(())
    });
}

/// A fault plan whose every rule carries rate 0.0 is the identity on the
/// whole ingest path, for *any* dataset seed: the injected pipeline's
/// parsed episodes are bit-identical to the un-injected ones. This is the
/// nested-drop guarantee at its degenerate point — the injector draws RNG
/// values but never acts on them.
#[test]
fn zero_rate_fault_injection_is_pipeline_identity() {
    use jarvis_repro::model::EpisodeConfig;
    use jarvis_repro::sim::{FaultInjector, FaultKind, FaultPlan, FaultRule, HomeDataset};
    use jarvis_repro::smart_home::{EventLog, SmartHome};
    use jarvis_stdkit::json::ToJson;

    let home = SmartHome::evaluation_home();
    Config::with_cases(6).run(|g| {
        let data = HomeDataset::home_a(g.u64());
        let day = g.u32_in(0, 3);
        let plan = FaultPlan {
            seed: g.u64(),
            rules: vec![
                FaultRule::all_day(FaultKind::Drop { rate: 0.0 }),
                FaultRule::all_day(FaultKind::Duplicate { rate: 0.0 }),
                FaultRule::all_day(FaultKind::Delay { rate: 0.0, max_minutes: 5 }),
                FaultRule::all_day(FaultKind::StuckAt { rate: 0.0, hold_minutes: 10 }),
            ],
        };
        let injector = FaultInjector::new(plan).expect("zero-rate plan is valid");

        let mut clean = EventLog::new();
        clean.record_activity(&home, &data.activity(day));
        let clean_eps = clean.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES).unwrap();

        let mut faulted = EventLog::new();
        let fd = injector.inject(&data, day);
        prop_assert_eq!(&fd.summary.total(), &0, "zero-rate plan acted on the stream");
        faulted.record_faulted_activity(&home, &fd);
        let faulted_eps = faulted.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES).unwrap();

        prop_assert_eq!(
            clean_eps.episodes.to_json(),
            faulted_eps.episodes.to_json(),
            "zero-rate injection changed the parsed episodes"
        );
        prop_assert_eq!(faulted_eps.gap_steps, 0);
        Ok(())
    });
}

/// Injection is a pure function of `(seed, plan)`: re-running any randomly
/// generated (valid) plan over the same day yields a byte-identical
/// `FaultedDay`, and the faulted stream never grows a minute outside the day.
#[test]
fn fault_injection_is_deterministic_per_seed_and_plan() {
    use jarvis_repro::sim::{FaultInjector, FaultKind, FaultPlan, FaultRule, HomeDataset};
    use jarvis_stdkit::json::ToJson;

    let data = HomeDataset::home_a(9);
    Config::with_cases(24).run(|g| {
        let day = g.u32_in(0, 2);
        let n_rules = g.usize_in(1, 4);
        let rules = (0..n_rules)
            .map(|_| {
                let rate = f64::from(g.u8_in(0, 100)) / 100.0;
                let kind = match g.u8() % 5 {
                    0 => FaultKind::Drop { rate },
                    1 => FaultKind::Duplicate { rate },
                    2 => FaultKind::Delay { rate, max_minutes: g.u32_in(1, 30) },
                    3 => FaultKind::StuckAt { rate, hold_minutes: g.u32_in(1, 60) },
                    _ => FaultKind::Offline {
                        windows: g.u32_in(1, 3),
                        max_minutes: g.u32_in(1, 120),
                    },
                };
                FaultRule::all_day(kind)
            })
            .collect();
        let plan = FaultPlan { seed: g.u64(), rules };
        let a = FaultInjector::new(plan.clone()).expect("generated plan is valid");
        let b = FaultInjector::new(plan).unwrap();
        let fa = a.inject(&data, day);
        let fb = b.inject(&data, day);
        prop_assert_eq!(fa.to_json(), fb.to_json(), "same (seed, plan) diverged");
        prop_assert!(fa.events.iter().all(|e| e.minute < 1440), "event escaped the day");
        prop_assert!(
            fa.events.windows(2).all(|w| w[0].minute <= w[1].minute),
            "faulted stream not minute-sorted"
        );
        Ok(())
    });
}
