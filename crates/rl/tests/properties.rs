//! Property-based tests for the RL substrate.

use jarvis_rl::*;
use jarvis_stdkit::prop_assert;
use jarvis_stdkit::prop_assert_eq;
use jarvis_stdkit::propcheck::Config;
use jarvis_stdkit::rng::{ChaCha8Rng, SeedableRng};

/// Q-table updates keep values bounded by the discounted reward bound
/// |Q| ≤ r_max / (1 − γ) under arbitrary update sequences.
#[test]
fn qtable_values_bounded() {
    Config::with_cases(48).run(|g| {
        let gamma = g.f64_in(0.0, 0.99);
        let n_updates = g.usize_in(1, 199);
        let mut q = QTable::new(3, 0.5, gamma);
        for _ in 0..n_updates {
            let s = g.usize_in(0, 5);
            let a = g.usize_in(0, 2);
            let r = g.f64_in(-1.0, 1.0);
            let s2 = g.usize_in(0, 5);
            let done = g.bool(0.5);
            q.update(s, a, r, s2, &[0, 1, 2], done);
        }
        let bound = 1.0 / (1.0 - gamma) + 1e-6;
        for s in 0..6 {
            for a in 0..3 {
                prop_assert!(q.q(s, a).abs() <= bound, "Q({s},{a}) = {}", q.q(s, a));
            }
        }
        Ok(())
    });
}

/// ε-greedy with ε = 0 always takes the greedy action; with ε = 1 it
/// always stays within the valid set.
#[test]
fn epsilon_greedy_extremes() {
    Config::with_cases(48).run(|g| {
        let mut valid: Vec<usize> = (0..g.usize_in(1, 3)).map(|_| g.usize_in(0, 3)).collect();
        let seed = g.u64();
        valid.sort_unstable();
        valid.dedup();
        let mut q = QTable::new(4, 0.5, 0.9);
        q.update(0, valid[0], 1.0, 0, &[], true); // make valid[0] the best
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let greedy = q.epsilon_greedy(0, &valid, 0.0, &mut rng);
        prop_assert_eq!(Some(greedy), q.best_action(0, &valid));
        for _ in 0..20 {
            let a = q.epsilon_greedy(0, &valid, 1.0, &mut rng);
            prop_assert!(valid.contains(&a));
        }
        Ok(())
    });
}

/// The epsilon schedule never leaves [min, initial] no matter the loss
/// sequence.
#[test]
fn epsilon_schedule_bounds() {
    Config::with_cases(48).run(|g| {
        let start = g.f64_in(0.2, 1.0);
        let decay = g.f64_in(0.5, 0.999);
        let n_losses = g.usize_in(0, 99);
        let min = start / 4.0;
        let mut s = EpsilonSchedule::new(start, min, decay, 1.0);
        for _ in 0..n_losses {
            let eps = s.observe_loss(g.f64_in(0.0, 10.0));
            prop_assert!(eps >= min - 1e-12 && eps <= start + 1e-12);
        }
        Ok(())
    });
}

/// Replay sampling returns distinct indices within bounds.
#[test]
fn replay_sampling_is_well_formed() {
    Config::with_cases(48).run(|g| {
        let capacity = g.usize_in(2, 63);
        let pushes = g.usize_in(0, 199);
        let n = g.usize_in(1, 15);
        let seed = g.u64();
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(i);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match buf.sample(n, &mut rng) {
            None => prop_assert!(buf.len() < n),
            Some(sample) => {
                prop_assert_eq!(sample.len(), n);
                let set: std::collections::HashSet<_> = sample.iter().map(|&&x| x).collect();
                prop_assert_eq!(set.len(), n, "duplicates in sample");
                for &&x in &sample {
                    prop_assert!(x < pushes, "sampled item never pushed");
                }
            }
        }
        Ok(())
    });
}

/// Batched Q rows are bit-identical to single-row forwards, so the
/// constraint-masked argmax of each batched row is the single-state
/// `best_action`. Serving groups queries into batches and relies on this.
#[test]
fn dqn_act_batch_matches_sequential_act_bitwise() {
    Config::with_cases(48).run(|g| {
        let state_dim = g.usize_in(1, 5);
        let num_actions = g.usize_in(2, 6);
        let batch = g.usize_in(1, 12);
        let mut cfg = DqnConfig::new(state_dim, num_actions);
        cfg.hidden = vec![g.usize_in(1, 8)];
        cfg.seed = g.u64();
        let agent = DqnAgent::new(cfg).unwrap();

        let obs: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..state_dim).map(|_| g.f64_in(-1.0, 1.0)).collect())
            .collect();
        let valid: Vec<Vec<usize>> = (0..batch)
            .map(|_| {
                let mut v: Vec<usize> = (0..g.usize_in(1, num_actions - 1))
                    .map(|_| g.usize_in(0, num_actions - 1))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();

        let obs_refs: Vec<&[f64]> = obs.iter().map(Vec::as_slice).collect();
        let q_batch = agent.q_values_batch(&obs_refs).unwrap();
        for (i, (o, v)) in obs.iter().zip(&valid).enumerate() {
            let q_single = agent.q_values(o).unwrap();
            prop_assert!(
                q_single.iter().zip(&q_batch[i]).all(|(a, b)| a.to_bits() == b.to_bits()),
                "q row {i} diverged"
            );
            prop_assert_eq!(argmax(&q_batch[i], v), agent.best_action(o, v).unwrap());
        }
        Ok(())
    });
}

/// DQN action selection is always within the valid set, for any
/// observation.
#[test]
fn dqn_act_respects_valid_set() {
    Config::with_cases(48).run(|g| {
        let obs: Vec<f64> = (0..3).map(|_| g.f64_in(-1.0, 1.0)).collect();
        let mut valid: Vec<usize> = (0..g.usize_in(1, 4)).map(|_| g.usize_in(0, 4)).collect();
        let seed = g.u64();
        valid.sort_unstable();
        valid.dedup();
        let mut cfg = DqnConfig::new(3, 5);
        cfg.hidden = vec![4];
        cfg.seed = seed;
        let mut agent = DqnAgent::new(cfg).unwrap();
        for _ in 0..10 {
            let a = agent.act(&obs, &valid).unwrap();
            prop_assert!(valid.contains(&a));
        }
        Ok(())
    });
}

/// The per-row `Replay(BSize)` that the batched replay replaced, kept as a
/// test oracle: one `predict` per sampled state, one or two per live next
/// state, and a one-hot `train_batch_masked` step. Applied to a checkpoint,
/// it returns the checkpoint one replay later and the replay's loss.
fn reference_replay(mut cp: DqnCheckpoint) -> (DqnCheckpoint, Option<f64>) {
    let mut memory = ReplayBuffer::new(cp.config.replay_capacity);
    memory.extend(cp.replay.iter().cloned());
    let batch: Vec<Experience> = match memory.sample(cp.config.batch_size, &mut cp.rng) {
        Some(b) => b.into_iter().cloned().collect(),
        None => return (cp, None),
    };
    let double = cp.config.double_dqn && cp.target.is_some();
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    let mut masks = Vec::new();
    {
        let bootstrap_net = cp.target.as_ref().unwrap_or(&cp.net);
        for exp in &batch {
            let mut target_row = cp.net.predict(&exp.state).unwrap();
            let future = if exp.done {
                0.0
            } else if double {
                let online_next = cp.net.predict(&exp.next).unwrap();
                match argmax(&online_next, &exp.next_valid) {
                    Some(a) => bootstrap_net.predict(&exp.next).unwrap()[a],
                    None => 0.0,
                }
            } else {
                max_q(&bootstrap_net.predict(&exp.next).unwrap(), &exp.next_valid)
            };
            target_row[exp.action] = exp.reward + cp.config.gamma * future;
            let mut mask = vec![0.0; cp.config.num_actions];
            mask[exp.action] = 1.0;
            inputs.push(exp.state.clone());
            targets.push(target_row);
            masks.push(mask);
        }
    }
    let input_refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let target_refs: Vec<&[f64]> = targets.iter().map(Vec::as_slice).collect();
    let mask_refs: Vec<&[f64]> = masks.iter().map(Vec::as_slice).collect();
    let loss = cp.net.train_batch_masked(&input_refs, &target_refs, Some(&mask_refs)).unwrap();
    cp.replays_done += 1;
    if let (Some(every), Some(target)) = (cp.config.target_sync_every, cp.target.as_mut()) {
        if cp.replays_done.is_multiple_of(every.max(1)) {
            *target = cp.net.clone();
        }
    }
    cp.schedule.observe_loss(loss);
    (cp, Some(loss))
}

/// The batched replay (one bootstrap forward over the live next states,
/// one training step that reuses its own forward) is bit-identical to the
/// per-row reference in every mode — plain, target network, and Double DQN
/// — over random shapes, batch sizes down to 1, terminal rows mixed among
/// live ones, and empty next-valid sets. After every replay the losses,
/// Q values and checkpoint bytes (weights, Adam moments, target network,
/// RNG position, schedule) agree.
#[test]
fn dqn_replay_matches_per_row_reference_bitwise() {
    use jarvis_stdkit::json::ToJson;
    Config::with_cases(48).run(|g| {
        let state_dim = g.usize_in(1, 5);
        let num_actions = g.usize_in(1, 6);
        let batch = g.usize_in(1, 12);
        let mut cfg = DqnConfig::new(state_dim, num_actions);
        cfg.hidden = (0..g.usize_in(1, 2)).map(|_| g.usize_in(1, 8)).collect();
        cfg.batch_size = batch;
        cfg.learning_rate = g.f64_in(0.001, 0.05);
        cfg.gamma = g.f64_in(0.0, 1.0);
        cfg.seed = g.u64();
        cfg.schedule = EpsilonSchedule::new(1.0, 0.05, 0.9, g.f64_in(0.0, 1.0));
        match g.usize_in(0, 2) {
            0 => {}
            1 => cfg.target_sync_every = Some(g.usize_in(1, 3)),
            _ => {
                cfg.target_sync_every = Some(g.usize_in(1, 3));
                cfg.double_dqn = true;
            }
        }
        let done_rate = g.f64_in(0.0, 1.0);
        let mut agent = DqnAgent::new(cfg).unwrap();
        let obs = |g: &mut jarvis_stdkit::propcheck::Gen| -> Vec<f64> {
            (0..state_dim).map(|_| g.f64_in(-2.0, 2.0)).collect()
        };
        for _ in 0..batch + g.usize_in(0, 16) {
            let mut next_valid: Vec<usize> =
                (0..g.usize_in(0, num_actions)).map(|_| g.usize_in(0, num_actions - 1)).collect();
            next_valid.sort_unstable();
            next_valid.dedup();
            agent.remember(Experience {
                state: obs(g),
                action: g.usize_in(0, num_actions - 1),
                reward: g.f64_in(-1.0, 1.0),
                next: obs(g),
                next_valid,
                done: g.bool(done_rate),
            });
        }
        let probe = obs(g);
        for r in 0..g.usize_in(1, 6) {
            let (expected, expected_loss) = reference_replay(agent.checkpoint());
            let loss = agent.replay().unwrap();
            prop_assert_eq!(
                loss.map(f64::to_bits),
                expected_loss.map(f64::to_bits),
                "loss of replay {r} diverged"
            );
            let q = agent.q_values(&probe).unwrap();
            let q_ref = expected.net.predict(&probe).unwrap();
            prop_assert!(
                q.iter().zip(&q_ref).all(|(a, b)| a.to_bits() == b.to_bits()),
                "q values after replay {r} diverged: {q:?} vs {q_ref:?}"
            );
            prop_assert_eq!(
                agent.checkpoint().to_json(),
                expected.to_json(),
                "checkpoint after replay {r} diverged"
            );
        }
        Ok(())
    });
}
