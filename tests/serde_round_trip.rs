//! Serialization round trips across the workspace: everything a deployment
//! would persist (device specs, logs, learned tables, trained networks)
//! survives JSON without loss — plus malformed-input tests exercising the
//! strict in-tree codec (truncated documents, wrong field types, unknown
//! fields must all return `Err`, never panic).

use jarvis_repro::model::EpisodeConfig;
use jarvis_repro::policy::{learn_safe_transitions, MatchMode, SplConfig};
use jarvis_repro::sim::HomeDataset;
use jarvis_repro::smart_home::{devices, EventLog, SmartHome};
use jarvis_stdkit::json::{FromJson, ToJson};

#[test]
fn device_catalogue_round_trips() {
    for dev in devices::evaluation_devices() {
        let json = dev.to_json();
        let back = jarvis_repro::model::DeviceSpec::from_json(&json).unwrap();
        assert_eq!(dev, back);
    }
}

#[test]
fn event_log_round_trips_as_json_lines() {
    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(3);
    let mut log = EventLog::new();
    log.record_activity(&home, &data.activity(1));
    let text = log.to_json_lines().unwrap();
    let back = EventLog::from_json_lines(&text).unwrap();
    assert_eq!(log, back);
    // Parsed episodes from original and round-tripped logs agree.
    let a = log.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES).unwrap();
    let b = back.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES).unwrap();
    assert_eq!(a.episodes, b.episodes);
}

#[test]
fn learned_safe_table_round_trips_with_behavior() {
    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(9);
    let mut log = EventLog::new();
    for day in 0..3 {
        log.record_activity(&home, &data.activity(day));
    }
    let episodes = log
        .parse_episodes(&home, EpisodeConfig::DAILY_MINUTES)
        .unwrap()
        .episodes;
    let outcome = learn_safe_transitions(home.fsm(), &episodes, None, &SplConfig::default());

    let table_json = outcome.table.to_json();
    let table_back =
        jarvis_repro::policy::SafeTransitionTable::from_json(&table_json).unwrap();
    assert_eq!(outcome.table, table_back);
    // Deserialized table makes identical decisions.
    for tr in episodes[0].transitions().iter().filter(|t| !t.is_idle()).take(50) {
        for mode in [MatchMode::Exact, MatchMode::DeviceContext, MatchMode::Generalized] {
            assert_eq!(
                outcome.table.is_safe_action(&tr.state, &tr.action, mode),
                table_back.is_safe_action(&tr.state, &tr.action, mode),
            );
        }
    }

    let behavior_json = outcome.behavior.to_json();
    let behavior_back = jarvis_repro::policy::TaBehavior::from_json(&behavior_json).unwrap();
    assert_eq!(outcome.behavior, behavior_back);
}

#[test]
fn trained_network_round_trips_exactly() {
    use jarvis_repro::neural::{Activation, Loss, Network, OptimizerKind};
    let mut net = Network::builder(4)
        .layer(8, Activation::Tanh)
        .layer(2, Activation::Linear)
        .loss(Loss::Mse)
        .optimizer(OptimizerKind::adam(0.01))
        .seed(5)
        .build()
        .unwrap();
    let x = [0.1, 0.2, 0.3, 0.4];
    let y = [1.0, -1.0];
    for _ in 0..20 {
        net.train_batch(&[&x], &[&y]).unwrap();
    }
    let back = Network::from_json(&net.to_json().unwrap()).unwrap();
    assert_eq!(net.predict(&x).unwrap(), back.predict(&x).unwrap());
}

#[test]
fn episodes_round_trip() {
    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(13);
    let mut log = EventLog::new();
    log.record_activity(&home, &data.activity(2));
    let ep = log
        .parse_episodes(&home, EpisodeConfig::DAILY_MINUTES)
        .unwrap()
        .episodes
        .remove(0);
    let json = ep.to_json();
    let back = jarvis_repro::model::Episode::from_json(&json).unwrap();
    assert_eq!(ep, back);
}

#[test]
fn runtime_snapshot_with_online_learners_round_trips() {
    use jarvis_repro::rl::{DqnAgent, DqnConfig};
    use jarvis_repro::runtime::{
        OnlineConfig, RuntimeConfig, RuntimeSnapshot, ServingRuntime, ShadowGates,
    };
    use jarvis_repro::sim::FleetGenerator;

    let home = SmartHome::evaluation_home();
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let mut cfg = DqnConfig::new(state_dim, home.agent_mini_actions().len() + 1);
    cfg.hidden = vec![8];
    let policy = DqnAgent::new(cfg).unwrap();
    let fresh = || {
        let mut config = RuntimeConfig::new(2);
        config.deterministic = true;
        let mut rt = ServingRuntime::new(config, policy.clone()).unwrap();
        for id in 0..3 {
            let table = jarvis_repro::policy::SafeTransitionTable::new();
            rt.register_home(id, home.clone(), table).unwrap();
        }
        let online = OnlineConfig { fold_every: 24, ..OnlineConfig::default() };
        rt.enable_online(online, ShadowGates::default()).unwrap();
        rt
    };

    // Serve a day so every learner carries state: folds, admitted pairs in
    // the (copy-on-write shared) safe tables, a shadow delta, replay rows.
    let mut rt = fresh();
    let fleet = FleetGenerator::new(3, 3);
    let ingest = rt.ingest_fleet_day(&fleet, 0, None, Some(30)).unwrap();
    rt.serve_online(ingest.envelopes, &[]).unwrap();
    let snap = rt.snapshot();
    let learners: Vec<_> = snap.homes.iter().filter_map(|h| h.online.as_ref()).collect();
    assert_eq!(learners.len(), 3, "every home carries its learner");
    assert!(learners.iter().any(|o| o.admitted > 0 && !o.replay.is_empty()));

    let json = snap.to_json();
    let back = RuntimeSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.to_json(), json, "serialization must be byte-stable");

    // Restoring the decoded snapshot reproduces the runtime byte-for-byte.
    let mut restored = fresh();
    restored.restore(&back).unwrap();
    assert_eq!(restored.snapshot().to_json(), json);
}

// ---------------------------------------------------------------------------
// Malformed input: the strict codec must reject — never panic on — documents
// that are truncated, mistyped, or carry unexpected fields.
// ---------------------------------------------------------------------------

/// Truncating valid JSON at any byte boundary yields `Err`, not a panic.
#[test]
fn truncated_json_always_errs() {
    let dev = devices::evaluation_devices().remove(0);
    let json = dev.to_json();
    for cut in 0..json.len() {
        let prefix = match json.get(..cut) {
            Some(p) => p,
            None => continue, // non-UTF-8 boundary (none in practice: ASCII)
        };
        assert!(
            jarvis_repro::model::DeviceSpec::from_json(prefix).is_err(),
            "truncation at byte {cut} must not parse"
        );
    }
}

/// A field with the wrong JSON type is rejected.
#[test]
fn wrong_field_types_are_rejected() {
    use jarvis_repro::model::{DeviceSpec, Episode, Event};
    let dev = devices::evaluation_devices().remove(0);
    let json = dev.to_json();
    // Swap the "name" string for a number.
    let broken = json.replacen(&format!("\"name\":\"{}\"", dev.name()), "\"name\":7", 1);
    assert_ne!(json, broken, "substitution must hit");
    assert!(DeviceSpec::from_json(&broken).is_err());
    // A bare scalar where an object is expected.
    assert!(Episode::from_json("42").is_err());
    assert!(Event::from_json("\"not an event\"").is_err());
    assert!(Episode::from_json("[]").is_err());
}

/// Unknown fields are rejected (strict decoding), as are duplicate keys.
#[test]
fn unknown_and_duplicate_fields_are_rejected() {
    use jarvis_repro::model::DeviceSpec;
    let dev = devices::evaluation_devices().remove(0);
    let json = dev.to_json();
    let with_unknown = format!("{}{}", &json[..json.len() - 1], ",\"bogus\":1}");
    assert!(DeviceSpec::from_json(&with_unknown).is_err(), "unknown field must be rejected");
    let with_dup = format!(
        "{}{}",
        &json[..json.len() - 1],
        format!(",\"name\":\"{}\"}}", dev.name())
    );
    assert!(DeviceSpec::from_json(&with_dup).is_err(), "duplicate key must be rejected");
}

/// Syntax garbage in every common shape returns `Err`.
#[test]
fn syntax_errors_are_rejected() {
    use jarvis_repro::model::DeviceSpec;
    for bad in [
        "",
        "   ",
        "{",
        "}",
        "{]",
        "nul",
        "truefalse",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,2,,3]",
        "\"unterminated",
        "{\"a\" 1}",
        "01",
        "- 1",
        "1e",
        "\u{1}",
        "{\"a\":1}trailing",
    ] {
        assert!(DeviceSpec::from_json(bad).is_err(), "{bad:?} must not parse");
    }
}

/// A mangled line inside a JSON-lines log errs without losing the panic-free
/// guarantee.
#[test]
fn mangled_log_line_errs() {
    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(5);
    let mut log = EventLog::new();
    log.record_activity(&home, &data.activity(0));
    let text = log.to_json_lines().unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return;
    }
    let mangled = &lines[0][..lines[0].len() / 2];
    lines[0] = mangled;
    let rejoined = lines.join("\n");
    assert!(EventLog::from_json_lines(&rejoined).is_err());
}
