//! Self-test of the benchmark at a tiny size: Quick scale, short phases,
//! a low query rate. Checks that a run reports exactly the metrics
//! `BENCHMARK.json` names, each with its unit, and that a tampered
//! output fails the check that guards it.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;
use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::column::wcd;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_perfbench::checks::{self, Failure};
use wheels_perfbench::loadgen::{self, Reply, Schedule};
use wheels_perfbench::pipeline::{self, Config};
use wheels_perfbench::{reported, result_line};
use wheels_serve::protocol::parse_request;
use wheels_serve::query;
use wheels_serve::server::{self, JournalSpec, ServeOptions};

/// The tests time a load generator, so they run one at a time: a
/// campaign in a parallel test would make the generator late.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn tiny(name: &str) -> Config {
    Config {
        scale: Scale::Quick,
        seed: 11,
        setup_reps: 1,
        reps: 1,
        live_interval: Duration::from_millis(20),
        steady: Duration::from_millis(500),
        rate: 400.0,
        work_dir: work_dir(name),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits next to the benchmark");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let Value::Object(top) = v else {
        panic!("BENCHMARK.json is not an object")
    };
    let Value::Array(items) = serde::get_field(&top, list) else {
        panic!("{list} is not a list")
    };
    items
        .iter()
        .map(|m| {
            let Value::Object(f) = m else {
                panic!("{list} entry is not an object")
            };
            match (serde::get_field(f, "name"), serde::get_field(f, "unit")) {
                (Value::String(n), Value::String(u)) => (n.clone(), u.clone()),
                other => panic!("bad {list} entry {other:?}"),
            }
        })
        .collect()
}

/// `(name, unit)` of every metric in a printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let v: Value = serde_json::from_str(line).expect("the result line is JSON");
    let Value::Object(top) = v else {
        panic!("not an object: {line}")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(
        serde::get_field(&top, "correct"),
        &Value::Bool(true),
        "{line}"
    );
    let Value::Object(metrics) = serde::get_field(&top, "metrics") else {
        panic!("no metrics: {line}")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Value::Object(f) = m else {
                panic!("{name} is not an object")
            };
            assert!(
                matches!(
                    serde::get_field(f, "value"),
                    Value::F64(_) | Value::U64(_) | Value::I64(_)
                ),
                "{name} has no numeric value: {line}"
            );
            match serde::get_field(f, "unit") {
                Value::String(u) => (name.clone(), u.clone()),
                other => panic!("{name} unit {other:?}"),
            }
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn untraced_and_traced_runs_print_every_declared_metric_with_its_unit() {
    let _serial = serial();
    let cfg = tiny("metrics");
    let rep = pipeline::run(&cfg, false).expect("a tiny untraced run passes its checks");
    assert_eq!(rep.failed, 0);
    let line = result_line(
        true,
        rep.attempted,
        rep.failed,
        reported(&rep, false).unwrap(),
    );
    assert_eq!(sorted(printed(&line)), sorted(declared("end_to_end")));
    for (name, value, _) in &rep.end_to_end.0 {
        assert!(*value != 0.0, "end-to-end metric {name} reads 0");
    }

    let rep = pipeline::run(&cfg, true).expect("a tiny traced run passes its checks");
    let line = result_line(
        true,
        rep.attempted,
        rep.failed,
        reported(&rep, true).unwrap(),
    );
    assert_eq!(sorted(printed(&line)), sorted(declared("per_layer")));
    assert!(!rep.spans.is_empty());
    assert!(!cfg.work_dir.exists(), "scratch directories are removed");
}

#[test]
fn flipped_byte_in_the_wcd_image_fails_the_roundtrip_check() {
    let _serial = serial();
    let cfg = CampaignConfig {
        max_cycles: Some(1),
        ..Scale::Quick.config()
    };
    let ds = Campaign::standard(11).run(&cfg);
    let image = wcd::encode(DatasetView::new(ds).columns());
    checks::wcd_roundtrip(&image).expect("an untouched image round-trips");
    for at in [0, 9, image.len() / 2, image.len() - 1] {
        let mut bad = image.clone();
        bad[at] ^= 0x01;
        match checks::wcd_roundtrip(&bad) {
            Err(Failure::Check { name, .. }) => assert_eq!(name, "batch.wcd_roundtrip"),
            other => panic!("flip at byte {at}: {other:?}"),
        }
    }
}

#[test]
fn flipped_byte_in_a_served_answer_fails_its_check() {
    let _serial = serial();
    let scale = Scale::Quick;
    let seed = 11;
    let campaign = Campaign::standard(seed);
    let cfg = CampaignConfig {
        seed,
        max_cycles: Some(1),
        threads: Some(2),
        ..scale.config()
    };
    let dir = work_dir("served");
    let _ = std::fs::remove_dir_all(&dir);
    campaign
        .run_checkpointed(&cfg, &dir, false)
        .expect("a tiny journalled run");
    let fp = campaign.fingerprint(&cfg);
    let (view, _) = DatasetView::from_journal(&dir, &fp).expect("the journal replays");
    let offline = World::from_view(scale, seed, view);
    let base = World::from_view(scale, seed, DatasetView::new(Dataset::default()));
    let handle = server::start(
        base,
        JournalSpec {
            dir: dir.clone(),
            fingerprint: fp.clone(),
        },
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            poll_ms: 1,
            ..ServeOptions::default()
        },
    )
    .expect("the server starts");
    checks::wait_for(
        "test.catchup",
        Duration::from_secs(60),
        Duration::from_millis(1),
        || handle.shards_ingested() >= fp.jobs,
    )
    .expect("the server catches up");

    let line = "{\"cmd\":\"table1\"}\n";
    let served = loadgen::ask(handle.addr(), line).expect("table1 is answered");
    let want = query::respond(&offline, &parse_request(line.trim_end()).unwrap());
    checks::answer_matches("durable.table1_identity", &served, &want).expect("identical");
    let mut bad = served.clone().into_bytes();
    let at = bad.len() / 2;
    bad[at] ^= 0x01;
    let bad = String::from_utf8(bad).expect("a flipped low bit keeps ASCII");
    match checks::answer_matches("durable.table1_identity", &bad, &want) {
        Err(Failure::Check { name, .. }) => assert_eq!(name, "durable.table1_identity"),
        other => panic!("{other:?}"),
    }

    // The steady phase compares every answer in the generator: a
    // tampered expectation marks exactly those requests as mismatched.
    let lines = vec![line.to_string()];
    let mut tampered = want.clone().into_bytes();
    tampered[at] ^= 0x01;
    let expect = vec![String::from_utf8(tampered).unwrap()];
    let sched = Schedule {
        addr: handle.addr(),
        lines: &lines,
        expect: Some(&expect),
        seq: &[0],
        rate: 200.0,
        start: Instant::now(),
        slots: 20,
    };
    let (samples, ()) = loadgen::run(&sched, || Ok(())).expect("the generator runs");
    assert_eq!(samples.len(), 20);
    assert!(
        samples.iter().all(|s| s.reply == Reply::Mismatch),
        "{samples:?}"
    );
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
