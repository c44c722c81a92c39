//! Self-test of the benchmark: short runs of every workload emit every
//! metric with its unit and pass their own checks, and wrong expected
//! replies make the checks fail.
//!
//! Run: `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::check::{self, Expect, ExpectedDomain};
use perfbench::gen::{self, Workload};
use perfbench::run::{self, Outcome, RunConfig};
use virt_core::driver::{DomainRecord, DomainState, DomainStatsRecord};
use virt_core::typedparam::TypedParam;
use virt_core::Uuid;

/// The flight recorder and the allocation counter are process-wide, so
/// runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn short_run(workload: Workload, trace: bool, tamper: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunConfig {
        workload,
        seed: 5,
        seconds: 0.5,
        trace,
        run_dir: PathBuf::from(".bench_run").join(format!(
            "selftest-{}-{}-{}",
            workload.name(),
            u8::from(trace),
            u8::from(tamper)
        )),
        tamper,
    };
    let outcome = run::run(&cfg, &PathBuf::from("..")).expect("benchmark run");
    let _ = std::fs::remove_dir(".bench_run");
    outcome
}

fn assert_emits(outcome: &Outcome, expected: &[(String, &str)], nonzero: bool) {
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted, "metric names and order");
    for (metric, (_, unit)) in outcome.metrics.iter().zip(expected) {
        assert_eq!(metric.unit, *unit, "unit of {}", metric.name);
        assert!(
            metric.value.is_finite(),
            "{} = {}",
            metric.name,
            metric.value
        );
        if nonzero {
            assert!(
                metric.value > 0.0,
                "{} must be positive, got {}",
                metric.name,
                metric.value
            );
        }
    }
}

fn end_to_end() -> Vec<(String, &'static str)> {
    run::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

fn check_workload(workload: Workload) {
    let plain = short_run(workload, false, false);
    assert!(plain.correct(), "{}: {:?}", workload.name(), plain.errors);
    assert!(plain.attempted > 0);
    assert_emits(&plain, &end_to_end(), true);
    for key in [
        "nproc",
        "kernel",
        "cpu_model",
        "statedir_fs",
        "git_rev",
        "seed",
        "connections",
    ] {
        assert!(
            plain.facts.iter().any(|(k, _)| k == key),
            "fact {key} missing"
        );
    }

    let traced = short_run(workload, true, false);
    assert!(
        traced.correct(),
        "{} traced: {:?}",
        workload.name(),
        traced.errors
    );
    assert_emits(&traced, &run::per_layer(), false);
    let coverage = traced
        .metrics
        .iter()
        .find(|m| m.name == "trace.coverage")
        .expect("coverage");
    assert!(coverage.value > 0.9, "trace coverage {}", coverage.value);
}

#[test]
fn serial_small_emits_every_metric() {
    check_workload(Workload::SerialSmall);
}

#[test]
fn inventory_bulk_emits_every_metric() {
    check_workload(Workload::InventoryBulk);
}

#[test]
fn churn_mixed_emits_every_metric() {
    check_workload(Workload::ChurnMixed);
}

#[test]
fn wrong_expected_replies_fail_the_run() {
    for workload in Workload::ALL {
        let outcome = short_run(workload, false, true);
        assert!(
            !outcome.correct(),
            "{} passed with tampered expectations",
            workload.name()
        );
        assert!(outcome.failed > 0 && outcome.error_ratio() > 0.0);
    }
}

fn expected() -> ExpectedDomain {
    let mut config = gen::domain_config("vm-0".into(), 2, &mut gen::Rng::new(1, 1));
    let uuid = Uuid::from_bytes([3; 16]);
    config.uuid = Some(uuid);
    ExpectedDomain {
        uuid,
        state: DomainState::Running,
        config,
    }
}

#[test]
fn checks_reject_wrong_replies() {
    let want = expected();
    let record = DomainRecord {
        name: want.config.name.clone(),
        uuid: want.uuid,
        id: Some(1),
        state: DomainState::Running,
        memory_mib: want.config.memory_mib,
        max_memory_mib: want.config.max_memory_mib,
        vcpus: want.config.vcpus,
        persistent: true,
        has_managed_save: false,
        autostart: false,
        cpu_time_ns: 0,
    };
    assert!(check::check_record(&record, &want, false).is_ok());
    assert!(check::check_record(&record, &want, true).is_err());
    let paused = DomainRecord {
        state: DomainState::Paused,
        ..record
    };
    assert!(check::check_record(&paused, &want, false).is_err());

    let xml = want.config.to_xml_string();
    assert!(check::check_xml(&xml, &want, &mut None).is_ok());
    let mut other = want.config.clone();
    other.disks.pop();
    assert!(check::check_xml(&other.to_xml_string(), &want, &mut None).is_err());
    let mut seen = Some(xml.clone());
    assert!(check::check_xml(&xml.replace("vda", "vdz"), &want, &mut seen).is_err());

    let expect = Expect::new("host".into(), vec![want.clone()]);
    let stats = |state: DomainState| {
        vec![DomainStatsRecord {
            name: want.config.name.clone(),
            params: vec![
                TypedParam::uint("state.state", state.as_u32()),
                TypedParam::ullong("balloon.current", want.config.memory_mib),
                TypedParam::uint("vcpu.current", want.config.vcpus),
            ],
        }]
    };
    assert!(check::check_stats(&stats(DomainState::Running), &expect).is_ok());
    assert!(check::check_stats(&stats(DomainState::Shutoff), &expect).is_err());
    assert!(check::check_stats(&[], &expect).is_err());
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mentions = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for workload in Workload::ALL {
        assert!(
            mentions(workload.name()),
            "workload {} missing",
            workload.name()
        );
    }
    for (name, unit) in end_to_end().iter().chain(&run::per_layer()) {
        assert!(mentions(name), "metric {name} missing");
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} has another unit"
        );
    }
}
