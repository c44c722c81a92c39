//! One benchmark run: the untraced end-to-end run or the traced
//! per-layer run of one workload.

use std::path::{Path, PathBuf};
use std::time::Duration;

use virt_metrics::recorder::FlightRecorder;
use virt_metrics::{HistogramSnapshot, MetricSnapshot, MetricValue};

use crate::bench::{self, Bench, Window};
use crate::gen::{self, Workload};
use crate::host::{self, HostFacts};
use crate::{alloc, layers, stats, trace};

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("read_ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("xml.format_us", "us"),
        ("xml.parse_us", "us"),
        ("xml.desc_bytes", "bytes"),
        ("rpc.encode_us", "us"),
        ("rpc.decode_us", "us"),
        ("rpc.unix_rtt_us", "us"),
        ("rpc.allocs_per_call", "count"),
        ("daemon.pool_wait_p50_us", "us"),
        ("daemon.pool_wait_p99_us", "us"),
        ("daemon.pool_run_p50_us", "us"),
        ("daemon.wakeups_per_op", "count"),
        ("daemon.bytes_out_per_op", "bytes"),
        ("daemon.overhead_us", "us"),
        ("driver.read_us", "us"),
        ("driver.define_us", "us"),
        ("driver.start_us", "us"),
        ("driver.cycle_us", "us"),
        ("statestore.put_us", "us"),
        ("statestore.flush_us", "us"),
        ("statestore.fsyncs_per_write", "count"),
        ("statestore.coalesced_per_write", "count"),
        ("statestore.sync_p99_us", "us"),
        ("hypersim.define_us", "us"),
        ("hypersim.start_us", "us"),
        ("hypersim.lookup_us", "us"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for stage in trace::STAGES {
        let s = stage.name();
        out.push((format!("stage.{s}.p50_us"), "us"));
        out.push((format!("stage.{s}.p99_us"), "us"));
        out.push((format!("stage.{s}.share"), "ratio"));
    }
    out.push(("trace.overhead_pct".into(), "%"));
    out.push(("trace.coverage".into(), "ratio"));
    out
}

/// Set-ups per untraced run; `setup_s` is their median. Each set-up
/// also runs its share of the measured windows.
const SETUPS: usize = 11;
/// Length of one measured window of an untraced run. Other tenants of
/// the host halve the CPU's speed in spells of 50 ms to seconds, so a
/// window this short mostly falls inside one spell.
const WINDOW: Duration = Duration::from_millis(25);
/// The share of windows, the least disturbed, whose pooled samples give
/// every end-to-end figure.
const KEPT_SHARE: f64 = 0.1;
/// Closed-loop warm-up before measured windows: once per set-up in an
/// untraced run, once in a traced run.
const WARMUP: Duration = Duration::from_millis(250);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory (sockets, statedirs); removed afterwards.
    pub run_dir: PathBuf,
    /// Self-test hook: corrupts the expected hostname and the first
    /// domain's expected state, so correct replies must fail the check.
    pub tamper: bool,
}

/// A metric as measured.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context printed beside the value.
    pub note: String,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Host facts and configuration, as (key, value) pairs.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    fn put(&mut self, name: &str, unit: &'static str, value: f64, note: String) {
        // A non-finite figure would not survive JSON; report it as 0
        // and let the missing samples show in the note.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    fn absorb(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        self.note_errors(&window.errors);
    }

    fn note_errors(&mut self, errors: &[String]) {
        for e in errors {
            if self.errors.len() < 10 {
                self.errors.push(e.clone());
            }
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note_errors(&[what.to_string()]);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one workload once and returns every metric of its kind.
pub fn run(cfg: &RunConfig, repo_root: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.run_dir)
        .map_err(|e| format!("create {}: {e}", cfg.run_dir.display()))?;
    host::sync_filesystem(&cfg.run_dir)?;
    let result = if cfg.trace {
        traced_run(cfg)
    } else {
        untraced_run(cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    let mut outcome = result?;
    let facts = HostFacts::collect(repo_root);
    let w = cfg.workload;
    outcome.facts.splice(
        0..0,
        [
            ("workload", w.name().to_string()),
            ("seed", cfg.seed.to_string()),
            ("trace", u8::from(cfg.trace).to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("connections", w.connections().to_string()),
            ("client_threads", w.connections().to_string()),
            ("population", w.population().to_string()),
            ("disks_per_domain", w.population_disks().to_string()),
            ("nproc", facts.nproc.to_string()),
            ("kernel", facts.kernel),
            ("cpu_model", facts.cpu_model),
            ("git_rev", facts.git_rev),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Ok(outcome)
}

/// Whether this run's daemon persists to a statedir.
fn with_statedir(cfg: &RunConfig) -> bool {
    cfg.trace && cfg.workload.traced_with_statedir()
}

fn statedir_fs(cfg: &RunConfig) -> String {
    if with_statedir(cfg) {
        host::fs_type(&cfg.run_dir)
    } else {
        "none (in-memory daemon)".into()
    }
}

fn set_up(cfg: &RunConfig, slot: usize) -> Result<Bench, String> {
    let mut bench = Bench::set_up(
        cfg.workload,
        cfg.seed,
        &cfg.run_dir,
        slot,
        with_statedir(cfg),
    )?;
    if cfg.tamper {
        let expect = std::sync::Arc::make_mut(&mut bench.expect);
        expect.hostname.push_str("-tampered");
        let first = &mut expect.domains[0];
        first.state = match first.state {
            virt_core::DomainState::Running => virt_core::DomainState::Shutoff,
            _ => virt_core::DomainState::Running,
        };
    }
    Ok(bench)
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.05))
}

fn untraced_run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let recorder = FlightRecorder::global();
    outcome.check(
        !recorder.is_enabled(),
        "flight recorder enabled during an untraced run",
    );
    let recorded = recorder.recorded();

    // Interference from other tenants of the host only ever slows the
    // run, in spells of 50 ms to seconds. So every figure comes from the
    // pooled samples of the least-disturbed windows: those with the
    // lowest median read. Ranking by the median, not by calls completed,
    // leaves the tail alone: a window is not preferred for having missed
    // the rare slow call, so the pooled p99 still counts those. Each
    // set-up runs an equal share of the windows and contributes its own
    // best ones: where the daemon's threads land decides whether a
    // concurrent writer delays 1% of reads or less, so the pool mixes
    // every set-up instead of favouring one. Only the kept windows are
    // held, so memory does not grow with the run.
    let count = ((cfg.seconds / WINDOW.as_secs_f64()).round() as usize).max(SETUPS);
    let median = |w: &Window| {
        if w.reads.is_empty() {
            f64::INFINITY
        } else {
            w.reads.quantile_us(0.5)
        }
    };
    let mut best: Vec<Window> = Vec::new();
    let mut all = Window::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for slot in 0..SETUPS {
        let bench = set_up(cfg, slot)?;
        setups.push(bench.setup.as_secs_f64());
        let (mut readers, mut writer) = bench::clients(&bench, cfg.seed)?;
        let warm = bench::run_window(&mut readers, writer.as_mut(), WARMUP);
        outcome.absorb(&warm);
        let share = count * (slot + 1) / SETUPS - count * slot / SETUPS;
        let keep = ((share as f64 * KEPT_SHARE).round() as usize).max(1);
        let mut kept: Vec<Window> = Vec::with_capacity(keep + 1);
        for _ in 0..share {
            let window = bench::run_window(&mut readers, writer.as_mut(), WINDOW);
            outcome.absorb(&window);
            all.add(&window);
            let at = kept.partition_point(|w| median(w) <= median(&window));
            if at < keep {
                kept.insert(at, window);
                kept.truncate(keep);
            }
        }
        best.extend(kept);
        let (checks, errors) = bench.check_end_state();
        outcome.attempted += checks;
        outcome.failed += errors.len() as u64;
        outcome.note_errors(&errors);
        bench.tear_down();
    }
    outcome.check(
        recorder.recorded() == recorded,
        "flight recorder captured events during an untraced run",
    );
    outcome.facts.push(("statedir_fs".into(), statedir_fs(cfg)));

    let keep = best.len();
    let best = Window::pooled(&best);
    for (kind, ops_per_s, lat) in [
        ("read", best.read_ops_per_s(), &best.reads),
        ("write", best.write_ops_per_s(), &best.writes),
    ] {
        let note = format!(
            "best {keep} of {count} windows; n={} beyond_p99={}",
            lat.len(),
            lat.beyond(0.99)
        );
        outcome.put(&format!("{kind}_ops_per_s"), "1/s", ops_per_s, note.clone());
        outcome.put(
            &format!("{kind}_p50_us"),
            "us",
            lat.quantile_us(0.5),
            note.clone(),
        );
        outcome.put(&format!("{kind}_p99_us"), "us", lat.quantile_us(0.99), note);
    }
    outcome.put(
        "cpu_us_per_op",
        "us",
        best.cpu_us_per_op(),
        format!(
            "best {keep} of {count} windows; cpu_us={} calls={}; whole run {:.3} us, {:.1} reads/s",
            best.cpu_us,
            best.calls(),
            all.cpu_us_per_op(),
            all.read_ops_per_s()
        ),
    );
    outcome.put("peak_rss_mib", "MiB", host::peak_rss_mib(), "VmHWM".into());
    let setup_list = setups
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect::<Vec<_>>()
        .join(",");
    outcome.put(
        "setup_s",
        "s",
        stats::median(&setups).unwrap_or(0.0),
        format!("median of {SETUPS} set-ups [{setup_list}]"),
    );
    Ok(outcome)
}

/// Registry lookups over a before/after pair of daemon snapshots.
struct Delta<'a> {
    before: &'a [MetricSnapshot],
    after: &'a [MetricSnapshot],
}

impl Delta<'_> {
    fn find<'s>(snaps: &'s [MetricSnapshot], name: &str) -> Option<&'s MetricValue> {
        snaps.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    fn counter(&self, name: &str) -> u64 {
        let get = |snaps| match Self::find(snaps, name) {
            Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        };
        get(self.after).saturating_sub(get(self.before))
    }

    fn histogram(&self, name: &str) -> HistogramSnapshot {
        let get = |snaps| match Self::find(snaps, name) {
            Some(MetricValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        };
        match (get(self.before), get(self.after)) {
            (Some(b), Some(a)) => HistogramSnapshot {
                count: a.count.saturating_sub(b.count),
                sum_ns: a.sum_ns.saturating_sub(b.sum_ns),
                buckets: a
                    .buckets
                    .iter()
                    .zip(&b.buckets)
                    .map(|(x, y)| x.saturating_sub(*y))
                    .collect(),
            },
            (None, Some(a)) => a,
            _ => HistogramSnapshot {
                count: 0,
                sum_ns: 0,
                buckets: Vec::new(),
            },
        }
    }
}

fn traced_run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let bench = set_up(cfg, 0)?;
    let (mut readers, mut writer) = bench::clients(&bench, cfg.seed)?;
    let registry = bench.virtd.metrics();

    let warm = bench::run_window(&mut readers, writer.as_mut(), WARMUP);
    outcome.absorb(&warm);

    // A: untraced reference window, with the daemon's own counters.
    let before = registry.snapshot("");
    let plain = bench::run_window(&mut readers, writer.as_mut(), secs(cfg.seconds * 0.4));
    let after = registry.snapshot("");
    outcome.absorb(&plain);
    let delta = Delta {
        before: &before,
        after: &after,
    };

    // B: allocations per remote call, process-wide.
    alloc::start();
    let counted = bench::run_window(&mut readers, writer.as_mut(), secs(cfg.seconds * 0.1));
    let allocations = alloc::stop();
    outcome.absorb(&counted);

    // C: the traced window.
    let (traced, breakdown) =
        trace::traced(|| bench::run_window(&mut readers, writer.as_mut(), secs(cfg.seconds * 0.4)));
    outcome.absorb(&traced);

    // D: the read mix through the embedded driver, no RPC.
    let mut direct = [bench::direct_reader(&bench, &readers, cfg.seed)?];
    let direct_window = bench::run_window(&mut direct, None, secs(cfg.seconds * 0.1));
    outcome.absorb(&direct_window);

    // Standalone layer probes on the workload's own inputs.
    let w = cfg.workload;
    let driver = bench
        .virtd
        .driver("qemu")
        .ok_or("daemon has no qemu driver")?;
    let tag = gen::seed_tag(cfg.seed);
    let template = match w {
        Workload::ChurnMixed => gen::domain_config(
            format!("tpl-{tag}"),
            gen::CHURN_DISKS,
            &mut gen::Rng::new(cfg.seed, 0x400),
        ),
        _ => bench.expect.domains[0].config.clone(),
    };
    let own_configs: Vec<_> = match w {
        Workload::ChurnMixed => {
            let mut rng = gen::Rng::new(cfg.seed, 0x77);
            (0..64)
                .map(|k| gen::domain_config(format!("cw-{tag}-{k:06}"), gen::CHURN_DISKS, &mut rng))
                .collect()
        }
        _ => bench
            .expect
            .domains
            .iter()
            .map(|d| d.config.clone())
            .collect(),
    };
    let (format_us, parse_us, desc_bytes) = layers::xml(&own_configs);
    let replies = layers::replies(w, driver, &bench.expect, cfg.seed);
    let (encode_us, decode_us) = layers::codec(&replies);
    let rtt_us = layers::unix_rtt(&cfg.run_dir)?;
    let (drv_define, drv_start, drv_cycle) = layers::driver_ops(driver, &template, &tag)?;
    let payload = template.to_xml_string();
    let (put_us, flush_us) = layers::statestore(&cfg.run_dir.join("probe-store"), &payload)?;
    let host = bench.virtd.host("qemu").ok_or("daemon has no qemu host")?;
    let (hs_define, hs_start, hs_lookup) = layers::hypersim(host, &template, &tag)?;

    let (checks, errors) = bench.check_end_state();
    outcome.attempted += checks;
    outcome.failed += errors.len() as u64;
    outcome.note_errors(&errors);
    outcome.facts.push(("statedir_fs".into(), statedir_fs(cfg)));
    bench.tear_down();

    let calls = plain.calls().max(1) as f64;
    let writes = plain.writes.len();
    let per_write = |n: u64| {
        if writes == 0 {
            0.0
        } else {
            n as f64 / writes as f64
        }
    };
    let wait = delta.histogram("pool.virtd.wait_us");
    let run_h = delta.histogram("pool.virtd.run_us");
    let sync = delta.histogram("statestore.sync_us");
    let hist_note = |h: &HistogramSnapshot| format!("n={}", h.count);
    let remote_p50 = plain.reads.quantile_us(0.5);
    let direct_p50 = direct_window.reads.quantile_us(0.5);
    let n = |lat: &stats::Latencies| format!("n={}", lat.len());

    outcome.put(
        "xml.format_us",
        "us",
        format_us,
        format!("{} configs", own_configs.len()),
    );
    outcome.put(
        "xml.parse_us",
        "us",
        parse_us,
        format!("{} configs", own_configs.len()),
    );
    outcome.put("xml.desc_bytes", "bytes", desc_bytes, String::new());
    outcome.put(
        "rpc.encode_us",
        "us",
        encode_us,
        format!("{} replies of the mix", replies.len()),
    );
    outcome.put(
        "rpc.decode_us",
        "us",
        decode_us,
        format!("{} replies of the mix", replies.len()),
    );
    outcome.put("rpc.unix_rtt_us", "us", rtt_us, "n=4096 bare frames".into());
    outcome.put(
        "rpc.allocs_per_call",
        "count",
        allocations as f64 / counted.calls().max(1) as f64,
        format!("allocs={allocations} calls={}", counted.calls()),
    );
    outcome.put(
        "daemon.pool_wait_p50_us",
        "us",
        wait.p50_us().unwrap_or(0.0),
        hist_note(&wait),
    );
    outcome.put(
        "daemon.pool_wait_p99_us",
        "us",
        wait.p99_us().unwrap_or(0.0),
        hist_note(&wait),
    );
    outcome.put(
        "daemon.pool_run_p50_us",
        "us",
        run_h.p50_us().unwrap_or(0.0),
        hist_note(&run_h),
    );
    outcome.put(
        "daemon.wakeups_per_op",
        "count",
        delta.counter("server.virtd.event_loop.wakeups") as f64 / calls,
        format!("calls={calls}"),
    );
    outcome.put(
        "daemon.bytes_out_per_op",
        "bytes",
        delta.counter("server.virtd.bytes_out") as f64 / calls,
        format!("calls={calls}"),
    );
    outcome.put(
        "daemon.overhead_us",
        "us",
        remote_p50 - direct_p50,
        format!("remote p50 {remote_p50:.3} - direct p50 {direct_p50:.3}"),
    );
    outcome.put("driver.read_us", "us", direct_p50, n(&direct_window.reads));
    outcome.put("driver.define_us", "us", drv_define, "n=32".into());
    outcome.put("driver.start_us", "us", drv_start, "n=32".into());
    outcome.put("driver.cycle_us", "us", drv_cycle, "n=32".into());
    outcome.put("statestore.put_us", "us", put_us, "n=48 standalone".into());
    outcome.put(
        "statestore.flush_us",
        "us",
        flush_us,
        "n=48 standalone".into(),
    );
    outcome.put(
        "statestore.fsyncs_per_write",
        "count",
        per_write(delta.counter("statestore.group_commits")),
        format!("writes={writes}"),
    );
    outcome.put(
        "statestore.coalesced_per_write",
        "count",
        per_write(delta.counter("statestore.coalesced")),
        format!("writes={writes}"),
    );
    outcome.put(
        "statestore.sync_p99_us",
        "us",
        sync.p99_us().unwrap_or(0.0),
        hist_note(&sync),
    );
    outcome.put("hypersim.define_us", "us", hs_define, "n=64".into());
    outcome.put("hypersim.start_us", "us", hs_start, "n=64".into());
    outcome.put("hypersim.lookup_us", "us", hs_lookup, "n=64".into());

    for (i, stage) in trace::STAGES.iter().enumerate() {
        let s = stage.name();
        let share = breakdown.share(i);
        let lat = &breakdown.per_call[i];
        let note = format!("n={}", lat.len());
        outcome.put(
            &format!("stage.{s}.p50_us"),
            "us",
            lat.quantile_us(0.5),
            note.clone(),
        );
        outcome.put(
            &format!("stage.{s}.p99_us"),
            "us",
            lat.quantile_us(0.99),
            note.clone(),
        );
        outcome.put(&format!("stage.{s}.share"), "ratio", share, note);
    }
    let untraced_ops = plain.read_ops_per_s();
    let traced_ops = traced.read_ops_per_s();
    outcome.put(
        "trace.overhead_pct",
        "%",
        (untraced_ops - traced_ops) / untraced_ops * 100.0,
        format!("untraced {untraced_ops:.1} vs traced {traced_ops:.1} read ops/s"),
    );
    outcome.put(
        "trace.coverage",
        "ratio",
        breakdown.complete as f64 / traced.attempted.max(1) as f64,
        format!(
            "complete={} incomplete={} calls={}",
            breakdown.complete,
            breakdown.incomplete,
            traced.calls()
        ),
    );
    Ok(outcome)
}
