//! Per-layer probes: each times calls into one module's public API on
//! the workload's own inputs, from outside the program.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use hypersim::SimHost;
use virt_core::driver::HypervisorConnection;
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::protocol::{WireDomain, WireDomainStatsList, WireDomainStatsRecord};
use virt_core::typedparam::TypedParamList;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{ObjectKind, StateStore};
use virt_rpc::message::{Header, Packet, REMOTE_PROGRAM};
use virt_rpc::transport::{Listener, Transport, UnixSocketListener, UnixTransport};
use virt_rpc::xdr::{XdrEncode, XdrError};

use crate::check::Expect;
use crate::gen::{self, Op, Rng, Workload};
use crate::stats::{self, Latencies};

/// Batches per timing; the reported figure is their median.
const BATCHES: usize = 9;
/// Minimum length of one timed batch.
const BATCH_TIME: Duration = Duration::from_millis(2);

/// Median per-call time of `f` in µs over [`BATCHES`] batches, each
/// long enough for the clock to resolve it.
pub fn time_per_call(mut f: impl FnMut()) -> f64 {
    let mut per_batch = 1usize;
    loop {
        let started = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        if started.elapsed() >= BATCH_TIME {
            break;
        }
        per_batch *= 2;
    }
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            started.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

/// `core::xmlfmt`: (format µs, parse µs, mean document bytes).
pub fn xml(configs: &[DomainConfig]) -> (f64, f64, f64) {
    let docs: Vec<String> = configs.iter().map(DomainConfig::to_xml_string).collect();
    let mut i = 0;
    let format = time_per_call(|| {
        black_box(black_box(&configs[i % configs.len()]).to_xml_string());
        i += 1;
    });
    let parse = time_per_call(|| {
        black_box(DomainConfig::from_xml_str(black_box(&docs[i % docs.len()])).ok());
        i += 1;
    });
    let bytes = docs.iter().map(String::len).sum::<usize>() as f64 / docs.len() as f64;
    (format, parse, bytes)
}

/// One reply payload of a workload's mix, as the daemon sends it.
pub enum Reply {
    Domain(WireDomain),
    Flag(bool),
    Text(String),
    Stats(WireDomainStatsList),
    Empty,
}

impl Reply {
    fn payload(&self) -> Vec<u8> {
        match self {
            Reply::Domain(d) => d.to_xdr(),
            Reply::Flag(b) => b.to_xdr(),
            Reply::Text(s) => s.to_xdr(),
            Reply::Stats(s) => s.to_xdr(),
            Reply::Empty => ().to_xdr(),
        }
    }

    fn decode(&self, packet: &Packet) -> Result<(), XdrError> {
        match self {
            Reply::Domain(_) => packet.decode_payload::<WireDomain>().map(drop),
            Reply::Flag(_) => packet.decode_payload::<bool>().map(drop),
            Reply::Text(_) => packet.decode_payload::<String>().map(drop),
            Reply::Stats(_) => packet.decode_payload::<WireDomainStatsList>().map(drop),
            Reply::Empty => packet.decode_payload::<()>(),
        }
    }
}

/// The replies of 256 calls of `workload`'s mix (plus, for churn, one
/// writer lifecycle), produced by the embedded driver.
pub fn replies(
    workload: Workload,
    driver: &EmbeddedConnection,
    expect: &Expect,
    seed: u64,
) -> Vec<Reply> {
    let mut rng = Rng::new(seed, 0x300);
    let writes = workload != Workload::ChurnMixed;
    let n = expect.domains.len();
    let domain = |d: usize| {
        let record = driver
            .lookup_domain_by_name(expect.name(d))
            .expect("population domain exists");
        Reply::Domain(WireDomain::from(&record))
    };
    let mut out: Vec<Reply> = (0..256)
        .map(
            |_| match gen::next_op(workload, writes, &mut rng, n, 0, 1) {
                Op::Lookup(d) | Op::Info(d) | Op::State(d) => domain(d),
                Op::Autostart(d) => {
                    Reply::Flag(driver.get_autostart(expect.name(d)).expect("autostart"))
                }
                Op::Hostname => Reply::Text(expect.hostname.clone()),
                Op::XmlDesc(d) => {
                    Reply::Text(driver.dump_domain_xml(expect.name(d)).expect("dumpxml"))
                }
                Op::AllStats => Reply::Stats(WireDomainStatsList(
                    driver
                        .get_all_domain_stats()
                        .expect("stats")
                        .into_iter()
                        .map(|r| WireDomainStatsRecord {
                            name: r.name,
                            params: TypedParamList(r.params),
                        })
                        .collect(),
                )),
                Op::ToggleAutostart(_) => Reply::Empty,
            },
        )
        .collect();
    if workload == Workload::ChurnMixed {
        // define, start, suspend, resume, destroy answer with a domain;
        // undefine with nothing.
        out.extend((0..5).map(|_| domain(0)));
        out.push(Reply::Empty);
    }
    out
}

/// `virt-rpc` framing: (encode µs, decode µs) per reply of the mix —
/// XDR payload plus header and length prefix, as the daemon sends and
/// the client receives it.
pub fn codec(replies: &[Reply]) -> (f64, f64) {
    let header = Header::call(REMOTE_PROGRAM, 0, 1).reply_ok();
    let mut frame = Vec::new();
    let mut i = 0;
    let encode = time_per_call(|| {
        let reply = &replies[i % replies.len()];
        let packet = Packet {
            header,
            payload: reply.payload(),
        };
        packet.encode_frame_into(&mut frame);
        black_box(&frame);
        i += 1;
    });
    let frames: Vec<Vec<u8>> = replies
        .iter()
        .map(|r| {
            Packet {
                header,
                payload: r.payload(),
            }
            .to_frame()
        })
        .collect();
    let decode = time_per_call(|| {
        let k = i % replies.len();
        let packet = Packet::from_body(&frames[k][4..]).expect("frame we encoded");
        replies[k].decode(&packet).expect("payload we encoded");
        i += 1;
    });
    (encode, decode)
}

/// Median round trip of a bare 44-byte frame (a header-only message)
/// over a unix socket to an echo thread the benchmark owns: the floor
/// under every remote call.
pub fn unix_rtt(run_dir: &Path) -> Result<f64, String> {
    let path = run_dir.join("echo.sock");
    let path = path.to_str().ok_or("socket path is not UTF-8")?.to_string();
    let listener = UnixSocketListener::bind(&path).map_err(|e| format!("bind {path}: {e}"))?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| -> Result<(), String> {
            let conn = listener.accept().map_err(|e| format!("accept: {e}"))?;
            let mut buf = Vec::new();
            while let Ok(n) = conn.recv_frame_into(&mut buf) {
                if conn.send_frame(&buf[..n]).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let rtt = (|| {
            let client =
                UnixTransport::connect(&path).map_err(|e| format!("connect {path}: {e}"))?;
            let body = [7u8; 40];
            let mut buf = Vec::new();
            let mut samples = Latencies::default();
            for round in 0..4096 + 256 {
                let started = Instant::now();
                client
                    .send_frame(&body)
                    .map_err(|e| format!("echo send: {e}"))?;
                let n = client
                    .recv_frame_into(&mut buf)
                    .map_err(|e| format!("echo recv: {e}"))?;
                let ns = started.elapsed().as_nanos() as u64;
                if n != body.len() {
                    return Err(format!("echo returned {n} bytes, sent {}", body.len()));
                }
                if round >= 256 {
                    samples.push(ns);
                }
            }
            Ok(samples.quantile_us(0.5))
            // `client` drops here, which ends the echo loop.
        })();
        // Unblocks the echo thread's accept if the client never
        // connected; otherwise a no-op dial after the loop has ended.
        listener.close();
        let served = echo.join().expect("echo thread panicked");
        let _ = std::fs::remove_file(&path);
        served.and(rtt)
    })
}

/// `core::drivers::embedded` with no RPC: (define µs, start µs,
/// define→…→undefine cycle µs), each a median over probe domains
/// built like the workload's own.
pub fn driver_ops(
    driver: &EmbeddedConnection,
    template: &DomainConfig,
    tag: &str,
) -> Result<(f64, f64, f64), String> {
    const N: usize = 32;
    let xml_for = |name: String| {
        let mut config = template.clone();
        config.name = name;
        config.uuid = None;
        config.to_xml_string()
    };
    let fail = |what: &str, e: virt_core::VirtError| format!("driver {what}: {e}");
    let mut define = Latencies::default();
    let mut start = Latencies::default();
    let names: Vec<String> = (0..N).map(|k| format!("probe-{tag}-{k:02}")).collect();
    for name in &names {
        let xml = xml_for(name.clone());
        let started = Instant::now();
        driver
            .define_domain_xml(&xml)
            .map_err(|e| fail("define", e))?;
        define.push(started.elapsed().as_nanos() as u64);
    }
    for name in &names {
        let started = Instant::now();
        driver.start_domain(name).map_err(|e| fail("start", e))?;
        start.push(started.elapsed().as_nanos() as u64);
    }
    for name in &names {
        driver
            .destroy_domain(name)
            .map_err(|e| fail("destroy", e))?;
        driver
            .undefine_domain(name)
            .map_err(|e| fail("undefine", e))?;
    }
    let mut cycle = Latencies::default();
    for k in 0..N {
        let name = format!("probe-{tag}-c{k:02}");
        let xml = xml_for(name.clone());
        let started = Instant::now();
        driver
            .define_domain_xml(&xml)
            .map_err(|e| fail("define", e))?;
        driver.start_domain(&name).map_err(|e| fail("start", e))?;
        driver
            .suspend_domain(&name)
            .map_err(|e| fail("suspend", e))?;
        driver.resume_domain(&name).map_err(|e| fail("resume", e))?;
        driver
            .destroy_domain(&name)
            .map_err(|e| fail("destroy", e))?;
        driver
            .undefine_domain(&name)
            .map_err(|e| fail("undefine", e))?;
        cycle.push(started.elapsed().as_nanos() as u64);
    }
    Ok((
        define.quantile_us(0.5),
        start.quantile_us(0.5),
        cycle.quantile_us(0.5),
    ))
}

/// `core::statestore` on a standalone store in `dir` (same filesystem
/// as the daemon's statedir): (durable `put` µs, `put_behind` + `flush`
/// µs), medians.
pub fn statestore(dir: &Path, payload: &str) -> Result<(f64, f64), String> {
    const N: usize = 48;
    let _ = std::fs::remove_dir_all(dir);
    let result = (|| {
        let store = StateStore::open(dir).map_err(|e| format!("statestore open: {e}"))?;
        let mut put = Latencies::default();
        let mut flush = Latencies::default();
        for k in 0..N {
            // Distinct names: the store skips a frame identical to the
            // one already committed for the same object.
            let started = Instant::now();
            store
                .put(ObjectKind::Domain, "qemu", &format!("p{k}"), payload)
                .map_err(|e| format!("statestore put: {e}"))?;
            put.push(started.elapsed().as_nanos() as u64);
            let started = Instant::now();
            store.put_behind(ObjectKind::Domain, "qemu", &format!("b{k}"), payload);
            store
                .flush()
                .map_err(|e| format!("statestore flush: {e}"))?;
            flush.push(started.elapsed().as_nanos() as u64);
        }
        Ok((put.quantile_us(0.5), flush.quantile_us(0.5)))
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// `hypersim` directly: (define µs, start µs, lookup µs), medians.
pub fn hypersim(
    host: &SimHost,
    template: &DomainConfig,
    tag: &str,
) -> Result<(f64, f64, f64), String> {
    const N: usize = 64;
    let fail = |what: &str, e: hypersim::SimError| format!("hypersim {what}: {e}");
    let names: Vec<String> = (0..N).map(|k| format!("hp-{tag}-{k:02}")).collect();
    let mut define = Latencies::default();
    let mut start = Latencies::default();
    let mut lookup = Latencies::default();
    for name in &names {
        let mut config = template.clone();
        config.name = name.clone();
        let spec = config.to_spec();
        let started = Instant::now();
        host.define_domain(spec).map_err(|e| fail("define", e))?;
        define.push(started.elapsed().as_nanos() as u64);
    }
    for name in &names {
        let started = Instant::now();
        host.start_domain(name).map_err(|e| fail("start", e))?;
        start.push(started.elapsed().as_nanos() as u64);
        let started = Instant::now();
        black_box(host.domain(name).map_err(|e| fail("lookup", e))?);
        lookup.push(started.elapsed().as_nanos() as u64);
    }
    for name in &names {
        host.destroy_domain(name).map_err(|e| fail("destroy", e))?;
        host.undefine_domain(name)
            .map_err(|e| fail("undefine", e))?;
    }
    Ok((
        define.quantile_us(0.5),
        start.quantile_us(0.5),
        lookup.quantile_us(0.5),
    ))
}
