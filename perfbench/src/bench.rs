//! The daemon under test, its clients, and closed-loop measurement
//! windows.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypersim::personality::QemuLike;
use hypersim::{LatencyModel, SimHost};
use virt_core::driver::HypervisorConnection;
use virt_core::{Connect, Domain};
use virt_rpc::transport::UnixSocketListener;
use virtd::{Virtd, VirtdConfig};

use crate::check::{self, Expect, ExpectedDomain};
use crate::gen::{self, Op, Rng, Workload};
use crate::host;
use crate::stats::Latencies;

/// How many mismatch messages a window keeps for the report.
const KEPT_ERRORS: usize = 5;

/// One set-up daemon with its population defined and clients connected.
pub struct Bench {
    pub workload: Workload,
    pub virtd: Virtd,
    pub expect: Arc<Expect>,
    pub clients: Vec<Connect>,
    /// Daemon build through population defined and clients connected.
    pub setup: Duration,
}

impl Bench {
    /// Builds a daemon serving a unix socket under `run_dir` (persisting
    /// to a statedir there if `statedir`), connects the workload's
    /// clients and defines the seeded population through them. `slot`
    /// keeps set-ups apart.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        run_dir: &Path,
        slot: usize,
        statedir: bool,
    ) -> Result<Bench, String> {
        let started = Instant::now();
        // A host big enough that the running eighth never hits capacity;
        // zero-latency so the measurement is the management layer alone.
        let host = SimHost::builder(format!("perfbench{slot}-qemu"))
            .personality(QemuLike)
            .cpus(64)
            .memory_mib(1 << 20)
            .latency(LatencyModel::zero())
            .seed(seed)
            .build();
        let mut config = VirtdConfig::new();
        if statedir {
            let dir = run_dir.join(format!("state{slot}"));
            let _ = std::fs::remove_dir_all(&dir);
            config = config.statedir(dir);
        }
        let virtd = Virtd::builder(format!("perfbench{slot}"))
            .config(config)
            .host(host)
            .build()
            .map_err(|e| format!("daemon build: {e}"))?;
        // A relative socket path keeps clear of the 108-byte sun_path
        // limit however deep the checkout sits.
        let socket = run_dir.join(format!("virtd{slot}.sock"));
        let socket = socket.to_str().ok_or("socket path is not UTF-8")?;
        let listener =
            UnixSocketListener::bind(socket).map_err(|e| format!("bind {socket}: {e}"))?;
        virtd.serve(Box::new(listener));
        let uri = format!("qemu+unix:///system?socket={socket}");

        let clients = (0..workload.connections())
            .map(|_| open(&uri))
            .collect::<Result<Vec<_>, _>>()?;
        // Each connection defines its share of the population, so with a
        // statedir concurrent durable defines can share group commits.
        let plan = gen::population(workload, seed);
        let mut defined = std::thread::scope(|scope| {
            let shares: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(c, conn)| {
                    let plan = &plan;
                    let step = clients.len();
                    scope.spawn(move || {
                        (c..plan.len())
                            .step_by(step)
                            .map(|i| define(conn, &plan[i]).map(|d| (i, d)))
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            shares
                .into_iter()
                .map(|share| share.join().expect("set-up thread panicked"))
                .collect::<Result<Vec<_>, String>>()
        })?
        .into_iter()
        .flatten()
        .collect::<Vec<_>>();
        defined.sort_by_key(|(i, _)| *i);
        let domains = defined.into_iter().map(|(_, d)| d).collect();
        let driver = virtd.driver("qemu").ok_or("daemon has no qemu driver")?;
        let hostname = driver.hostname().map_err(|e| format!("hostname: {e}"))?;
        let expect = Arc::new(Expect::new(hostname, domains));
        Ok(Bench {
            workload,
            virtd,
            expect,
            clients,
            setup: started.elapsed(),
        })
    }

    /// A connection to the daemon's embedded driver with no RPC in the
    /// way: the same API, minus the remote path.
    pub fn direct(&self) -> Connect {
        let driver = self
            .virtd
            .driver("qemu")
            .expect("set-up attached a qemu host");
        Connect::from_driver(Arc::clone(driver) as Arc<dyn HypervisorConnection>)
    }

    /// Verifies the end state: `list --all` is exactly the population
    /// and, with a statedir, a flushed store holds exactly it too.
    /// Returns the number of checks made and the failures.
    pub fn check_end_state(&self) -> (u64, Vec<String>) {
        let mut errors = Vec::new();
        let mut checks = 1;
        match self.clients[0].list_domain_names() {
            Ok(names) => {
                if let Err(e) = self
                    .expect
                    .check_names("list --all", names.iter().map(String::as_str))
                {
                    errors.push(e);
                }
            }
            Err(e) => errors.push(format!("list --all: {e}")),
        }
        let driver = self
            .virtd
            .driver("qemu")
            .expect("set-up attached a qemu host");
        if let Some(binding) = driver.store_binding() {
            checks += 1;
            let store = binding.store();
            match store.flush() {
                Ok(()) => {
                    let records = store.load_all(virt_core::ObjectKind::Domain, binding.driver());
                    if let Err(e) = self.expect.check_names(
                        "statestore load_all",
                        records.iter().map(|(n, _)| n.as_str()),
                    ) {
                        errors.push(e);
                    }
                }
                Err(e) => errors.push(format!("statestore flush: {e}")),
            }
        }
        (checks, errors)
    }

    /// Closes the clients and stops the daemon. Its statedir stays
    /// until the run directory goes: deleting thousands of files now
    /// would load the journal under the next measurement's fsyncs.
    pub fn tear_down(self) {
        for client in &self.clients {
            client.close();
        }
        self.virtd.shutdown();
    }
}

/// Defines one planned domain (starting it if it belongs to the running
/// eighth) and returns what its replies must look like from then on.
fn define(conn: &Connect, planned: &gen::Planned) -> Result<ExpectedDomain, String> {
    let name = &planned.config.name;
    let domain = conn
        .define_domain(&planned.config)
        .map_err(|e| format!("define {name}: {e}"))?;
    let state = if planned.running {
        domain.start().map_err(|e| format!("start {name}: {e}"))?;
        virt_core::DomainState::Running
    } else {
        virt_core::DomainState::Shutoff
    };
    let mut config = planned.config.clone();
    config.uuid = Some(domain.uuid());
    Ok(ExpectedDomain {
        uuid: domain.uuid(),
        state,
        config,
    })
}

fn open(uri: &str) -> Result<Connect, String> {
    Connect::builder(uri)
        .open()
        .map_err(|e| format!("connect {uri}: {e}"))
}

/// A closed-loop client running one mix over the population.
pub struct Reader {
    conn: Connect,
    handles: Vec<Domain>,
    expect: Arc<Expect>,
    mix: Workload,
    with_writes: bool,
    rng: Rng,
    client: usize,
    clients: usize,
    autostart: Vec<bool>,
    xml_seen: Vec<Option<String>>,
}

impl Reader {
    /// Looks up a handle per domain on `conn`, as a real caller would.
    pub fn new(
        conn: Connect,
        expect: Arc<Expect>,
        mix: Workload,
        with_writes: bool,
        rng: Rng,
        client: usize,
        clients: usize,
    ) -> Result<Reader, String> {
        let handles = (0..expect.domains.len())
            .map(|i| {
                conn.domain_lookup_by_name(expect.name(i))
                    .map_err(|e| format!("lookup {}: {e}", expect.name(i)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = handles.len();
        Ok(Reader {
            conn,
            handles,
            expect,
            mix,
            with_writes,
            rng,
            client,
            clients,
            autostart: vec![false; n],
            xml_seen: vec![None; n],
        })
    }

    /// Issues one call; returns whether it was a write, its latency, and
    /// the verdict on its reply.
    fn step(&mut self) -> (bool, u64, Result<(), String>) {
        let domains = self.handles.len();
        let op = gen::next_op(
            self.mix,
            self.with_writes,
            &mut self.rng,
            domains,
            self.client,
            self.clients,
        );
        let started = Instant::now();
        macro_rules! timed {
            ($call:expr) => {{
                let reply = $call;
                (
                    started.elapsed().as_nanos() as u64,
                    reply.map_err(|e| e.to_string()),
                )
            }};
        }
        let expect = &*self.expect;
        let (ns, verdict) = match op {
            Op::Lookup(d) => {
                let (ns, reply) = timed!(self.conn.domain_lookup_by_name(expect.name(d)));
                let want = (expect.name(d), expect.domains[d].uuid);
                (
                    ns,
                    reply.and_then(|dom| check::mismatch("lookup", (dom.name(), dom.uuid()), want)),
                )
            }
            Op::Info(d) => {
                let (ns, reply) = timed!(self.handles[d].info());
                (
                    ns,
                    reply.and_then(|r| {
                        check::check_record(&r, &expect.domains[d], self.autostart[d])
                    }),
                )
            }
            Op::State(d) => {
                let (ns, reply) = timed!(self.handles[d].state());
                let want = expect.domains[d].state;
                (ns, reply.and_then(|s| check::mismatch("state", s, want)))
            }
            Op::Autostart(d) => {
                let (ns, reply) = timed!(self.handles[d].autostart());
                let want = self.autostart[d];
                (
                    ns,
                    reply.and_then(|a| check::mismatch("autostart", a, want)),
                )
            }
            Op::Hostname => {
                let (ns, reply) = timed!(self.conn.hostname());
                let want = expect.hostname.as_str();
                (
                    ns,
                    reply.and_then(|h| check::mismatch("hostname", h.as_str(), want)),
                )
            }
            Op::XmlDesc(d) => {
                let (ns, reply) = timed!(self.handles[d].xml_desc());
                (
                    ns,
                    reply.and_then(|xml| {
                        check::check_xml(&xml, &expect.domains[d], &mut self.xml_seen[d])
                    }),
                )
            }
            Op::AllStats => {
                let (ns, reply) = timed!(self.conn.get_all_domain_stats());
                (
                    ns,
                    reply.and_then(|records| check::check_stats(&records, expect)),
                )
            }
            Op::ToggleAutostart(d) => {
                let want = !self.autostart[d];
                let (ns, reply) = timed!(self.handles[d].set_autostart(want));
                if reply.is_ok() {
                    self.autostart[d] = want;
                }
                (ns, reply)
            }
        };
        (op.is_write(), ns, verdict)
    }
}

/// A lifecycle call of the churn writer after define.
type LifecycleCall = fn(&Domain) -> virt_core::VirtResult<()>;

/// The churn writer: define (8-disk XML) → start → suspend → resume →
/// destroy → undefine, on names of its own.
pub struct Writer {
    conn: Connect,
    rng: Rng,
    tag: String,
    cycles: u64,
}

impl Writer {
    pub fn new(conn: Connect, seed: u64) -> Writer {
        Writer {
            conn,
            rng: Rng::new(seed, 0x77),
            tag: gen::seed_tag(seed),
            cycles: 0,
        }
    }

    /// One full lifecycle; every call is a write sample.
    fn cycle(&mut self, out: &mut Partial) {
        let name = format!("cw-{}-{:06}", self.tag, self.cycles);
        self.cycles += 1;
        let config = gen::domain_config(name.clone(), gen::CHURN_DISKS, &mut self.rng);
        let started = Instant::now();
        let defined = self.conn.define_domain(&config);
        out.write(
            started,
            defined
                .as_ref()
                .map(drop)
                .map_err(|e| format!("define {name}: {e}")),
        );
        let Ok(domain) = defined else { return };
        let steps: [(&str, LifecycleCall); 5] = [
            ("start", Domain::start),
            ("suspend", Domain::suspend),
            ("resume", Domain::resume),
            ("destroy", Domain::destroy),
            ("undefine", Domain::undefine),
        ];
        for (what, call) in steps {
            let started = Instant::now();
            let result = call(&domain);
            out.write(started, result.map_err(|e| format!("{what} {name}: {e}")));
        }
    }
}

/// One thread's share of a window.
#[derive(Default)]
struct Partial {
    reads: Latencies,
    writes: Latencies,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Partial {
    fn record(&mut self, write: bool, ns: u64, verdict: Result<(), String>) {
        self.attempted += 1;
        match verdict {
            Ok(()) => {
                if write {
                    self.writes.push(ns);
                } else {
                    self.reads.push(ns);
                }
            }
            Err(e) => {
                // A failed or wrong reply is not a latency sample.
                self.failed += 1;
                if self.errors.len() < KEPT_ERRORS {
                    self.errors.push(e);
                }
            }
        }
    }

    fn write(&mut self, started: Instant, verdict: Result<(), String>) {
        self.record(true, started.elapsed().as_nanos() as u64, verdict);
    }
}

/// The merged result of one closed-loop window.
#[derive(Default)]
pub struct Window {
    pub reads: Latencies,
    pub writes: Latencies,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall: Duration,
    pub cpu_us: u64,
}

impl Window {
    pub fn calls(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    pub fn read_ops_per_s(&self) -> f64 {
        self.reads.len() as f64 / self.wall.as_secs_f64()
    }

    pub fn write_ops_per_s(&self) -> f64 {
        self.writes.len() as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_us as f64 / self.calls().max(1) as f64
    }

    /// Adds `w` to `self`, as if it had run right after.
    pub fn add(&mut self, w: &Window) {
        self.reads.merge(&w.reads);
        self.writes.merge(&w.writes);
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.wall += w.wall;
        self.cpu_us += w.cpu_us;
    }

    /// Pools `windows` into one, as if they had run back to back.
    pub fn pooled<'a>(windows: impl IntoIterator<Item = &'a Window>) -> Window {
        let mut all = Window::default();
        for w in windows {
            all.add(w);
        }
        all
    }

    fn absorb(&mut self, part: Partial) {
        self.reads.merge(&part.reads);
        self.writes.merge(&part.writes);
        self.attempted += part.attempted;
        self.failed += part.failed;
        for e in part.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// Runs every reader (and the writer, if any) on its own thread in a
/// closed loop until `duration` has passed. The writer finishes the
/// lifecycle it is in, so the population is whole when this returns.
pub fn run_window(
    readers: &mut [Reader],
    writer: Option<&mut Writer>,
    duration: Duration,
) -> Window {
    let cpu_before = host::process_cpu_us();
    let started = Instant::now();
    let deadline = started + duration;
    let parts: Vec<Partial> = std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for reader in readers.iter_mut() {
            threads.push(scope.spawn(move || {
                let mut part = Partial::default();
                while Instant::now() < deadline {
                    let (write, ns, verdict) = reader.step();
                    part.record(write, ns, verdict);
                }
                part
            }));
        }
        if let Some(writer) = writer {
            threads.push(scope.spawn(move || {
                let mut part = Partial::default();
                while Instant::now() < deadline {
                    writer.cycle(&mut part);
                }
                part
            }));
        }
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window {
        wall: started.elapsed(),
        cpu_us: host::process_cpu_us().saturating_sub(cpu_before),
        ..Window::default()
    };
    for part in parts {
        window.absorb(part);
    }
    window
}

/// The workload's clients on `bench`: readers over the mix and, for
/// `churn_mixed`, the lifecycle writer on the second connection.
pub fn clients(bench: &Bench, seed: u64) -> Result<(Vec<Reader>, Option<Writer>), String> {
    let n = bench.clients.len();
    let mut readers = Vec::new();
    let mut writer = None;
    for (i, conn) in bench.clients.iter().enumerate() {
        if bench.workload == Workload::ChurnMixed && i == 1 {
            writer = Some(Writer::new(conn.clone(), seed));
            continue;
        }
        readers.push(Reader::new(
            conn.clone(),
            Arc::clone(&bench.expect),
            bench.workload,
            bench.workload != Workload::ChurnMixed,
            Rng::new(seed, 0x100 + i as u64),
            i,
            n,
        )?);
    }
    Ok((readers, writer))
}

/// A reader on the embedded driver over the same population and mix,
/// without writes: the direct-driver reference for the remote path.
/// It starts from the autostart flags the remote `readers` left behind;
/// reader `i` owns the domains `d` with `d % readers.len() == i`.
pub fn direct_reader(bench: &Bench, readers: &[Reader], seed: u64) -> Result<Reader, String> {
    let mut direct = Reader::new(
        bench.direct(),
        Arc::clone(&bench.expect),
        bench.workload,
        false,
        Rng::new(seed, 0x200),
        0,
        1,
    )?;
    for (d, flag) in direct.autostart.iter_mut().enumerate() {
        *flag = readers[d % readers.len()].autostart[d];
    }
    Ok(direct)
}
