//! Seeded input generation: workloads, domain populations and op mixes.
//!
//! Everything the daemon receives is derived from `--seed` here; the
//! same seed gives the same names, configs and op sequence.

use virt_core::xmlfmt::{DiskConfig, DomainConfig};

/// splitmix64: tiny, seedable, and good enough to pick ops and sizes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The benchmark's traffic mixes. See `perfbench/README.md` for why
/// each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection polling 1024 small domains with tiny replies.
    SerialSmall,
    /// Two connections scraping XML and bulk stats of 256 32-disk domains.
    InventoryBulk,
    /// A lifecycle writer beside a reader.
    ChurnMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SerialSmall,
        Workload::InventoryBulk,
        Workload::ChurnMixed,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialSmall => "serial_small",
            Workload::InventoryBulk => "inventory_bulk",
            Workload::ChurnMixed => "churn_mixed",
        }
    }

    /// Client connections (and client threads) driving the daemon.
    pub fn connections(self) -> usize {
        match self {
            Workload::SerialSmall => 1,
            Workload::InventoryBulk | Workload::ChurnMixed => 2,
        }
    }

    /// Domains defined at set-up.
    pub fn population(self) -> usize {
        match self {
            Workload::SerialSmall | Workload::ChurnMixed => 1024,
            Workload::InventoryBulk => 256,
        }
    }

    /// Disks of each population domain.
    pub fn population_disks(self) -> usize {
        match self {
            Workload::SerialSmall | Workload::ChurnMixed => 1,
            Workload::InventoryBulk => 32,
        }
    }

    /// Whether the traced run's daemon persists to a statedir. The
    /// untraced run never does: on a shared virtio disk the fsync tail
    /// swings 2–10 ms from run to run, beyond any bound an end-to-end
    /// metric could hold, so durability is measured per layer instead.
    pub fn traced_with_statedir(self) -> bool {
        self == Workload::ChurnMixed
    }

    fn prefix(self) -> &'static str {
        match self {
            Workload::SerialSmall => "ss",
            Workload::InventoryBulk => "ib",
            Workload::ChurnMixed => "cm",
        }
    }
}

/// Disks of each domain the churn writer defines.
pub const CHURN_DISKS: usize = 8;

/// One domain of the set-up population.
#[derive(Debug, Clone)]
pub struct Planned {
    pub config: DomainConfig,
    pub running: bool,
}

/// `vda`, …, `vdz`, `vdaa`, … — the guest device names of disk `k`.
pub fn disk_target(k: usize) -> String {
    let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
    if k < 26 {
        format!("vd{}", letter(k))
    } else {
        format!("vd{}{}", letter(k / 26 - 1), letter(k))
    }
}

/// A domain config with `disks` seeded disks.
pub fn domain_config(name: String, disks: usize, rng: &mut Rng) -> DomainConfig {
    let mut config = DomainConfig::new(
        name,
        64 * (1 + rng.below(4) as u64),
        1 + rng.below(2) as u32,
    );
    config.disks = (0..disks)
        .map(|k| DiskConfig {
            target: disk_target(k),
            source: format!("/var/lib/virt/images/{}-{k:02}.qcow2", config.name),
            capacity_mib: 1024 * (1 + rng.below(64) as u64),
            bus: "virtio".to_string(),
        })
        .collect();
    config
}

/// The set-up population: names, configs, and which eighth runs.
pub fn population(workload: Workload, seed: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 1);
    let n = workload.population();
    let tag = seed_tag(seed);
    let mut plan: Vec<Planned> = (0..n)
        .map(|i| Planned {
            config: domain_config(
                format!("{}-{tag}-{i:04}", workload.prefix()),
                workload.population_disks(),
                &mut rng,
            ),
            running: false,
        })
        .collect();
    // A seeded partial shuffle picks the running eighth.
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..n / 8 {
        let j = i + rng.below(n - i);
        order.swap(i, j);
        plan[order[i]].running = true;
    }
    plan
}

/// Short hex tag that keeps names from different seeds apart.
pub fn seed_tag(seed: u64) -> String {
    format!("{:06x}", Rng::new(seed, 7).next_u64() & 0xff_ffff)
}

/// One client call of a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `domain_lookup_by_name`.
    Lookup(usize),
    /// `Domain::info`.
    Info(usize),
    /// `Domain::state`.
    State(usize),
    /// `Domain::autostart`.
    Autostart(usize),
    /// `Connect::hostname`.
    Hostname,
    /// `Domain::xml_desc`.
    XmlDesc(usize),
    /// `Connect::get_all_domain_stats`.
    AllStats,
    /// `Domain::set_autostart` toggling the flag: the mutating call of
    /// the polling workloads.
    ToggleAutostart(usize),
}

impl Op {
    pub fn is_write(self) -> bool {
        matches!(self, Op::ToggleAutostart(_))
    }
}

/// One in this many calls of `serial_small` and `inventory_bulk` is a
/// write, so each workload reports write latency as well as read. At
/// one in 16, `inventory_bulk`'s write p99 rested on some 20 samples
/// beyond it and spread by a fifth between runs.
pub const WRITE_EVERY: usize = 8;

/// Picks the next op of a client's mix. `client`/`clients` partition the
/// domains a client may write, so concurrent writers never race on one
/// domain and every expected reply stays exact.
pub fn next_op(
    mix: Workload,
    with_writes: bool,
    rng: &mut Rng,
    domains: usize,
    client: usize,
    clients: usize,
) -> Op {
    if with_writes && rng.below(WRITE_EVERY) == 0 {
        let own = domains / clients;
        return Op::ToggleAutostart(rng.below(own) * clients + client);
    }
    let d = rng.below(domains);
    match mix {
        Workload::SerialSmall | Workload::ChurnMixed => match rng.below(5) {
            0 => Op::Lookup(d),
            1 => Op::Info(d),
            2 => Op::State(d),
            3 => Op::Autostart(d),
            _ => Op::Hostname,
        },
        Workload::InventoryBulk => {
            if rng.below(8) == 0 {
                Op::AllStats
            } else {
                Op::XmlDesc(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = population(Workload::InventoryBulk, 9);
        let b = population(Workload::InventoryBulk, 9);
        assert_eq!(a.len(), 256);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.config == y.config && x.running == y.running));
        assert_eq!(a.iter().filter(|p| p.running).count(), 32);
        assert_eq!(a[0].config.disks.len(), 32);
        assert_eq!(a[0].config.disks[31].target, "vdaf");
        let c = population(Workload::InventoryBulk, 10);
        assert_ne!(a[0].config.name, c[0].config.name);
    }

    #[test]
    fn writers_stay_in_their_partition() {
        let mut rng = Rng::new(3, 3);
        for _ in 0..10_000 {
            if let Op::ToggleAutostart(d) =
                next_op(Workload::InventoryBulk, true, &mut rng, 256, 1, 2)
            {
                assert_eq!(d % 2, 1);
            }
        }
    }
}
