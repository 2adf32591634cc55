//! # smgcn-faults — seeded, deterministic fault injection
//!
//! The serving stack claims to tolerate torn WAL tails, corrupt publish
//! artifacts and flaky replica links; this crate is how those claims are
//! *exercised* instead of trusted. Production code is threaded with
//! named **injection sites** (`wal.append.write`, `artifact.decode`,
//! `pool.forward.net`, …) that consult a process-global [`FaultPlan`]:
//!
//! - **Zero cost when disabled.** Every site check starts with one
//!   relaxed atomic load (the same pattern as `smgcn-core`'s epoch
//!   observer); with no plan installed the branch is never taken and
//!   nothing else runs.
//! - **Seeded and replayable.** A plan is generated single-threaded from
//!   a seed, exactly like `smgcn-loadgen` schedules: the set of
//!   `(site, hit-index, action)` entries — and therefore
//!   [`FaultPlan::canonical_string`] — is byte-identical for a given
//!   seed. Which *wall-clock moment* a fault fires at depends on when
//!   traffic reaches the site, but *which hits* fault never does.
//! - **Accounted.** Every fired fault lands in an in-process log
//!   ([`injected`], [`injected_total`]) so harnesses can assert
//!   "N faults were injected and all N were tolerated".
//!
//! Five action kinds cover the failure modes the stack hardens against:
//! I/O errors, short (torn) writes, single-byte corruption, delays, and
//! connection drops. A call site matches on the [`FaultAction`] variants
//! it can simulate and ignores the rest.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use rand::{Rng, SeedableRng, StdRng};

/// Canonical injection-site names. Sites are plain strings so new ones
/// need no central registration, but the well-known ones live here so
/// plans and call sites can't drift apart on spelling.
pub mod sites {
    /// The ingest WAL's append path (frame write + flush).
    pub const WAL_APPEND_WRITE: &str = "wal.append.write";
    /// The ingest WAL's replay path (frame reads during recovery).
    pub const WAL_REPLAY_READ: &str = "wal.replay.read";
    /// Publish-artifact decoding on the receiving replica.
    pub const ARTIFACT_DECODE: &str = "artifact.decode";
    /// Router→replica query round trips (the data-plane link).
    pub const POOL_FORWARD_NET: &str = "pool.forward.net";
    /// Router→replica admin round trips (`{"op":"publish"}` etc.).
    pub const POOL_ADMIN_NET: &str = "pool.admin.net";
}

/// One concrete fault, materialized with all its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with an injected `std::io::Error`.
    IoError,
    /// Write only the first `keep` bytes of the payload, then fail —
    /// the classic crash-mid-append torn tail.
    ShortWrite {
        /// Bytes of the attempted write that reach the medium.
        keep: u32,
    },
    /// Flip one byte: `payload[offset % len] ^= xor` (silent corruption).
    Corrupt {
        /// Byte position, taken modulo the payload length.
        offset: u32,
        /// Nonzero XOR mask applied to that byte.
        xor: u8,
    },
    /// Stall the operation for `ms` milliseconds before letting it
    /// proceed (injected network/disk latency).
    Delay {
        /// Stall duration in milliseconds.
        ms: u32,
    },
    /// Sever the connection / abandon the operation mid-flight.
    Drop,
}

impl FaultAction {
    /// The stable textual form used by [`FaultPlan::canonical_string`].
    pub fn canonical(&self) -> String {
        match self {
            FaultAction::IoError => "io-error".to_string(),
            FaultAction::ShortWrite { keep } => format!("short-write:{keep}"),
            FaultAction::Corrupt { offset, xor } => format!("corrupt:{offset}:{xor}"),
            FaultAction::Delay { ms } => format!("delay:{ms}"),
            FaultAction::Drop => "drop".to_string(),
        }
    }
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// One scheduled fault: on the `hit`-th time (0-based) traffic reaches
/// `site`, `action` fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// Injection-site name (see [`sites`]).
    pub site: String,
    /// 0-based per-site hit index at which the fault fires.
    pub hit: u64,
    /// What happens on that hit.
    pub action: FaultAction,
}

/// A seeded, deterministic schedule of faults.
///
/// Built single-threaded — every [`FaultPlan::inject`] call draws from
/// the plan's own seeded generator in call order, so the same seed and
/// the same build code produce byte-identical plans
/// ([`FaultPlan::canonical_string`], [`FaultPlan::digest`]).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<PlannedFault>,
    rng: StdRng,
}

impl FaultPlan {
    /// An empty plan whose scheduling draws derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xfa17_fa17_fa17_fa17),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules `action` on exactly the `hit`-th arrival at `site`.
    pub fn push(&mut self, site: &str, hit: u64, action: FaultAction) {
        self.faults.push(PlannedFault {
            site: site.to_string(),
            hit,
            action,
        });
    }

    /// Seeded scheduling: for each hit index in `hits`, with probability
    /// `rate`, fire one action drawn uniformly from `menu`.
    pub fn inject(
        &mut self,
        site: &str,
        hits: std::ops::Range<u64>,
        rate: f64,
        menu: &[FaultAction],
    ) {
        for hit in hits {
            if !menu.is_empty() && self.rng.gen_bool(rate.clamp(0.0, 1.0)) {
                let action = menu[self.rng.gen_range(0..menu.len())];
                self.push(site, hit, action);
            }
        }
    }

    /// A deterministic draw from the plan's generator — for builders
    /// that need seeded parameters (corruption offsets, delay jitter)
    /// without carrying a second RNG.
    pub fn draw(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The byte-reproducible plan text: one `site\thit\taction` line per
    /// scheduled fault, preceded by a seed header. Two runs with the
    /// same seed produce identical bytes — this is what "replayable
    /// failure" means operationally.
    pub fn canonical_string(&self) -> String {
        let mut out = format!("fault-plan seed={}\n", self.seed);
        for f in &self.faults {
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                f.site,
                f.hit,
                f.action.canonical()
            ));
        }
        out
    }

    /// FNV-1a fingerprint of [`FaultPlan::canonical_string`].
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.canonical_string().as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The canonical "storm" plan: a modest seeded mix across every
    /// well-known site — io errors and torn writes on the WAL, corrupt
    /// artifact bytes, delays and drops on the replica links. Used by
    /// the fault-seeded CI smoke run ([`init_from_env`]) and as the
    /// fault-storm scenario's baseline.
    pub fn storm(seed: u64) -> Self {
        let mut plan = Self::new(seed);
        plan.inject(
            sites::WAL_APPEND_WRITE,
            0..64,
            0.15,
            &[
                FaultAction::IoError,
                FaultAction::ShortWrite { keep: 3 },
                FaultAction::ShortWrite { keep: 9 },
            ],
        );
        let offset = plan.draw(0..512) as u32;
        let xor = plan.draw(1..256) as u8;
        plan.inject(
            sites::WAL_REPLAY_READ,
            0..32,
            0.1,
            &[FaultAction::Corrupt { offset, xor }],
        );
        let offset = plan.draw(0..4096) as u32;
        let xor = plan.draw(1..256) as u8;
        plan.inject(
            sites::ARTIFACT_DECODE,
            0..16,
            0.25,
            &[FaultAction::Corrupt { offset, xor }],
        );
        plan.inject(
            sites::POOL_FORWARD_NET,
            0..512,
            0.04,
            &[
                FaultAction::Delay { ms: 2 },
                FaultAction::Delay { ms: 5 },
                FaultAction::Drop,
            ],
        );
        plan.inject(
            sites::POOL_ADMIN_NET,
            0..8,
            0.25,
            &[FaultAction::Delay { ms: 5 }],
        );
        plan
    }
}

/// One fault that actually fired at runtime.
#[derive(Clone, Debug)]
pub struct InjectedFault {
    /// Global 0-based firing order.
    pub seq: u64,
    /// The site it fired at.
    pub site: String,
    /// The per-site hit index it fired on.
    pub hit: u64,
    /// The action that fired.
    pub action: FaultAction,
}

struct SiteState {
    hits: u64,
    planned: BTreeMap<u64, FaultAction>,
}

struct ActivePlan {
    sites: HashMap<String, SiteState>,
    injected: Vec<InjectedFault>,
}

// The fast path is one relaxed load of ENABLED; ACTIVE is only locked
// once a plan is installed (test harnesses and chaos runs), never on the
// production no-plan path.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<ActivePlan>> = Mutex::new(None);
static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Installs `plan` process-globally, replacing any previous plan and
/// resetting all hit counters and the injected-fault log.
pub fn install(plan: &FaultPlan) {
    let mut sites: HashMap<String, SiteState> = HashMap::new();
    for f in plan.faults() {
        sites
            .entry(f.site.clone())
            .or_insert_with(|| SiteState {
                hits: 0,
                planned: BTreeMap::new(),
            })
            .planned
            .insert(f.hit, f.action);
    }
    let mut guard = ACTIVE.lock().unwrap_or_else(|p| p.into_inner());
    *guard = Some(ActivePlan {
        sites,
        injected: Vec::new(),
    });
    ENABLED.store(true, Ordering::Release);
}

/// Uninstalls the active plan; every site check returns to the
/// single-atomic-load no-op path.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    let mut guard = ACTIVE.lock().unwrap_or_else(|p| p.into_inner());
    *guard = None;
}

/// Whether a plan is currently installed (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The site check: counts this arrival at `site` and returns the
/// planned action for this hit, if any.
///
/// Disabled path: one relaxed atomic load, no lock, always `None`.
#[inline]
pub fn at(site: &str) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    at_slow(site)
}

fn at_slow(site: &str) -> Option<FaultAction> {
    let mut guard = ACTIVE.lock().unwrap_or_else(|p| p.into_inner());
    let plan = guard.as_mut()?;
    let state = plan.sites.get_mut(site)?;
    let hit = state.hits;
    state.hits += 1;
    let action = state.planned.get(&hit).copied()?;
    let seq = plan.injected.len() as u64;
    plan.injected.push(InjectedFault {
        seq,
        site: site.to_string(),
        hit,
        action,
    });
    Some(action)
}

/// The `std::io::Error` an injected [`FaultAction::IoError`] or torn
/// [`FaultAction::ShortWrite`] surfaces as.
pub fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// Convenience for buffer sites: applies a planned `Corrupt` to `bytes`
/// in place, returning `true` if a byte was flipped.
pub fn corrupt_buf(site: &str, bytes: &mut [u8]) -> bool {
    if let Some(FaultAction::Corrupt { offset, xor }) = at(site) {
        if !bytes.is_empty() && xor != 0 {
            let i = offset as usize % bytes.len();
            bytes[i] ^= xor;
            return true;
        }
    }
    false
}

/// Faults fired so far under the active plan (empty when disabled).
pub fn injected() -> Vec<InjectedFault> {
    let guard = ACTIVE.lock().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().map_or_else(Vec::new, |p| p.injected.clone())
}

/// Count of faults fired so far under the active plan.
pub fn injected_total() -> u64 {
    let guard = ACTIVE.lock().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().map_or(0, |p| p.injected.len() as u64)
}

/// Runs `f` with `plan` installed, serializing against every other
/// [`with_plan`] caller in the process (the plan is a process-global —
/// concurrent tests would otherwise consume each other's hit counters).
/// The plan is cleared afterwards even if `f` panics.
pub fn with_plan<T>(plan: &FaultPlan, f: impl FnOnce() -> T) -> T {
    let _guard = TEST_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    install(plan);
    let out = catch_unwind(AssertUnwindSafe(f));
    clear();
    match out {
        Ok(v) => v,
        Err(payload) => resume_unwind(payload),
    }
}

/// CI hook: installs [`FaultPlan::storm`] when `SMGCN_FAULT_SEED` is set
/// to a nonzero integer and no plan is active yet. Robustness test
/// binaries call this first so the fault-seeded smoke job exercises
/// every injection site without changing the tests' invariants.
/// Returns the seed when a plan was installed.
pub fn init_from_env() -> Option<u64> {
    if enabled() {
        return None;
    }
    let seed: u64 = std::env::var("SMGCN_FAULT_SEED").ok()?.parse().ok()?;
    if seed == 0 {
        return None;
    }
    install(&FaultPlan::storm(seed));
    Some(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_is_inert() {
        clear();
        assert!(!enabled());
        assert_eq!(at("wal.append.write"), None);
        let mut buf = [1u8, 2, 3];
        assert!(!corrupt_buf("artifact.decode", &mut buf));
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(injected_total(), 0);
    }

    #[test]
    fn same_seed_reproduces_the_plan_byte_for_byte() {
        let a = FaultPlan::storm(42);
        let b = FaultPlan::storm(42);
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_eq!(a.digest(), b.digest());
        assert!(!a.is_empty(), "a storm plan must schedule something");
        let c = FaultPlan::storm(43);
        assert_ne!(
            a.canonical_string(),
            c.canonical_string(),
            "different seeds must differ"
        );
    }

    #[test]
    fn hits_fire_in_planned_order_and_are_logged() {
        let mut plan = FaultPlan::new(7);
        plan.push("x.y", 1, FaultAction::IoError);
        plan.push("x.y", 3, FaultAction::Delay { ms: 0 });
        with_plan(&plan, || {
            assert_eq!(at("x.y"), None, "hit 0 is clean");
            assert_eq!(at("x.y"), Some(FaultAction::IoError), "hit 1 faults");
            assert_eq!(at("x.y"), None, "hit 2 is clean");
            assert_eq!(at("x.y"), Some(FaultAction::Delay { ms: 0 }));
            assert_eq!(at("unplanned.site"), None);
            let log = injected();
            assert_eq!(log.len(), 2);
            assert_eq!(log[0].hit, 1);
            assert_eq!(log[1].hit, 3);
            assert_eq!(injected_total(), 2);
        });
        assert!(!enabled(), "with_plan must clear on exit");
    }

    #[test]
    fn corrupt_buf_flips_exactly_one_byte() {
        let mut plan = FaultPlan::new(1);
        plan.push(
            "buf",
            0,
            FaultAction::Corrupt {
                offset: 10,
                xor: 0xff,
            },
        );
        with_plan(&plan, || {
            let mut bytes = vec![0u8; 4];
            assert!(corrupt_buf("buf", &mut bytes));
            // offset 10 % len 4 == 2
            assert_eq!(bytes, vec![0, 0, 0xff, 0]);
        });
    }

    #[test]
    fn inject_respects_rate_bounds() {
        let mut all = FaultPlan::new(5);
        all.inject("s", 0..10, 1.0, &[FaultAction::Drop]);
        assert_eq!(all.len(), 10);
        let mut none = FaultPlan::new(5);
        none.inject("s", 0..10, 0.0, &[FaultAction::Drop]);
        assert!(none.is_empty());
    }
}
