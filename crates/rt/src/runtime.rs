//! Dispatch sites and the single-session cache backend.
//!
//! "At run time, a dynamic region's custom dynamic compiler is invoked to
//! generate the region's code. The dynamic compiler first checks an
//! internal cache of previously dynamically generated code for a version
//! that was compiled for the values of the annotated variables. If one is
//! found, it is reused." (§2.1)
//!
//! [`Runtime`] is the [`DispatchCore`] over an [`OwnedCache`]: the
//! session owns one table per site outright, so a dispatch probes it
//! with no locks or shared writes. The dispatch ladder itself lives in
//! [`crate::dispatch`].

use crate::artifact::{self, BundleCheck, CacheBundle};
use crate::cache::{CacheEntry, DoubleHashCache, EvictCtl};
use crate::dispatch::{CacheBackend, Claim, DispatchCore, Lane, Probe};
use crate::ge_exec::SpecHost;
use crate::policy::PolicyEngine;
use dyc_ir::{BlockId, VReg};
use dyc_obs::EventKind;
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{FuncId, Module, Value, VmError};
use std::collections::BTreeMap;

/// The static store: concrete values of the static variables.
pub type Store = BTreeMap<VReg, Value>;

/// A dispatch site: a dynamic-region entry or an internal
/// dynamic-to-static promotion point.
#[derive(Debug, Clone)]
pub struct Site {
    /// Function containing the site.
    pub func: usize,
    /// Block of the resume point.
    pub block: BlockId,
    /// Instruction index of the resume point (the annotation).
    pub inst_idx: usize,
    /// Static context baked in at emit time (empty for entry sites).
    pub base_store: Store,
    /// Variables promoted at this site (their values form the cache key).
    pub key_vars: Vec<VReg>,
    /// Dispatch argument layout (all live variables at the point for entry
    /// sites; the live *dynamic* variables for internal sites).
    pub arg_vars: Vec<VReg>,
    /// Caching policy.
    pub policy: SitePolicy,
    /// Entry division in the function's precompiled GE program, when one
    /// exists: specialization runs through the staged
    /// [`GeExecutor`](crate::GeExecutor). `None` routes through the online
    /// `Specializer` (staging disabled or the function fell back).
    pub division: Option<u32>,
    /// Position of each `key_vars` entry within `arg_vars`. Derived once
    /// when the site is registered, so a dispatch extracts its cache key
    /// by direct indexing instead of per-call position searches.
    pub key_pos: Vec<usize>,
    /// Positions of the pass-through (dynamic) arguments within
    /// `arg_vars`: everything not in `base_store` or `key_vars`. Derived
    /// once, so the cache-hit path subsets the arguments without
    /// rebuilding the static store.
    pub dyn_pos: Vec<usize>,
}

impl Site {
    pub(crate) fn precompute_layout(&mut self) {
        self.key_pos = self
            .key_vars
            .iter()
            .map(|kv| {
                self.arg_vars
                    .iter()
                    .position(|a| a == kv)
                    .expect("key vars are live at their own promotion point")
            })
            .collect();
        self.dyn_pos = self
            .arg_vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !self.base_store.contains_key(v) && !self.key_vars.contains(v))
            .map(|(i, _)| i)
            .collect();
    }

    /// The entry sites of `staged`, layouts precomputed.
    pub(crate) fn entries(staged: &StagedProgram) -> Vec<Site> {
        staged
            .entry_sites
            .iter()
            .zip(&staged.ge.entry_divisions)
            .map(|(e, division)| {
                let mut site = Site {
                    func: e.func,
                    block: e.block,
                    inst_idx: e.inst_idx,
                    base_store: Store::new(),
                    key_vars: e.key_vars.iter().map(|(v, _)| *v).collect(),
                    arg_vars: e.arg_vars.clone(),
                    policy: e.policy,
                    division: *division,
                    key_pos: Vec::new(),
                    dyn_pos: Vec::new(),
                };
                site.precompute_layout();
                site
            })
            .collect()
    }
}

/// One site's code cache.
#[derive(Debug)]
enum Table {
    /// `cache_one_unchecked`: a single slot.
    One(Option<FuncId>),
    /// Array-indexed lookup for byte-ranged keys (§3.1 extension), with a
    /// hashed overflow table for out-of-range values.
    Indexed {
        slots: Box<[Option<FuncId>; 256]>,
        overflow: DoubleHashCache,
    },
    /// `cache_all`: the paper's double-hashing table.
    All(DoubleHashCache),
    /// Bounded `cache_all(k)`: the hashed table holds at most the clock's
    /// capacity. Cached values carry their clock slot so a hit can set
    /// the reference bit without a second hash.
    Bounded {
        cache: DoubleHashCache<(FuncId, u32)>,
        clock: EvictCtl,
    },
}

impl Table {
    fn for_policy(policy: SitePolicy, cap_growth: usize) -> Table {
        match policy {
            SitePolicy::CacheAll => Table::All(DoubleHashCache::new()),
            SitePolicy::CacheAllBounded(_) => Table::Bounded {
                cache: DoubleHashCache::new(),
                clock: EvictCtl::for_policy(policy, cap_growth).expect("bounded policy"),
            },
            SitePolicy::CacheOneUnchecked => Table::One(None),
            SitePolicy::CacheIndexed => Table::Indexed {
                slots: Box::new([None; 256]),
                overflow: DoubleHashCache::new(),
            },
        }
    }
}

/// Bounded-cap growth multiplier: the adaptive policy's
/// `cap_growth_limit`, 1 in `Always` mode.
pub(crate) fn cap_growth(policy: Option<&PolicyEngine>) -> usize {
    policy.map_or(1, |e| e.params().cap_growth_limit.max(1))
}

/// [`SpecHost`] over the owned site and table vectors.
struct OwnedHost<'a> {
    sites: &'a mut Vec<Site>,
    tables: &'a mut Vec<Table>,
    cap_growth: usize,
}

impl SpecHost for OwnedHost<'_> {
    fn add_site(&mut self, mut site: Site) -> u32 {
        let id = self.sites.len() as u32;
        site.precompute_layout();
        self.tables
            .push(Table::for_policy(site.policy, self.cap_growth));
        self.sites.push(site);
        id
    }
}

/// The single-session cache backend: the staged program, the site table
/// and one code table per site, all owned by the session.
#[derive(Debug)]
pub struct OwnedCache {
    staged: StagedProgram,
    sites: Vec<Site>,
    tables: Vec<Table>,
    /// Adaptive specialization policy (`OptConfig::policy`), `None` in
    /// the default `Always` mode.
    policy: Option<PolicyEngine>,
    /// Per-site generic continuation, compiled on first deferral.
    generic: Vec<Option<FuncId>>,
}

impl OwnedCache {
    /// Install a restored artifact's code at its site; `None` when a
    /// bounded site is already full (an over-capacity bundle cannot be
    /// admitted without evicting what it just restored).
    fn install(&mut self, art: &artifact::CodeArtifact, module: &mut Module) -> Option<FuncId> {
        let table = &mut self.tables[art.site as usize];
        if let Table::Bounded { clock, .. } = table {
            if clock.at_capacity() {
                return None;
            }
        }
        let fid = module.add_func(art.to_func());
        match table {
            Table::One(slot) => *slot = Some(fid),
            Table::Indexed { slots, overflow } => match art.key.as_slice() {
                [v] if *v < 256 => slots[*v as usize] = Some(fid),
                key => overflow.insert(key.to_vec(), fid),
            },
            Table::All(c) => c.insert(art.key.clone(), fid),
            Table::Bounded { cache, clock } => {
                let (idx, _) = clock.admit(&art.key);
                cache.insert(art.key.clone(), (fid, idx));
            }
        }
        Some(fid)
    }
}

fn probed<V>(e: CacheEntry<V>) -> (Probe<V, usize>, u32) {
    match e {
        CacheEntry::Hit { value, probes } => (Probe::Hit(value), probes),
        CacheEntry::Vacant { slot, probes } => (Probe::Miss(slot), probes),
    }
}

impl CacheBackend for OwnedCache {
    type Code = FuncId;
    type Slot = usize;
    type Ticket = usize;

    #[inline]
    fn staged(&self) -> &StagedProgram {
        &self.staged
    }

    #[inline]
    fn policy(&self) -> Option<&PolicyEngine> {
        self.policy.as_ref()
    }

    #[inline]
    fn sync(&mut self, _point: u32) {}

    #[inline]
    fn site(&self, point: u32) -> &Site {
        &self.sites[point as usize]
    }

    #[inline]
    fn probe(&mut self, point: u32, lane: Lane, key: &[u64]) -> (Probe<FuncId, usize>, u32) {
        let slot = |f: Option<FuncId>| (f.map_or(Probe::Miss(0), Probe::Hit), 0);
        match (&mut self.tables[point as usize], lane) {
            (Table::One(f), _) => slot(*f),
            (Table::Indexed { slots, .. }, Lane::Indexed(i)) => slot(slots[i as usize]),
            (Table::Indexed { overflow, .. }, _) => probed(overflow.lookup_or_reserve(key)),
            (Table::All(c), _) => probed(c.lookup_or_reserve(key)),
            (Table::Bounded { cache, clock }, _) => match cache.lookup_or_reserve(key) {
                CacheEntry::Hit {
                    value: (f, idx),
                    probes,
                } => {
                    // Second chance: mark the entry recently used.
                    clock.touch(idx);
                    (Probe::Hit(f), probes)
                }
                CacheEntry::Vacant { slot, probes } => (Probe::Miss(slot), probes),
            },
        }
    }

    #[inline]
    fn resolve(&mut self, code: FuncId, _module: &mut Module) -> (FuncId, bool) {
        (code, false)
    }

    fn claim(&mut self, _point: u32, slot: usize, _timed: bool) -> Claim<FuncId, usize> {
        Claim::Winner(slot)
    }

    fn publish(
        &mut self,
        point: u32,
        lane: Lane,
        key: &[u64],
        slot: usize,
        fid: FuncId,
        _module: &Module,
    ) -> Option<(Vec<u64>, u32)> {
        // Auto-sizing: a revival (promoted key missing again) grows the
        // effective bound, so keys with reuse distance beyond the
        // declared `k` stop thrashing. Bounded by `k * cap_growth_limit`.
        let grown = match (self.sites[point as usize].policy, &self.policy) {
            (SitePolicy::CacheAllBounded(k), Some(eng)) => {
                Some(eng.cap_for(point, k.max(1) as usize))
            }
            _ => None,
        };
        match (&mut self.tables[point as usize], lane) {
            (Table::One(f), _) => *f = Some(fid),
            (Table::Indexed { slots, .. }, Lane::Indexed(i)) => slots[i as usize] = Some(fid),
            (Table::Indexed { overflow, .. }, _) => overflow.fill(slot, key.to_vec(), fid),
            (Table::All(c), _) => c.fill(slot, key.to_vec(), fid),
            (Table::Bounded { cache, clock }, _) => {
                if let Some(n) = grown {
                    clock.grow_to(n);
                }
                let (idx, old) = clock.admit(key);
                if let Some(old) = &old {
                    cache.remove(old);
                }
                cache.fill(slot, key.to_vec(), (fid, idx));
                return old.map(|o| (o, idx));
            }
        }
        None
    }

    fn abandon(&mut self, _slot: usize, _err: &VmError) {
        // The reserved slot is just an index — leaving it unfilled is
        // harmless.
    }

    fn generic(&mut self, point: u32, module: &mut Module) -> (FuncId, bool) {
        let p = point as usize;
        if p >= self.generic.len() {
            self.generic.resize(p + 1, None);
        }
        if let Some(f) = self.generic[p] {
            return (f, false);
        }
        let fid = module.add_func(generic_code(&self.staged, &self.sites[p]));
        self.generic[p] = Some(fid);
        (fid, true)
    }

    fn with_spec<R>(&mut self, f: impl FnOnce(&StagedProgram, &mut dyn SpecHost) -> R) -> R {
        let cap_growth = cap_growth(self.policy.as_ref());
        let mut host = OwnedHost {
            sites: &mut self.sites,
            tables: &mut self.tables,
            cap_growth,
        };
        f(&self.staged, &mut host)
    }

    fn invalidate(&mut self, point: u32) {
        match &mut self.tables[point as usize] {
            Table::One(f) => *f = None,
            Table::Indexed { slots, overflow } => {
                **slots = [None; 256];
                overflow.clear();
            }
            Table::All(c) => c.clear(),
            Table::Bounded { cache, clock } => {
                cache.clear();
                clock.reset();
            }
        }
    }
}

/// The generic continuation for `site`: unspecialized code for the region
/// (annotations vanish, the site's baked static context is materialized
/// as constants), taking every dispatch argument.
pub(crate) fn generic_code(staged: &StagedProgram, site: &Site) -> dyc_vm::CodeFunc {
    let consts: Vec<_> = site.base_store.iter().map(|(v, val)| (*v, *val)).collect();
    dyc_ir::codegen::codegen_region_generic(
        &staged.ir.funcs[site.func],
        site.block,
        site.inst_idx,
        &site.arg_vars,
        &consts,
    )
}

/// The single-session run-time system: the [`DispatchCore`] over an
/// [`OwnedCache`]. Implements [`dyc_vm::DispatchHandler`]; attach it to a
/// [`dyc_vm::Vm`] run with [`dyc_vm::Vm::call_with_handler`].
pub type Runtime = DispatchCore<OwnedCache>;

impl Runtime {
    /// Build the run-time system for a staged program.
    pub fn new(staged: StagedProgram) -> Runtime {
        let policy = PolicyEngine::for_mode(staged.cfg.policy);
        let sites = Site::entries(&staged);
        let growth = cap_growth(policy.as_ref());
        let tables = sites
            .iter()
            .map(|s| Table::for_policy(s.policy, growth))
            .collect();
        DispatchCore::with_backend(
            OwnedCache {
                staged,
                sites,
                tables,
                policy,
                generic: Vec::new(),
            },
            0,
            None,
            false,
        )
    }

    /// Number of dispatch sites (entries + internal promotions so far).
    pub fn n_sites(&self) -> usize {
        self.backend.sites.len()
    }

    /// The site table (diagnostics).
    pub fn site(&self, id: u32) -> &Site {
        &self.backend.sites[id as usize]
    }

    /// Snapshot of every `(site, key, code)` binding currently cached —
    /// the differential harnesses compare this against the concurrent
    /// runtime's shared cache. `CacheOneUnchecked` sites report an empty
    /// key; indexed sites report the canonical hashed key they would use.
    pub fn cache_entries(&self) -> Vec<(u32, Vec<u64>, FuncId)> {
        let mut out = Vec::new();
        for (i, t) in self.backend.tables.iter().enumerate() {
            let site = i as u32;
            match t {
                Table::One(f) => out.extend(f.map(|f| (site, Vec::new(), f))),
                Table::Indexed { slots, overflow } => {
                    for (v, f) in slots.iter().enumerate() {
                        if let Some(f) = f {
                            out.push((site, vec![Value::I(v as i64).key_bits()], *f));
                        }
                    }
                    out.extend(overflow.iter().map(|(k, v)| (site, k.to_vec(), v)));
                }
                Table::All(c) => out.extend(c.iter().map(|(k, v)| (site, k.to_vec(), v))),
                Table::Bounded { cache, .. } => {
                    out.extend(cache.iter().map(|(k, (f, _))| (site, k.to_vec(), f)));
                }
            }
        }
        out
    }

    /// Serialize the entire dynamic-code cache — every `(site, key,
    /// code)` binding plus the internal promotion sites created while
    /// specializing — as a versioned, fingerprinted [`CacheBundle`].
    /// `module` must be the module this runtime installed its code into
    /// (the bundle captures the cached functions' instruction streams).
    pub fn snapshot_bundle(&self, module: &Module) -> CacheBundle {
        let sites: Vec<&Site> = self.backend.sites.iter().collect();
        let entries = self
            .cache_entries()
            .into_iter()
            .map(|(site, key, fid)| (site, key, module.func(fid)));
        artifact::snapshot(self.staged(), &sites, entries)
    }

    /// Warm-start: re-install a snapshot bundle's specializations into
    /// this (fresh) runtime and `module`, so their first dispatches hit
    /// the cache instead of re-specializing.
    ///
    /// Verification is layered and *never* fatal. The bundle header's
    /// `(version, config-hash, program-hash)` triple and site layout
    /// must match this runtime exactly, and the runtime must not have
    /// specialized yet (internal promotion sites are restored with
    /// their snapshot ids, which emitted `Dispatch` instructions bake
    /// in); otherwise every entry is rejected. Each entry then
    /// re-verifies its own triple plus its site binding, so a corrupted
    /// entry is dropped individually. Every rejection is metered in
    /// [`RtStats::cache_warm_rejects`](crate::RtStats::cache_warm_rejects);
    /// every installed entry in
    /// [`RtStats::cache_warm_loads`](crate::RtStats::cache_warm_loads)
    /// (and traced as a [`EventKind::CacheWarmLoad`] event). A rejected
    /// key simply re-specializes on its first dispatch.
    pub fn restore_bundle(&mut self, bundle: &CacheBundle, module: &mut Module) {
        let check = BundleCheck::new(self.staged());
        let n_entry = self.n_entry_sites();
        let fresh = self.backend.sites.len() == n_entry;
        let Some(internal) = check.header(bundle, n_entry, fresh) else {
            self.stats.cache_warm_rejects += bundle.entries.len() as u64;
            return;
        };
        // Through the host, not as promotions: restored sites are not
        // *new* promotions and must not inflate that Table 2 counter.
        self.backend.with_spec(|_, host| {
            for site in internal {
                host.add_site(site);
            }
        });
        for art in &bundle.entries {
            let site = self.backend.sites.get(art.site as usize);
            let installed = if check.entry(art, site) {
                self.backend.install(art, module)
            } else {
                None
            };
            let Some(fid) = installed else {
                self.stats.cache_warm_rejects += 1;
                continue;
            };
            if let Some(eng) = &self.backend.policy {
                // Restored entries are already-proven keys: seed the
                // engine so they never defer (their dispatches are hits
                // anyway) and re-specialize immediately if ever evicted.
                let mut pkey = Vec::with_capacity(art.key.len() + 1);
                pkey.push(u64::from(art.site));
                pkey.extend_from_slice(&art.key);
                eng.seed_promoted(pkey);
            }
            // Warm-started code never passed through a NativeSink; lower
            // the restored function directly.
            self.lower(art.site, fid, module);
            let len = art.code.len() as u64;
            self.note(EventKind::CacheWarmLoad, art.site, &art.key, 0, len, 0);
        }
    }
}
