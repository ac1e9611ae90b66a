//! Replay passes for the layers a `UdcCloud` call reaches only from
//! inside. Each replay feeds the same inputs the call just consumed into
//! the layer's public entry point, on mirrors the benchmark keeps in
//! step with the cloud under test:
//!
//! - `spec`: `AppIr::compile` of the submitted app;
//! - `sched`: `Scheduler::place_app` / `release_app` on a second,
//!   identical `Datacenter` driven through the same sequence of apps
//!   (its placements must equal the cloud's — a correctness check);
//! - `extvm`: the policy's `score` calls, counted inside the mirror
//!   scheduler and replayed on sampled candidate contexts;
//! - `hal`: `Datacenter::allocate_vector` / `release` of every placed
//!   slice, pinned to the same devices, on a third mirror;
//! - `isolate`: `Environment::new` + `start` of every module;
//! - `crypto`: data-key derivation, the sealing `run` does, and the
//!   quote + verification `verify_deployment` does;
//! - `economics`: the ledger charges of `run` and the ledger scans of
//!   billing reconciliation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use udc_core::{
    check_quote, policy_for_module, AppIr, CloudConfig, Deployment, ModuleVerification, RunReport,
};
use udc_crypto::aead::{seal, Key, Nonce};
use udc_crypto::attest::Verifier;
use udc_crypto::derive_key;
use udc_economics::{PlanSpec, SharedQuotaGate, TenantAccount};
use udc_hal::{AllocConstraints, Allocation, Datacenter, DatacenterConfig, DeviceId};
use udc_isolate::{Environment, InstanceId, WarmPoolConfig};
use udc_sched::policy::ExecStats;
use udc_sched::{
    AppPlacement, ExtVmPolicy, PlacementPolicy, PolicyCtx, SchedOptions, Scheduler, StartMode,
};
use udc_spec::{AppSpec, ConflictPolicy, EdgeKind, ModuleKind, ResourceVector};

use crate::record::Record;
use crate::trace::SpanId;

pub const TENANT: &str = "tenant";

/// The device keys `UdcCloud::new` fuses, derived the same way.
pub fn device_keys(dc: &Datacenter) -> BTreeMap<DeviceId, [u8; 32]> {
    dc.device_ids()
        .into_iter()
        .map(|id| {
            let key = derive_key(
                b"udc-hardware-root",
                b"device-key",
                format!("{id}").as_bytes(),
            );
            (id, key)
        })
        .collect()
}

/// Allocates every slice of `dep`'s placement on `dc`, pinned to the
/// device the cloud chose; `None` if any slice does not fit.
fn pin_slices(dc: &mut Datacenter, dep: &Deployment) -> Option<Vec<Allocation>> {
    let mut held = Vec::new();
    for p in dep.placement.modules.values() {
        for a in &p.allocations {
            for s in &a.slices {
                let demand = ResourceVector::new().with(a.kind, s.units);
                let pin = AllocConstraints {
                    exclusive: s.exclusive,
                    single_device: true,
                    require_device: Some(s.device),
                    ..Default::default()
                };
                held.extend(dc.allocate_vector(TENANT, &demand, &pin).ok()?);
            }
        }
    }
    Some(held)
}

/// What the counting wrapper saw during one placement.
#[derive(Default)]
struct PolicyTap {
    sample: Vec<PolicyCtx>,
    exec: ExecStats,
}

/// Wraps the mirror scheduler's policy: counts `score` calls, and on
/// every 61st keeps the candidate context as a replay sample and drains
/// the extension VM's engine counters (the scheduler only drains them
/// when telemetry is on). The tap stays off the other 60 calls so the
/// mirror's placement time stays close to the cloud's.
struct Tapped {
    inner: Box<dyn PlacementPolicy>,
    calls: Rc<Cell<u64>>,
    tap: Rc<RefCell<PolicyTap>>,
}

impl PlacementPolicy for Tapped {
    fn score(&mut self, ctx: &PolicyCtx) -> Option<i64> {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if n % 61 == 1 {
            let e = self.inner.take_exec_stats();
            let mut t = self.tap.borrow_mut();
            if t.sample.len() < 1024 {
                t.sample.push(*ctx);
            }
            t.exec.compiled_runs += e.compiled_runs;
            t.exec.interp_runs += e.interp_runs;
        }
        self.inner.score(ctx)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// How the mirror scheduler is configured (it must match the cloud's).
pub enum MirrorPolicy {
    Native,
    ExtVm(fn() -> ExtVmPolicy),
}

/// Mirror of a live deployment's replayed state.
pub struct Mirrored {
    placement: AppPlacement,
    slices: Vec<Allocation>,
}

pub struct Shadow {
    sched_dc: Datacenter,
    sched: Scheduler,
    hal_dc: Datacenter,
    calls: Rc<Cell<u64>>,
    tap: Rc<RefCell<PolicyTap>>,
    /// A second instance of the extension policy whose `score` replays
    /// the sampled contexts.
    extvm: Option<ExtVmPolicy>,
    keys: BTreeMap<DeviceId, [u8; 32]>,
    tenant_secret: Vec<u8>,
    next_instance: u64,
    /// Scratch account that replays `run`'s ledger charges.
    scratch: TenantAccount,
}

impl Shadow {
    pub fn new(
        config: &DatacenterConfig,
        warm_pool: WarmPoolConfig,
        policy: MirrorPolicy,
        gate: Option<SharedQuotaGate>,
    ) -> Self {
        let calls = Rc::new(Cell::new(0));
        let tap = Rc::new(RefCell::new(PolicyTap::default()));
        let (inner, extvm): (Box<dyn PlacementPolicy>, _) = match policy {
            MirrorPolicy::Native => (Box::new(udc_sched::LocalityPolicy), None),
            MirrorPolicy::ExtVm(make) => (Box::new(make()), Some(make())),
        };
        let sched = Scheduler::new(SchedOptions {
            tenant: TENANT.to_string(),
            warm_pool,
            policy: Box::new(Tapped {
                inner,
                calls: calls.clone(),
                tap: tap.clone(),
            }),
            quota_gate: gate,
            ..Default::default()
        });
        let sched_dc = Datacenter::new(config.clone());
        Self {
            keys: device_keys(&sched_dc),
            sched_dc,
            sched,
            hal_dc: Datacenter::new(config.clone()),
            calls,
            tap,
            extvm,
            tenant_secret: CloudConfig::default().tenant_secret,
            next_instance: 0,
            scratch: TenantAccount::open(TENANT, PlanSpec::unlimited("replay"), 0),
        }
    }

    pub fn refill_warm_pool(&mut self) {
        self.sched.warm_pool_mut().refill();
    }

    /// Replays the layers of one `submit` beneath `parent`. Returns the
    /// mirrored state to release at teardown.
    pub fn submit(
        &mut self,
        rec: &mut Record,
        parent: SpanId,
        app: &AppSpec,
        dep: &Deployment,
    ) -> Mirrored {
        let (ir, _) = rec.replay("spec.compile", parent, || {
            AppIr::compile(app, ConflictPolicy::StrictestWins)
        });
        let ir = ir.expect("the cloud accepted this app");
        rec.count("spec.modules", ir.modules.len() as f64);

        self.calls.set(0);
        self.tap.borrow_mut().sample.clear();
        let (placed, place_span) = rec.replay("sched.place", parent, || {
            self.sched.place_app(&mut self.sched_dc, &ir.app)
        });
        let placement = placed.expect("the mirror scheduler places what the cloud placed");
        let same = placement.modules.len() == dep.placement.modules.len()
            && placement.modules.iter().all(|(id, p)| {
                dep.placement.modules.get(id).is_some_and(|q| {
                    q.primary_device == p.primary_device && q.replica_devices == p.replica_devices
                })
            });
        rec.check(same, || {
            format!("mirror placement of {} differs from the cloud's", app.name)
        });

        let calls = self.calls.get();
        let (sample, exec) = {
            let t = self.tap.borrow();
            (t.sample.clone(), t.exec)
        };
        if let Some(policy) = &mut self.extvm {
            rec.count("extvm.scores_per_place", calls as f64);
            let runs = exec.compiled_runs + exec.interp_runs;
            if runs > 0 {
                rec.count(
                    "extvm.interp_fallback_frac",
                    exec.interp_runs as f64 / runs as f64,
                );
            }
            if !sample.is_empty() {
                let (_, span) = rec.replay("extvm.score", place_span, || {
                    let mut acc = 0i64;
                    for ctx in sample.iter().cycle().take(calls as usize) {
                        acc = acc.wrapping_add(policy.score(ctx).unwrap_or(-1));
                    }
                    std::hint::black_box(acc)
                });
                let ns = rec
                    .tracer
                    .as_ref()
                    .map_or(0, |t| t.spans[span as usize].dur_ns());
                rec.count("extvm.score_ns", ns as f64 / calls.max(1) as f64);
            }
        }

        let (slices, _) = rec.replay("hal.allocate", place_span, || {
            pin_slices(&mut self.hal_dc, dep)
        });
        rec.check(slices.is_some(), || {
            format!("hal mirror could not re-allocate {}", app.name)
        });

        rec.replay("isolate.launch", parent, || {
            for m in &ir.modules {
                let p = &dep.placement.modules[&m.spec.id];
                let key = self
                    .keys
                    .get(&p.primary_device)
                    .copied()
                    .unwrap_or([0u8; 32]);
                let mut env = Environment::new(InstanceId(self.next_instance), p.env, key);
                self.next_instance += 1;
                env.start(
                    p.start_mode == StartMode::Warm,
                    &format!("{}@{}", m.spec.id, m.identity_hex()),
                );
                std::hint::black_box(&env);
            }
        });
        rec.replay("crypto.data_keys", parent, || {
            for m in &ir.modules {
                if m.spec.kind == ModuleKind::Data {
                    std::hint::black_box(Key::derive(
                        &self.tenant_secret,
                        m.spec.id.as_str().as_bytes(),
                    ));
                }
            }
        });
        Mirrored {
            placement,
            slices: slices.unwrap_or_default(),
        }
    }

    /// Replays the sealing and ledger charges of one `run`.
    pub fn run(&mut self, rec: &mut Record, parent: SpanId, dep: &Deployment, report: &RunReport) {
        let app = &dep.ir.app;
        let (sealed, _) = rec.replay("crypto.seal", parent, || {
            let mut n = 0u64;
            for id in app.topo_order().expect("validated at submit") {
                if app.module(&id).map(|m| m.kind) != Some(ModuleKind::Task) {
                    continue;
                }
                for e in app.edges.iter().filter(|e| e.kind == EdgeKind::Access) {
                    let data_id = if e.from == id {
                        &e.to
                    } else if e.to == id {
                        &e.from
                    } else {
                        continue;
                    };
                    let Some(data) = app.module(data_id).filter(|m| m.kind == ModuleKind::Data)
                    else {
                        continue;
                    };
                    let prot = data
                        .exec_env
                        .protection
                        .unwrap_or(udc_spec::DataProtection::NONE);
                    if !(prot.confidentiality || prot.integrity) {
                        continue;
                    }
                    if let Some(key) = dep.data_keys.get(data_id) {
                        let bytes = data.bytes.unwrap_or(1 << 20);
                        let sample = vec![0x5au8; bytes.min(4096) as usize];
                        n += 1;
                        std::hint::black_box(seal(
                            key,
                            Nonce::from_sequence(n),
                            id.as_str().as_bytes(),
                            &sample,
                        ));
                    }
                }
            }
            n
        });
        rec.check(sealed == report.sealed_messages, || {
            format!(
                "seal replay sealed {sealed} messages, run sealed {}",
                report.sealed_messages
            )
        });
        rec.count("crypto.seal_bytes", report.sealed_bytes as f64);
        rec.replay("economics.charge", parent, || {
            for id in dep.placement.modules.keys() {
                self.scratch.charge(0, 1, Some(id.as_str()), "usage window");
            }
        });
        rec.count(
            "economics.ledger_charges",
            dep.placement.modules.len() as f64,
        );
    }

    /// Replays the attestation and billing reconciliation of one
    /// `verify_deployment`; returns how many quotes the replay verified.
    pub fn verify(
        &mut self,
        rec: &mut Record,
        parent: SpanId,
        dep: &Deployment,
        now: u64,
        gate: &SharedQuotaGate,
    ) -> usize {
        let (verdicts, _) = rec.replay("crypto.quote_verify", parent, || {
            let mut verifier = Verifier::new();
            for (id, env) in &dep.environments {
                if let Some(rot) = env.root_of_trust() {
                    let device = dep.placement.modules[id].primary_device;
                    verifier.trust_device(
                        rot.device_id(),
                        self.keys.get(&device).copied().unwrap_or([0u8; 32]),
                    );
                }
            }
            let mut ok = 0usize;
            for m in &dep.ir.modules {
                let id = &m.spec.id;
                let p = &dep.placement.modules[id];
                if !p.env.user_verifiable {
                    continue;
                }
                let Some(rot) = dep.environments[id].root_of_trust() else {
                    // Single-tenant devices without a TEE verify by
                    // exclusivity, with no crypto.
                    ok += p
                        .allocations
                        .iter()
                        .any(|a| a.slices.iter().any(|s| s.exclusive))
                        as usize;
                    continue;
                };
                let nonce = derive_key(b"udc-nonce", &now.to_be_bytes(), id.as_str().as_bytes());
                let isolation = m
                    .spec
                    .exec_env
                    .isolation
                    .unwrap_or_default()
                    .name()
                    .to_string();
                let mut claims = BTreeMap::new();
                claims.insert("isolation".to_string(), isolation.clone());
                let tenancy = if p.env.single_tenant {
                    "single_tenant"
                } else {
                    "shared"
                };
                claims.insert("tenancy".to_string(), tenancy.to_string());
                let mut resources = Vec::new();
                for a in &p.allocations {
                    claims.insert(format!("resources.{}", a.kind), a.total_units().to_string());
                    resources.push((a.kind.to_string(), a.total_units()));
                }
                claims.insert("replicas".to_string(), p.replica_devices.len().to_string());
                let quote = rot.quote(nonce, claims);
                let events = vec![
                    "boot: udc-runtime v1".to_string(),
                    format!("load: {}@{}", id, m.identity_hex()),
                ];
                let policy =
                    policy_for_module(&events, &isolation, p.env.single_tenant, &resources)
                        .require("replicas", m.spec.dist.replication.to_string());
                if check_quote(&verifier, &quote, &nonce, &policy) == ModuleVerification::Verified {
                    ok += 1;
                }
            }
            ok
        });
        rec.replay("economics.reconcile", parent, || {
            let g = gate.lock().expect("quota gate poisoned");
            let ledger = &g.account(TENANT).expect("account open").ledger;
            let total: u64 = dep
                .placement
                .modules
                .keys()
                .map(|id| ledger.debits_for_module(id.as_str()))
                .sum();
            std::hint::black_box(total)
        });
        verdicts
    }

    /// Replays one `teardown`'s release path.
    pub fn teardown(&mut self, rec: &mut Record, parent: SpanId, m: Mirrored) {
        let (_, span) = rec.replay("sched.release", parent, || {
            self.sched.release_app(&mut self.sched_dc, &m.placement)
        });
        rec.replay("hal.release", span, || {
            for a in &m.slices {
                self.hal_dc.release(a);
            }
        });
    }

    /// Mirrors a placement made during set-up (no spans: set-up is not
    /// an op), keeping the mirrors in step with the cloud.
    pub fn mirror_untimed(&mut self, app: &AppSpec, dep: &Deployment) -> Option<Mirrored> {
        let ir = AppIr::compile(app, ConflictPolicy::StrictestWins).ok()?;
        let placement = self.sched.place_app(&mut self.sched_dc, &ir.app).ok()?;
        let slices = pin_slices(&mut self.hal_dc, dep)?;
        Some(Mirrored { placement, slices })
    }

    pub fn release_untimed(&mut self, m: Mirrored) {
        self.sched.release_app(&mut self.sched_dc, &m.placement);
        for a in &m.slices {
            self.hal_dc.release(a);
        }
    }
}
