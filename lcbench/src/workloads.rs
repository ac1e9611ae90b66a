//! The three workloads. Each is a closed loop with one client: the
//! tenant's tool waits for every call to return before it sends the
//! next. A pass is a sequence of epochs; every epoch sets the system up
//! afresh (timed into `setup_s`) and then runs a fixed number of tenant
//! ops, so the state an op meets does not depend on how fast the host
//! is. The sim-clock identity is taken from the first `ident_ops` ops of
//! epoch 0, which every pass of a seed runs identically.

use std::collections::{BTreeSet, VecDeque};

use udc_core::{
    CloudConfig, Deployment, HealReport, ModuleHealth, UdcCloud, HEAL_DEGRADED_GAUGE,
    HEAL_DEGRADED_RULE,
};
use udc_economics::{shared, PlanSpec, QuotaGate, SharedQuotaGate};
use udc_extvm::{policies, VmLimits};
use udc_failure::{DetectorConfig, GrayFault, NetPlan, Partition};
use udc_hal::{DatacenterConfig, DeviceId, FailurePlan};
use udc_isolate::WarmPoolConfig;
use udc_query::{Obs, QueryEngine};
use udc_sched::{ExtVmPolicy, SchedOptions, Scheduler};
use udc_spec::{ResourceKind, ResourceVector};
use udc_telemetry::{Labels, Telemetry};

use crate::gen::{self, Digest, Rng, ShapeCycle};
use crate::record::{percentile, Record};
use crate::shadow::{self, MirrorPolicy, Mirrored, Shadow, TENANT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TenantLifecycle,
    FleetChurn,
    HealUnderFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TenantLifecycle,
        Workload::FleetChurn,
        Workload::HealUnderFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantLifecycle => "tenant_lifecycle",
            Workload::FleetChurn => "fleet_churn",
            Workload::HealUnderFaults => "heal_under_faults",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one tenant op is on this workload.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::TenantLifecycle => "deploy (submit+run+verify+teardown)",
            Workload::FleetChurn => "deploy (submit new + teardown oldest)",
            Workload::HealUnderFaults => "barrier (advance)",
        }
    }
}

/// Epoch sizing. `quick` is the short length the benchmark's own test
/// runs; the full sizes are what a measured run uses.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Tenant ops per epoch.
    pub epoch_ops: usize,
    /// Ops of epoch 0 whose sim-clock outputs form the identity.
    pub ident_ops: usize,
    /// Live deployments `fleet_churn` keeps.
    pub population: usize,
    /// `heal_under_faults` crash window (sim µs).
    pub horizon_us: u64,
}

impl Sizes {
    pub fn of(w: Workload, quick: bool) -> Self {
        match (w, quick) {
            // Epochs hold whole blocks of the five-shape cycle.
            (Workload::TenantLifecycle, false) => Sizes {
                epoch_ops: 255,
                ident_ops: 125,
                population: 0,
                horizon_us: 0,
            },
            (Workload::TenantLifecycle, true) => Sizes {
                epoch_ops: 25,
                ident_ops: 25,
                population: 0,
                horizon_us: 0,
            },
            (Workload::FleetChurn, false) => Sizes {
                epoch_ops: 1_000,
                ident_ops: 300,
                population: 1_000,
                horizon_us: 0,
            },
            (Workload::FleetChurn, true) => Sizes {
                epoch_ops: 40,
                ident_ops: 40,
                population: 60,
                horizon_us: 0,
            },
            (Workload::HealUnderFaults, q) => {
                let horizon_us = if q { 6_000_000 } else { 60_000_000 };
                let barriers =
                    ((horizon_us + HEAL_REPAIR_US + HEAL_TAIL_US) / HEAL_STEP_US) as usize;
                Sizes {
                    epoch_ops: barriers,
                    ident_ops: barriers,
                    population: 0,
                    horizon_us,
                }
            }
        }
    }
}

/// One pass: epochs until `seconds` of wall time have passed, or only
/// the identity prefix of epoch 0 when `identity_only`. A pass always
/// completes the identity prefix; past the deadline, an epoch stops after
/// its current op and still runs its end-of-epoch checks.
pub fn pass(
    w: Workload,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    identity_only: bool,
    traced: bool,
) -> Record {
    let mut rec = Record::new(traced, seconds);
    let root = Rng::new(seed);
    let mut epoch = 0u64;
    loop {
        let limit = if identity_only {
            sizes.ident_ops
        } else {
            sizes.epoch_ops
        };
        let rng = root.fork(epoch);
        match w {
            Workload::TenantLifecycle => tenant_lifecycle(&mut rec, rng, epoch, limit, sizes),
            Workload::FleetChurn => fleet_churn(&mut rec, rng, epoch, limit, sizes),
            Workload::HealUnderFaults => heal_under_faults(&mut rec, rng, epoch, sizes),
        }
        epoch += 1;
        rec.epochs = epoch;
        if identity_only || rec.past_deadline() {
            return rec;
        }
    }
}

/// Builds the cloud; in a traced pass the device-key derivation inside
/// `UdcCloud::new` is replayed beneath it.
fn new_cloud(rec: &mut Record, config: CloudConfig) -> UdcCloud {
    let dc = rec
        .traced()
        .then(|| udc_hal::Datacenter::new(config.datacenter.clone()));
    let (cloud, span) = rec.setup_call("core.new", || UdcCloud::new(config));
    if let (Some(span), Some(dc)) = (span, dc) {
        rec.replay("crypto.device_keys", span, || {
            std::hint::black_box(shadow::device_keys(&dc))
        });
    }
    cloud
}

/// A plan whose quota the workload never reaches: admission does its
/// bookkeeping on every submit and never refuses.
fn ample_plan() -> PlanSpec {
    let mut quota = ResourceVector::new();
    for kind in ResourceKind::ALL {
        quota.set(kind, 1 << 40);
    }
    PlanSpec {
        quota,
        ..PlanSpec::unlimited("ample")
    }
}

fn open_economics(cloud: &mut UdcCloud) -> SharedQuotaGate {
    let now = cloud.datacenter().clock().now();
    let mut gate = QuotaGate::new();
    gate.open_account(TENANT, ample_plan(), now);
    gate.account_mut(TENANT)
        .expect("just opened")
        .pay(now, 1 << 50);
    let gate = shared(gate);
    cloud.attach_economics(gate.clone());
    gate
}

/// `tenant_lifecycle`: the default 100-device datacenter with telemetry,
/// a warm pool and a quota gate; every op is one full lifecycle of a
/// seeded stock shape.
fn tenant_lifecycle(rec: &mut Record, rng: Rng, epoch: u64, ops: usize, sizes: Sizes) {
    let t = std::time::Instant::now();
    let warm = WarmPoolConfig::uniform(2);
    let mut cloud = new_cloud(
        rec,
        CloudConfig {
            warm_pool: warm.clone(),
            ..Default::default()
        },
    );
    let tel = cloud.enable_telemetry();
    let gate = open_economics(&mut cloud);
    cloud.scheduler_mut().warm_pool_mut().refill();
    rec.setup_ns.push(t.elapsed().as_nanos() as u64);

    let mut shadow = rec.traced().then(|| {
        let mirror_gate = shared({
            let mut g = QuotaGate::new();
            g.open_account(TENANT, ample_plan(), 0);
            g
        });
        Shadow::new(
            &DatacenterConfig::default(),
            warm,
            MirrorPolicy::Native,
            Some(mirror_gate),
        )
    });
    let base = cloud.datacenter().utilization_report();
    let (mut inputs, mut digest) = (Digest::default(), Digest::default());
    let (mut makespans, mut warm_sum, mut sealed) = (Vec::new(), 0.0, 0u64);

    let mut shapes = ShapeCycle::new(rng);
    let mut done = 0;
    for i in 0..ops {
        if rec.past_deadline() && (epoch > 0 || i >= sizes.ident_ops) {
            break;
        }
        let shape = shapes.next_shape();
        let app = shape.build();
        done += 1;
        rec.begin_op();
        let (submitted, span) = rec.call("core.submit", || cloud.submit(&app));
        let mut dep = match submitted {
            Ok(d) => d,
            Err(e) => {
                rec.count("sched.place_fail", 1.0);
                rec.check(false, || format!("submit of {} failed: {e}", app.name));
                rec.end_op();
                continue;
            }
        };
        rec.count("sched.place_fail", 0.0);
        let mirrored = match (&mut shadow, span) {
            (Some(s), Some(span)) => Some(s.submit(rec, span, &app, &dep)),
            _ => None,
        };
        let (report, span) = rec.call("core.run", || cloud.run(&dep));
        if let (Some(s), Some(span)) = (&mut shadow, span) {
            s.run(rec, span, &dep, &report);
        }
        let now = cloud.datacenter().clock().now();
        let (verification, span) = rec.call("core.verify", || cloud.verify_deployment(&dep));
        if let (Some(s), Some(span)) = (&mut shadow, span) {
            let replayed = s.verify(rec, span, &dep, now, &gate);
            rec.check(replayed == verification.verified(), || {
                format!(
                    "{}: quote replay verified {replayed}, the cloud {}",
                    app.name,
                    verification.verified()
                )
            });
        }
        rec.check(verification.all_fulfilled(), || {
            format!("{}: verification not fulfilled", app.name)
        });
        rec.check(
            verification
                .billing
                .as_ref()
                .is_some_and(|b| b.consistent()),
            || format!("{}: billing does not reconcile", app.name),
        );
        rec.count("hal.utilization", cloud.datacenter().compute_utilization());
        let ((), span) = rec.call("core.teardown", || cloud.teardown(&mut dep));
        if let (Some(s), Some(span), Some(m)) = (&mut shadow, span, mirrored) {
            s.teardown(rec, span, m);
        }
        rec.check(cloud.datacenter().utilization_report() == base, || {
            format!("{}: teardown did not restore utilization", app.name)
        });
        rec.end_op();
        // The provider replenishes its warm pool between tenants.
        cloud.scheduler_mut().warm_pool_mut().refill();
        if let Some(s) = &mut shadow {
            s.refill_warm_pool();
        }

        if epoch == 0 && i < sizes.ident_ops {
            inputs.u64(shape.tag());
            digest_placement(&mut digest, &dep);
            digest.u64(report.makespan_us);
            digest.u64(report.cost.total);
            makespans.push(report.makespan_us);
            warm_sum += report.warm_fraction;
            sealed += report.sealed_bytes;
            if i + 1 == sizes.ident_ops {
                let n = sizes.ident_ops as f64;
                let debits = gate
                    .lock()
                    .expect("gate")
                    .account(TENANT)
                    .expect("open")
                    .ledger
                    .total_debits();
                rec.ident("inputs", format!("\"{}\"", inputs.hex()));
                rec.ident("deploys", sizes.ident_ops);
                rec.ident("makespan_p50_ms", percentile(&makespans, 0.5) as f64 / 1e3);
                rec.ident(
                    "makespan_mean_ms",
                    makespans.iter().sum::<u64>() as f64 / n / 1e3,
                );
                rec.ident("cost_per_deploy_udollars", debits as f64 / n);
                rec.ident("sealed_bytes", sealed);
                rec.ident("warm_fraction_mean", warm_sum / n);
                rec.ident("digest", format!("\"{}\"", digest.hex()));
            }
        }
    }
    let stats = cloud.scheduler_mut().warm_pool_mut().stats();
    rec.count("isolate.warm_hit_frac", stats.hit_rate());
    telemetry_counts(rec, &tel, done);
}

/// Records per op and ring drops of an epoch's telemetry hub.
fn telemetry_counts(rec: &mut Record, tel: &Telemetry, ops: usize) {
    if !rec.traced() || !tel.is_enabled() {
        return;
    }
    let snap = tel.snapshot();
    let records = snap.spans.len() as u64
        + snap.events.len() as u64
        + snap.dropped_events
        + snap.decisions.len() as u64
        + snap.dropped_decisions;
    rec.count(
        "telemetry.records_per_op",
        records as f64 / ops.max(1) as f64,
    );
    rec.count("telemetry.dropped_events", snap.dropped_events as f64);
}

/// The 6,400-device fleet: every default pool ×64.
fn fleet_config() -> DatacenterConfig {
    let mut config = DatacenterConfig::default();
    for p in &mut config.pools {
        p.devices *= 64;
    }
    config
}

fn best_fit() -> ExtVmPolicy {
    let program = policies::canned(policies::BEST_FIT).expect("stock policy assembles");
    ExtVmPolicy::new("best-fit", program, VmLimits::default())
}

/// `fleet_churn`: a 6,400-device fleet under a tenant extension-VM
/// placement policy, telemetry off, a standing population of seeded
/// random apps; every op submits one new app and tears down the oldest.
fn fleet_churn(rec: &mut Record, mut rng: Rng, epoch: u64, ops: usize, sizes: Sizes) {
    let t = std::time::Instant::now();
    let mut cloud = new_cloud(
        rec,
        CloudConfig {
            datacenter: fleet_config(),
            ..Default::default()
        },
    );
    // The tenant's policy replaces the native one before the first
    // submit; compiling it is part of set-up.
    *cloud.scheduler_mut() = Scheduler::new(SchedOptions {
        tenant: TENANT.to_string(),
        policy: Box::new(best_fit()),
        ..Default::default()
    });
    let base = cloud.datacenter().utilization_report();
    let mut live: VecDeque<(Deployment, Option<Mirrored>)> = VecDeque::new();
    let mut digest = Digest::default();
    let mut placed = 0u64;
    let mut fill_ok = true;
    let seeds: Vec<u64> = (0..sizes.population).map(|_| rng.next_u64()).collect();
    for &seed in &seeds {
        let app = gen::random(seed);
        match cloud.submit(&app) {
            Ok(dep) => {
                placed += dep.placement.modules.len() as u64;
                live.push_back((dep, None));
            }
            Err(_) => fill_ok = false,
        }
    }
    rec.setup_ns.push(t.elapsed().as_nanos() as u64);
    rec.check_extra(fill_ok, || "population fill: a submit failed".to_string());

    let mut shadow = rec.traced().then(|| {
        Shadow::new(
            &fleet_config(),
            WarmPoolConfig::disabled(),
            MirrorPolicy::ExtVm(best_fit),
            None,
        )
    });
    // The mirrors replay the same population (untimed: it is set-up).
    if let Some(s) = &mut shadow {
        for ((dep, m), &seed) in live.iter_mut().zip(&seeds) {
            *m = s.mirror_untimed(&gen::random(seed), dep);
            rec.check_extra(m.is_some(), || {
                "mirror could not replay the population".to_string()
            });
        }
    }
    let mut inputs = Digest::default();
    if epoch == 0 {
        for &seed in &seeds {
            inputs.u64(seed);
        }
        for (dep, _) in &live {
            digest_placement(&mut digest, dep);
        }
        rec.ident("population_modules", placed);
        rec.ident(
            "fill_utilization",
            format!("{:.6}", cloud.datacenter().compute_utilization()),
        );
    }

    let mut step_modules = 0u64;
    for i in 0..ops {
        if rec.past_deadline() && (epoch > 0 || i >= sizes.ident_ops) {
            break;
        }
        let seed = rng.next_u64();
        if epoch == 0 && i < sizes.ident_ops {
            inputs.u64(seed);
        }
        let app = gen::random(seed);
        rec.begin_op();
        let (submitted, span) = rec.call("core.submit", || cloud.submit(&app));
        match submitted {
            Ok(dep) => {
                rec.count("sched.place_fail", 0.0);
                let m = match (&mut shadow, span) {
                    (Some(s), Some(span)) => Some(s.submit(rec, span, &app, &dep)),
                    _ => None,
                };
                live.push_back((dep, m));
            }
            Err(e) => {
                rec.count("sched.place_fail", 1.0);
                rec.check(false, || format!("churn submit failed: {e}"));
            }
        }
        if let Some((mut old, m)) = live.pop_front() {
            let ((), span) = rec.call("core.teardown", || cloud.teardown(&mut old));
            if let (Some(s), Some(span), Some(m)) = (&mut shadow, span, m) {
                s.teardown(rec, span, m);
            }
        }
        rec.count("hal.utilization", cloud.datacenter().compute_utilization());
        // The tenant checks what it just got, outside the timed op.
        if let Some((dep, _)) = live.back() {
            let v = cloud.verify_deployment(dep);
            rec.check(v.all_fulfilled(), || {
                "churn deployment: verification not fulfilled".to_string()
            });
        }
        rec.end_op();
        if epoch == 0 && i < sizes.ident_ops {
            if let Some((dep, _)) = live.back() {
                digest_placement(&mut digest, dep);
                step_modules += dep.placement.modules.len() as u64;
            }
            if i + 1 == sizes.ident_ops {
                rec.ident("inputs", format!("\"{}\"", inputs.hex()));
                rec.ident("steps", sizes.ident_ops);
                rec.ident("step_modules", step_modules);
                rec.ident("digest", format!("\"{}\"", digest.hex()));
            }
        }
    }
    for (mut dep, m) in live.drain(..) {
        cloud.teardown(&mut dep);
        if let (Some(s), Some(m)) = (&mut shadow, m) {
            s.release_untimed(m);
        }
    }
    rec.check_extra(cloud.datacenter().utilization_report() == base, || {
        "fleet_churn: utilization not restored after the population's teardown".to_string()
    });
    rec.count(
        "isolate.warm_hit_frac",
        cloud.scheduler_mut().warm_pool_mut().stats().hit_rate(),
    );
}

fn digest_placement(digest: &mut Digest, dep: &Deployment) {
    for (id, p) in &dep.placement.modules {
        digest.str(id.as_str());
        digest.u64(u64::from(p.primary_device.0));
        for d in &p.replica_devices {
            digest.u64(u64::from(d.0));
        }
    }
}

/// Sim step of every `advance` (half the lease, as `udc-chaos --net` polls).
const HEAL_STEP_US: u64 = 50_000;
const HEAL_LEASE_US: u64 = 100_000;
/// Each crashed device comes back this long after its crash.
const HEAL_REPAIR_US: u64 = 2_000_000;
/// Barriers past the last repair, for retry backoff to drain.
const HEAL_TAIL_US: u64 = 12_000_000;
const HEAL_DEGRADED_AFTER_US: u64 = 1_000_000;
const HEAL_MESSAGES_PER_MODULE: u64 = 40;

fn query_engine() -> QueryEngine {
    let mut engine = QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    engine
}

/// The replay-side query path: a second feed over the cloud's hub and
/// a second engine holding the same rules.
struct QueryMirror {
    feed: udc_query::HubFeed,
    engine: QueryEngine,
    sink: Telemetry,
}

/// `heal_under_faults`: one long-lived medical pipeline under lease
/// detection, a partition, a gray device, and a crash plan that takes
/// every device down once; every op is one `advance` barrier.
fn heal_under_faults(rec: &mut Record, mut rng: Rng, epoch: u64, sizes: Sizes) {
    let t = std::time::Instant::now();
    let app = udc_workload::medical_pipeline();
    let mut cloud = new_cloud(
        rec,
        CloudConfig {
            warm_pool: WarmPoolConfig::uniform(2),
            ..Default::default()
        },
    );
    let tel = cloud.enable_telemetry();
    cloud.attach_queries(query_engine(), HEAL_DEGRADED_AFTER_US);
    let detector = DetectorConfig {
        lease_us: HEAL_LEASE_US,
        confirm_misses: 3,
        seed: rng.next_u64(),
    };
    cloud.attach_failure_detection(detector);
    let submitted = cloud.submit(&app);
    let Ok(mut dep) = submitted else {
        rec.check_extra(false, || {
            "heal_under_faults: the pipeline did not place".to_string()
        });
        return;
    };
    cloud.run(&dep);
    dep.recovery.seed_app(&app, HEAL_MESSAGES_PER_MODULE);
    let t0 = cloud.datacenter().clock().now();
    let mut used: Vec<DeviceId> = Vec::new();
    for p in dep.placement.modules.values() {
        if !used.contains(&p.primary_device) {
            used.push(p.primary_device);
        }
    }
    let island = used[rng.below(used.len() as u64) as usize];
    let gray = used[(used.iter().position(|&d| d == island).unwrap_or(0) + 1) % used.len()];
    let part_from = t0 + rng.below(sizes.horizon_us / 2);
    let gray_from = t0 + rng.below(sizes.horizon_us / 2);
    cloud.set_net_plan(NetPlan {
        partitions: vec![Partition {
            island: vec![island],
            from_us: part_from,
            until_us: part_from + 4_000_000,
        }],
        grays: vec![GrayFault {
            device: gray,
            from_us: gray_from,
            until_us: gray_from + 2_000_000,
            delay_us: 2 * HEAL_LEASE_US,
            drop_per_mille: 0,
        }],
        seed: rng.next_u64(),
        ..NetPlan::none()
    });
    let devices = cloud.datacenter().device_ids();
    let plan_seed = rng.next_u64();
    let mut inputs = Digest::default();
    for v in [
        detector.seed,
        u64::from(island.0),
        u64::from(gray.0),
        part_from,
        gray_from,
        cloud.net_plan().seed,
        plan_seed,
    ] {
        inputs.u64(v);
    }
    let plan =
        FailurePlan::random(&devices, 1.0, sizes.horizon_us, HEAL_REPAIR_US, plan_seed).shifted(t0);
    let mut plan_mirror = rec.traced().then(|| plan.clone());
    cloud.datacenter_mut().set_failure_plan(plan);
    rec.setup_ns.push(t.elapsed().as_nanos() as u64);

    let mut det_mirror = rec
        .traced()
        .then(|| cloud.detector().expect("attached").clone());
    let mut queries = rec.traced().then(|| {
        let mut engine = query_engine();
        let parsed = udc_query::parse_rule(&format!(
            "{HEAL_DEGRADED_RULE}: sustained(gauge:{HEAL_DEGRADED_GAUGE} >= 1) for {HEAL_DEGRADED_AFTER_US}us"
        ))
        .expect("heal rule parses");
        engine.add_rule(parsed.rule).expect("fresh rule");
        QueryMirror {
            feed: udc_query::HubFeed::new(),
            engine,
            sink: Telemetry::enabled(),
        }
    });

    let mut digest = Digest::default();
    let mut mttrs: Vec<u64> = Vec::new();
    let (mut detected, mut repairs, mut retries, mut confirmed, mut false_suspects, mut replayed) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut obs_total = 0u64;
    for _ in 0..sizes.epoch_ops {
        rec.begin_op();
        let (report, span): (HealReport, _) =
            rec.call("core.advance", || cloud.advance(&mut dep, HEAL_STEP_US));
        let now = cloud.datacenter().clock().now();
        if let Some(span) = span {
            let events = plan_mirror.as_mut().expect("traced").due(now);
            let det = det_mirror.as_mut().expect("traced");
            let net = cloud.net_plan().clone();
            rec.replay("failure.observe", span, || {
                std::hint::black_box(det.observe(now, &events, &net))
            });
            let q = queries.as_mut().expect("traced");
            let (batch, _) = rec.replay("query.feed", span, || q.feed.poll(&tel, now));
            obs_total += batch.len() as u64;
            rec.replay("query.engine", span, || {
                q.engine.ingest(batch);
                for (id, _) in dep.placement.modules.iter() {
                    q.engine.push(Obs::Gauge {
                        at_us: now,
                        name: HEAL_DEGRADED_GAUGE.to_string(),
                        labels: Labels::module(TENANT, id.as_str()),
                        value: if dep.health.module(id) == ModuleHealth::Healthy {
                            0.0
                        } else {
                            1.0
                        },
                    });
                }
                q.engine.advance_to(now);
                q.engine.fire_into(&q.sink);
            });
            let believed = cloud.detector().expect("attached").confirmed();
            rec.check(det.confirmed() == believed, || {
                "detector replay diverged from the cloud's".to_string()
            });
        }
        // No module the control plane calls healthy sits on a device it
        // believes dead.
        let believed: BTreeSet<DeviceId> = cloud
            .detector()
            .expect("attached")
            .confirmed()
            .into_iter()
            .collect();
        let stale = dep.placement.modules.iter().any(|(id, p)| {
            dep.health.module(id) == ModuleHealth::Healthy
                && (p
                    .allocations
                    .iter()
                    .flat_map(|a| a.slices.iter())
                    .any(|s| believed.contains(&s.device))
                    || p.replica_devices.iter().any(|d| believed.contains(d)))
        });
        rec.check(!stale, || {
            format!("healthy module on a believed-dead device at {now}us")
        });
        rec.end_op();

        detected += report.detected.len() as u64;
        repairs += report.repaired.len() as u64;
        retries += report.retried.len() as u64;
        confirmed += report.confirmed.len() as u64;
        false_suspects += report.false_suspects;
        for r in &report.repaired {
            mttrs.push(r.mttr_us);
            replayed += r.recovery.as_ref().map_or(0, |o| o.replayed as u64);
            if epoch == 0 {
                digest.str(r.module.as_str());
                digest.u64(u64::from(r.new_device.0));
                digest.u64(r.attempts as u64);
                digest.u64(r.mttr_us);
            }
        }
        if epoch == 0 {
            for id in &report.detected {
                digest.str(id.as_str());
                digest.u64(now);
            }
        }
    }

    let degraded = dep.health.degraded_modules();
    let converged = dep.health.is_converged();
    rec.check_extra(dep.health.repairing_modules().is_empty(), || {
        "heal_under_faults: repair still in flight at the horizon".to_string()
    });
    rec.check_extra(converged || !degraded.is_empty(), || {
        "heal_under_faults: neither converged nor degraded".to_string()
    });
    if converged {
        let v = cloud.verify_deployment(&dep);
        rec.check_extra(
            v.all_fulfilled() && v.billing.as_ref().is_some_and(|b| b.consistent()),
            || "heal_under_faults: post-heal verification or billing failed".to_string(),
        );
    }
    let alerts = cloud.queries().map_or(0, |q| q.alerts().len());
    if rec.traced() {
        rec.count("heal.detected", detected as f64);
        rec.count("heal.repairs", repairs as f64);
        rec.count("heal.retries", retries as f64);
        rec.count("heal.degraded", degraded.len() as f64);
        rec.count(
            "heal.repairs_per_detected",
            repairs as f64 / detected.max(1) as f64,
        );
        rec.count("actor.replayed_msgs", replayed as f64);
        rec.count("failure.confirmed", confirmed as f64);
        rec.count("failure.false_suspects", false_suspects as f64);
        rec.count(
            "query.obs_per_barrier",
            obs_total as f64 / sizes.epoch_ops as f64,
        );
        rec.count("query.alerts_fired", alerts as f64);
        rec.count(
            "isolate.warm_hit_frac",
            cloud.scheduler_mut().warm_pool_mut().stats().hit_rate(),
        );
        telemetry_counts(rec, &tel, sizes.epoch_ops);
    }
    if epoch == 0 {
        rec.ident("inputs", format!("\"{}\"", inputs.hex()));
        rec.ident("barriers", sizes.epoch_ops);
        rec.ident("detected", detected);
        rec.ident("repairs", repairs);
        rec.ident("retries", retries);
        rec.ident("confirmed", confirmed);
        rec.ident("false_suspects", false_suspects);
        rec.ident("degraded_at_end", degraded.len());
        rec.ident("converged", converged);
        rec.ident("mttr_p50_ms", percentile(&mttrs, 0.5) as f64 / 1e3);
        rec.ident("alerts", alerts);
        rec.ident("digest", format!("\"{}\"", digest.hex()));
    }
    cloud.teardown(&mut dep);
}
