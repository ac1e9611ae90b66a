//! Criterion micro-benchmarks for the control plane: end-to-end
//! placement, extension-VM policy dispatch, and pool allocation.
//!
//! The `pool_churn`, `binpack_10k`, and `sched/place_medical_big_dc`
//! groups are before/after pairs for the indexed allocation fast path:
//! the retained seed implementations (`LinearPool`,
//! `NaiveServerCluster`) run the identical operation sequence next to
//! their indexed replacements, so one bench run quantifies the speedup
//! — and `bench_check` enforces it from the `UDC_BENCH_JSON` export.
//! `sched/place_medical_warm` and `sched/place_medical_6400` are the
//! same warm placement at 100 and 6,400 devices, so their ratio is the
//! placement path's dependence on fleet size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use udc_economics::{demand_of_app, PlanSpec, QuotaGate};
use udc_extvm::{assemble, NullHost, Vm, VmLimits, BEST_FIT};
use udc_hal::linear::LinearPool;
use udc_hal::pool::AllocConstraints;
use udc_hal::{Datacenter, DatacenterConfig, Device, DeviceId, ResourcePool};
use udc_sched::{
    ExtVmPolicy, LocalityPolicy, NaiveServerCluster, PackAlgo, PlacementPolicy, PolicyCtx,
    SchedOptions, Scheduler, ServerCluster, ServerShape,
};
use udc_spec::{ResourceKind, ResourceVector};
use udc_workload::{medical_pipeline, random_app, DemandSampler, RandomDagConfig};

fn bench_placement(c: &mut Criterion) {
    let medical = medical_pipeline();
    c.bench_function("sched/place_medical", |b| {
        b.iter(|| {
            let mut dc = Datacenter::default();
            let mut sched = Scheduler::new(SchedOptions::default());
            let p = sched.place_app(&mut dc, black_box(&medical)).unwrap();
            black_box(p);
        })
    });

    // The identical placement behind a quota gate with a finite (but
    // amply sufficient) plan: the admission check must be noise against
    // the placement itself — `bench_check` caps the ratio at 1.05x.
    let demand = demand_of_app(&medical);
    let gate = udc_economics::shared({
        let mut g = QuotaGate::new();
        let plan = PlanSpec {
            quota: demand.scaled(2),
            ..PlanSpec::unlimited("bench")
        };
        g.open_account("tenant", plan, 0);
        g
    });
    c.bench_function("sched/place_medical_quota_gated", |b| {
        b.iter(|| {
            let mut dc = Datacenter::default();
            let mut sched = Scheduler::new(SchedOptions::default());
            sched.set_quota_gate(Some(gate.clone()));
            let p = sched.place_app(&mut dc, black_box(&medical)).unwrap();
            gate.lock().unwrap().release("tenant", &demand);
            black_box(p);
        })
    });

    let mut group = c.benchmark_group("sched/place_random");
    for tasks in [10usize, 50, 200] {
        let (app, _) = random_app(RandomDagConfig {
            tasks,
            data: tasks / 4,
            edge_prob: 0.2,
            conflict_prob: 0.0,
            seed: 5,
        });
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &app, |b, app| {
            b.iter(|| {
                let mut dc = Datacenter::default();
                let mut sched = Scheduler::new(SchedOptions::default());
                let _ = sched.place_app(&mut dc, black_box(app));
            })
        });
    }
    group.finish();
}

fn bench_policy_dispatch(c: &mut Criterion) {
    let ctx = PolicyCtx {
        device: udc_hal::DeviceId(3),
        free_units: 32,
        capacity: 64,
        rack: 2,
        preferred_rack: 2,
        demand: 4,
    };
    let mut native = LocalityPolicy;
    c.bench_function("policy/native_score", |b| {
        b.iter(|| native.score(black_box(&ctx)))
    });
    let prog = assemble("arg 0\narg 4\nsub\nret").unwrap();
    let mut vm_policy = ExtVmPolicy::new("bench", prog, VmLimits::default());
    c.bench_function("policy/extvm_score", |b| {
        b.iter(|| vm_policy.score(black_box(&ctx)))
    });

    // Raw VM dispatch: a loop summing 1..100.
    let loop_prog = assemble(
        "
            arg 0
            store 1
        l:  load 1
            jz d
            load 0
            load 1
            add
            store 0
            load 1
            push 1
            sub
            store 1
            jmp l
        d:  load 0
            ret
        ",
    )
    .unwrap();
    let mut vm = Vm::new(VmLimits::default());
    c.bench_function("extvm/sum_loop_100", |b| {
        b.iter(|| {
            vm.run(black_box(&loop_prog), &[100], &mut NullHost)
                .unwrap()
        })
    });
}

fn bench_allocation(c: &mut Criterion) {
    c.bench_function("hal/allocate_release_vector", |b| {
        let mut dc = Datacenter::default();
        let demand = ResourceVector::new()
            .with(ResourceKind::Cpu, 4)
            .with(ResourceKind::Dram, 8192);
        b.iter(|| {
            let allocs = dc
                .allocate_vector("t", black_box(&demand), &AllocConstraints::default())
                .unwrap();
            for a in &allocs {
                dc.release(a);
            }
        })
    });
}

/// Mixed allocation sizes exercised per churn iteration: spill-y large
/// asks next to small exact fits, like a real admission stream.
const CHURN_SIZES: [u64; 8] = [1, 3, 7, 12, 18, 25, 31, 40];

fn churn_devices(n: u32) -> impl Iterator<Item = Device> {
    (0..n).map(|i| Device::new(DeviceId(i), ResourceKind::Cpu, 16 + (i as u64 % 64), i % 32))
}

/// Allocate/release churn on the seed linear allocator vs the indexed
/// pool, on identical device sets, at 1k/4k/16k devices. The linear
/// side re-scans (and re-sorts) every device per allocation; the
/// indexed side walks the free-capacity index.
fn bench_pool_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_churn");
    for devices in [1_000u32, 4_000, 16_000] {
        let mut linear = LinearPool::new(ResourceKind::Cpu);
        let mut indexed = ResourcePool::new(ResourceKind::Cpu);
        for d in churn_devices(devices) {
            linear.add_device(d.clone());
            indexed.add_device(d);
        }
        group.bench_with_input(BenchmarkId::new("linear", devices), &(), |b, ()| {
            b.iter(|| {
                let allocs: Vec<_> = CHURN_SIZES
                    .iter()
                    .map(|&u| {
                        linear
                            .allocate("t", black_box(u), &AllocConstraints::default())
                            .unwrap()
                    })
                    .collect();
                for a in &allocs {
                    linear.release(a);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("indexed", devices), &(), |b, ()| {
            b.iter(|| {
                let allocs: Vec<_> = CHURN_SIZES
                    .iter()
                    .map(|&u| {
                        indexed
                            .allocate("t", black_box(u), &AllocConstraints::default())
                            .unwrap()
                    })
                    .collect();
                for a in &allocs {
                    indexed.release(a);
                }
            })
        });
    }
    group.finish();
}

/// Packing 10k sampled demands into standard servers: the seed
/// linear-scan cluster vs the indexed one, for both algorithms.
fn bench_binpack(c: &mut Criterion) {
    let demands: Vec<ResourceVector> = DemandSampler::new(7).sample_n(10_000);
    let shape = ServerShape::standard(2);
    let mut group = c.benchmark_group("binpack_10k");
    let algos = [
        ("ffd", PackAlgo::FirstFitDecreasing),
        ("bestfit", PackAlgo::BestFit),
    ];
    for (name, algo) in algos {
        group.bench_with_input(BenchmarkId::new("naive", name), &algo, |b, &algo| {
            b.iter(|| NaiveServerCluster::new(shape.clone()).pack_all(black_box(&demands), algo))
        });
        group.bench_with_input(BenchmarkId::new("indexed", name), &algo, |b, &algo| {
            b.iter(|| ServerCluster::new(shape.clone()).pack_all(black_box(&demands), algo))
        });
    }
    group.finish();
}

/// The default datacenter with every pool's device count multiplied
/// by `scale` (the rack count stays the same).
fn scaled_dc(scale: usize) -> Datacenter {
    let mut cfg = DatacenterConfig::default();
    for pool in &mut cfg.pools {
        pool.devices *= scale;
    }
    Datacenter::new(cfg)
}

/// Places and releases `app` on a long-lived datacenter and scheduler,
/// so setup stays out of the timed loop.
fn bench_warm_place(c: &mut Criterion, name: &str, mut dc: Datacenter, mut sched: Scheduler) {
    let medical = medical_pipeline();
    c.bench_function(name, |b| {
        b.iter(|| {
            let p = sched.place_app(&mut dc, black_box(&medical)).unwrap();
            for m in p.modules.values() {
                for a in &m.allocations {
                    dc.release(a);
                }
            }
        })
    });
}

/// End-to-end `place_app` against a datacenter 16x the default device
/// count, placing and releasing in a loop. The scheduler ranks one
/// device per `(free, rack, capacity)` class, so this should cost about
/// what the same placement costs on the default datacenter.
fn bench_place_big_dc(c: &mut Criterion) {
    let sched = Scheduler::new(SchedOptions::default());
    bench_warm_place(c, "sched/place_medical_big_dc", scaled_dc(16), sched);
}

/// Warm placement under the compiled best-fit tenant policy at 100 and
/// 6,400 devices. `bench_check` caps the ratio at 1.5x.
fn bench_place_scaling(c: &mut Criterion) {
    for (name, scale) in [
        ("sched/place_medical_warm", 1),
        ("sched/place_medical_6400", 64),
    ] {
        let policy = ExtVmPolicy::new("best-fit", assemble(BEST_FIT).unwrap(), VmLimits::default());
        let sched = Scheduler::new(SchedOptions {
            policy: Box::new(policy),
            ..Default::default()
        });
        bench_warm_place(c, name, scaled_dc(scale), sched);
    }
}

criterion_group!(
    benches,
    bench_placement,
    bench_policy_dispatch,
    bench_allocation,
    bench_pool_churn,
    bench_binpack,
    bench_place_big_dc,
    bench_place_scaling
);
criterion_main!(benches);
