//! Decision identity for class-indexed placement: `best_candidate`,
//! which scores one device per `(free, rack, capacity)` class plus the
//! tenant's exclusive devices, must pick the same `(score, device)` as
//! the full-scan oracle — every device of `candidates_for`, in id order,
//! highest score winning and ties going to the lowest id. Pools, their
//! allocate/release/exclusive/crash/repair histories, exclusion sets,
//! preferred racks, demands and tenants are random; the policies are
//! the native one, the four canned extension programs (compiled), and a
//! program that traps on every run.

use proptest::prelude::*;
use udc_extvm::{assemble, VmLimits, BEST_FIT, HALF_EMPTY_ONLY, RACK_AFFINITY, WORST_FIT};
use udc_hal::{Datacenter, DatacenterConfig, DeviceId, FabricConfig};
use udc_sched::policy::{best_candidate, candidates_for};
use udc_sched::{ExtVmPolicy, LocalityPolicy, PlacementPolicy};
use udc_spec::ResourceKind;

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
/// Mixed device sizes; repeats make multi-device classes common.
const CAPACITIES: [u64; 4] = [8, 16, 16, 64];

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    let mut all: Vec<Box<dyn PlacementPolicy>> = vec![Box::new(LocalityPolicy)];
    for (name, src) in [
        ("best-fit", BEST_FIT),
        ("worst-fit", WORST_FIT),
        ("rack-affinity", RACK_AFFINITY),
        ("half-empty-only", HALF_EMPTY_ONLY),
        ("trap", "spin: jmp spin"),
    ] {
        let limits = VmLimits {
            max_gas: 1_000,
            ..Default::default()
        };
        let program = assemble(src).expect("policy assembles");
        all.push(Box::new(ExtVmPolicy::new(name, program, limits)));
    }
    all
}

/// The per-device scan the class index replaces.
fn full_scan(
    policy: &mut dyn PlacementPolicy,
    dc: &Datacenter,
    tenant: &str,
    demand: u64,
    preferred_rack: Option<u32>,
    exclude: &[DeviceId],
) -> Option<(i64, DeviceId)> {
    let mut best: Option<(i64, DeviceId)> = None;
    for c in candidates_for(dc, ResourceKind::Cpu, tenant, demand, preferred_rack) {
        if exclude.contains(&c.device) {
            continue;
        }
        if let Some(score) = policy.score(&c) {
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, c.device));
            }
        }
    }
    best
}

/// Applies one history step to a device through the pool's guard, so
/// the index sees every change.
fn apply(dc: &mut Datacenter, op: u8, dev: u32, tenant: u8, units: u64) {
    let pool = dc.pool_mut(ResourceKind::Cpu).expect("cpu pool");
    let n = pool.len() as u32;
    let mut d = pool.device_mut(DeviceId(dev % n)).expect("device exists");
    let tenant = TENANTS[tenant as usize % TENANTS.len()];
    match op {
        0 | 1 => {
            d.allocate(tenant, units, false);
        }
        2 => {
            d.allocate(tenant, units, true);
        }
        3 => d.release(tenant, units),
        4 => {
            d.fail();
        }
        _ => d.repair(),
    }
}

proptest! {
    #[test]
    fn class_pick_matches_full_scan(
        racks in 1usize..17,
        caps in prop::collection::vec(0usize..CAPACITIES.len(), 1..48),
        history in prop::collection::vec((0u8..6, 0u32..48, 0u8..3, 1u64..40), 0..120),
        queries in prop::collection::vec(
            (
                0u8..3,
                1u64..70,
                prop_oneof![Just(None), (0u32..17).prop_map(Some)],
                prop_oneof![Just(0u64), any::<u64>()],
            ),
            1..8,
        ),
    ) {
        let mut dc = Datacenter::new(DatacenterConfig {
            pools: Vec::new(),
            racks,
            fabric: FabricConfig::default(),
        });
        for &c in &caps {
            dc.add_device(ResourceKind::Cpu, CAPACITIES[c]);
        }
        for (op, dev, tenant, units) in history {
            apply(&mut dc, op, dev, tenant, units);
        }
        let pool = dc.pool(ResourceKind::Cpu).expect("cpu pool");
        for (tenant, demand, preferred_rack, exclude_mask) in queries {
            let tenant = TENANTS[tenant as usize];
            let exclude: Vec<DeviceId> = (0..caps.len() as u32)
                .filter(|i| exclude_mask & (1 << (i % 64)) != 0)
                .map(DeviceId)
                .collect();
            for mut policy in policies() {
                let oracle =
                    full_scan(&mut *policy, &dc, tenant, demand, preferred_rack, &exclude);
                let classes =
                    best_candidate(&mut *policy, pool, tenant, demand, preferred_rack, &exclude);
                prop_assert_eq!(classes, oracle, "policy {} diverged", policy.name());
            }
        }
    }
}
