//! Cross-crate failure-injection tests: device crashes, replica
//! durability, checkpoint/replay recovery, and failure-domain semantics
//! (§3.4).

use bytes::Bytes;
use udc::actor::{Actor, ActorError, ActorId, Ctx, Message, SupervisionPolicy, System};
use udc::dist::{
    recover, CheckpointStore, DomainTracker, RecoveryStrategy, ReplicatedStore, ReplicationParams,
};
use udc::hal::{Datacenter, FailureEvent, FailurePlan};
use udc::spec::ConsistencyLevel;

#[derive(Default)]
struct Counter {
    n: u64,
}

impl Actor for Counter {
    fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
        self.n += 1;
        Ok(())
    }
    fn reset(&mut self) {
        self.n = 0;
    }
    fn snapshot(&self) -> Vec<u8> {
        self.n.to_le_bytes().to_vec()
    }
    fn restore(&mut self, s: &[u8]) {
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        self.n = u64::from_le_bytes(b);
    }
}

#[test]
fn device_crash_and_repair_cycle() {
    let mut dc = Datacenter::default();
    let victim = dc.device_ids()[0];
    dc.set_failure_plan(FailurePlan::from_events(vec![
        FailureEvent {
            at_us: 1_000,
            device: victim,
            crash: true,
        },
        FailureEvent {
            at_us: 60_000_000,
            device: victim,
            crash: false,
        },
    ]));
    let crashed = dc.tick(10_000);
    assert_eq!(crashed, vec![victim]);
    let report = dc.tick_events(120_000_000);
    assert!(report.crashed.is_empty());
    assert_eq!(report.repaired, vec![victim]);
}

#[test]
fn replicated_data_survives_replica_loss() {
    let mut store = ReplicatedStore::new(
        3,
        ConsistencyLevel::Linearizable,
        ReplicationParams::default(),
    )
    .expect("3 replicas");
    for i in 0..50u64 {
        store.write(&format!("k{i}"), &i.to_le_bytes());
    }
    assert!(store.survives(2), "2 of 3 replicas may fail");
    store.fail_replica(1).unwrap();
    store.fail_replica(2).unwrap();
    // Every key still readable (primary holds the data).
    for i in 0..50u64 {
        let r = store.read(&format!("k{i}"));
        assert_eq!(r.value.as_deref(), Some(i.to_le_bytes().as_ref()));
    }
    // Rebuild restores full redundancy.
    assert_eq!(store.rebuild_replica(1).unwrap(), 50);
    assert_eq!(store.rebuild_replica(2).unwrap(), 50);
}

#[test]
fn crash_recovery_checkpoint_equals_reexecution() {
    let mut sys = System::new();
    let id = ActorId::new("worker");
    sys.spawn(
        id.clone(),
        Box::<Counter>::default(),
        SupervisionPolicy::Restart,
    );
    for i in 0..500u64 {
        sys.inject(id.clone(), Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    sys.run_until_quiescent(usize::MAX);

    let mut cps = CheckpointStore::new();
    let seq_400 = sys.log().entries()[399].seq;
    cps.save(&id, seq_400, 400u64.to_le_bytes().to_vec());

    let mut via_reexec = Counter::default();
    let r1 = recover(
        &id,
        &mut via_reexec,
        sys.log(),
        &cps,
        RecoveryStrategy::Reexecute,
    );
    let mut via_ckpt = Counter::default();
    let r2 = recover(
        &id,
        &mut via_ckpt,
        sys.log(),
        &cps,
        RecoveryStrategy::FromCheckpoint,
    );

    assert_eq!(via_reexec.n, via_ckpt.n, "strategies must converge");
    assert_eq!(via_reexec.n, 500);
    assert_eq!(r1.replayed, 500);
    assert_eq!(r2.replayed, 100, "only the post-checkpoint suffix");
}

#[test]
fn failure_domains_partition_blast_radius() {
    let mut domains = DomainTracker::new();
    // The medical pipeline's natural domains: diagnosis path vs
    // analytics path vs storage.
    for m in ["A1", "A2", "A3", "A4"] {
        domains.assign(m, "diagnosis");
    }
    for m in ["B1", "B2"] {
        domains.assign(m, "analytics");
    }
    for m in ["S1", "S2", "S3", "S4"] {
        domains.assign(m, "storage");
    }
    let blast = domains.blast_radius("A2");
    assert_eq!(blast.len(), 4);
    assert!(blast.contains("A4"));
    assert!(!blast.contains("B1"), "analytics fails independently");
    assert!(domains.independent("A1", "S1"));
    assert!(!domains.independent("B1", "B2"));
}

#[test]
fn poison_message_does_not_wedge_the_system() {
    struct Fragile;
    impl Actor for Fragile {
        fn on_message(&mut self, _ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            if msg.payload.as_ref() == b"poison" {
                Err(ActorError("boom".into()))
            } else {
                Ok(())
            }
        }
    }
    let mut sys = System::new();
    sys.spawn("f", Box::new(Fragile), SupervisionPolicy::RestartAndRetry);
    sys.inject("f", Bytes::from_static(b"ok"));
    sys.inject("f", Bytes::from_static(b"poison"));
    sys.inject("f", Bytes::from_static(b"ok"));
    let (_, quiescent) = sys.run_until_quiescent(1_000);
    assert!(quiescent, "poison must be dropped, not retried forever");
    assert_eq!(sys.stats().delivered, 2);
    assert_eq!(sys.stats().failures, 2, "original + one retry");
}

#[test]
fn random_failure_plan_applies_fully() {
    let mut dc = Datacenter::default();
    let ids = dc.device_ids();
    let plan = FailurePlan::random(&ids, 0.25, 1_000_000, 500_000, 42);
    let expected_events = plan.len();
    dc.set_failure_plan(plan);
    let mut fired = 0;
    let mut applied = 0;
    for _ in 0..40 {
        let report = dc.tick_events(50_000);
        fired += report.events.len();
        applied += report.crashed.len() + report.repaired.len();
    }
    assert_eq!(
        fired, expected_events,
        "every scheduled event fires exactly once"
    );
    assert_eq!(
        applied, fired,
        "every fired event crashes or repairs a device"
    );
}
