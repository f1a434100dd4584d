//! The engine's waiter-list compaction stays amortised on a real
//! workload: sgemm's blocks reuse the same A and B pages, so on every
//! replay a crowd of stalled blocks re-subscribes to the same few
//! residency words. Subscribe-time compaction must visit at most two
//! waiter entries per push there, not the whole hot list on every push.

use gpu_model::{FaultBuffer, GpuEngine};
use sim_engine::{CostModel, SimRng, SimTime};
use std::sync::Arc;
use uvm_driver::{ManagedSpace, PrefetchPolicy, UvmDriver};
use uvm_sim::{run, SimConfig, Workload, WorkloadKind};

#[test]
fn sgemm_waiter_compaction_visits_at_most_two_entries_per_push() {
    let mut config = SimConfig::scaled(1.0 / 128.0);
    config.driver.prefetch = PrefetchPolicy::Disabled;
    let footprint = (config.driver.gpu_memory_bytes as f64 * 0.6) as u64;
    let mut workload = Workload::with_footprint(WorkloadKind::Sgemm, footprint);
    if let Workload::Sgemm(p) = &mut workload {
        p.gpu_flops /= 128.0;
    }

    // `run_prepared`'s engine/driver loop, kept to the calls that move
    // simulated state, so the engine's work hook can be read at the end.
    let cost = CostModel::new(config.cost.clone());
    let root = SimRng::from_seed(config.seed);
    let mut space = ManagedSpace::new();
    let trace = workload.generate(&mut space, &mut root.derive(1));
    let mut driver = UvmDriver::new(config.driver.clone(), cost.clone(), space, root.derive(2));
    let mut engine = GpuEngine::launch(config.gpu.clone(), Arc::new(trace), root.derive(3));
    let mut buffer = FaultBuffer::new(config.fault_buffer.clone());
    let mut clock = SimTime::ZERO + cost.kernel_launch();
    loop {
        engine.run(driver.space(), &mut buffer, clock);
        if engine.is_done() {
            break;
        }
        loop {
            let pass = driver.process_pass(&mut buffer, clock);
            clock += pass.time;
            if pass.replays > 0 {
                break;
            }
        }
        clock += cost.replay_latency();
        engine.replay();
    }
    assert_eq!(
        *engine.counters(),
        run(&config, &workload).engine,
        "the loop above must drive the same simulation as uvm_sim::run"
    );

    let (pushes, visits) = engine.waiter_work();
    assert!(pushes > 0, "sgemm must stall and subscribe");
    assert!(
        visits <= 2 * pushes,
        "compaction visited {visits} waiter entries for {pushes} pushes"
    );
}
