//! Fault-injection coverage for the task pool. This lives in its own
//! integration-test binary (not in the pool's unit tests) because an
//! armed fault plan is process-global: arming `par.job` next to
//! unrelated pool tests in the lib test binary would fire into their
//! jobs too.
//!
//! Both tests hold `FAULT_LOCK`: the armed test and the disarmed control
//! run on parallel test threads by default, and the control must never
//! observe the other test's plan.

use mule_fault::FaultPlan;
use mule_par::TaskPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn injected_dispatch_panic_is_caught_and_the_worker_survives() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The first job dispatch fires an injected panic; later jobs run.
    mule_fault::arm(FaultPlan::parse(7, "par.job=panic#1").unwrap());

    let pool = TaskPool::new(1);
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..3 {
        let ran = Arc::clone(&ran);
        pool.spawn(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }

    // With one worker and FIFO dispatch, the injected panic eats exactly
    // the first job; the surviving worker must still run the other two.
    let deadline = Instant::now() + Duration::from_secs(5);
    while ran.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(ran.load(Ordering::SeqCst), 2, "jobs after the fault ran");
    assert_eq!(pool.panic_count(), 1, "the injected panic was counted");

    let log = mule_fault::firing_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].point, "par.job");
    assert_eq!(log[0].kind, "panic");

    mule_fault::disarm();
    drop(pool);
}

#[test]
fn disarmed_pool_dispatch_is_unaffected() {
    // A pool with no armed plan must complete every job and fire nothing.
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pool = TaskPool::new(2);
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..16 {
        let ran = Arc::clone(&ran);
        pool.spawn(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    drop(pool);
    assert_eq!(ran.load(Ordering::SeqCst), 16);
    assert_eq!(mule_fault::firings_total(), 0);
}
