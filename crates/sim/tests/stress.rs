//! Scheduler stress and fairness tests: many threads, layered primitives,
//! determinism under load.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_sim::sync::{channel, Semaphore, WaitSet};
use xlsm_sim::{now_nanos, sleep_nanos, spawn, Runtime};

#[test]
fn hundred_threads_interleave_deterministically() {
    fn run_once() -> (u64, u64) {
        Runtime::new().run(|| {
            let sum = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..100u64 {
                let sum = Arc::clone(&sum);
                handles.push(spawn(&format!("t{t}"), move || {
                    for i in 0..50u64 {
                        sleep_nanos(50 + (t * 31 + i * 17) % 97);
                        // Mix the current time into the sum: any change in
                        // interleaving changes the result.
                        sum.fetch_add(now_nanos() ^ (t << 32), Ordering::Relaxed);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            (sum.load(Ordering::Relaxed), now_nanos())
        })
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn semaphore_is_fifo_fair_under_contention() {
    Runtime::new().run(|| {
        let sem = Arc::new(Semaphore::new("fair", 1));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Occupy the semaphore so all contenders queue in spawn order.
        sem.acquire(1);
        let mut handles = Vec::new();
        for t in 0..16u32 {
            let sem = Arc::clone(&sem);
            let order = Arc::clone(&order);
            handles.push(spawn(&format!("w{t}"), move || {
                sem.acquire(1);
                order.lock().push(t);
                sleep_nanos(10);
                sem.release(1);
            }));
        }
        sleep_nanos(1_000); // let everyone park
        sem.release(1);
        for h in handles {
            h.join();
        }
        let got = Arc::try_unwrap(order).unwrap().into_inner();
        assert_eq!(got, (0..16).collect::<Vec<_>>(), "grants must be FIFO");
    });
}

#[test]
fn mpmc_channel_distributes_all_jobs_exactly_once() {
    Runtime::new().run(|| {
        let (tx, rx) = channel::<u64>("jobs");
        let done = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for w in 0..8 {
            let rx = rx.clone();
            let done = Arc::clone(&done);
            workers.push(spawn(&format!("worker{w}"), move || {
                let mut local = 0u64;
                while let Some(v) = rx.recv() {
                    sleep_nanos(100 + v % 50);
                    local += 1;
                    done.fetch_add(v, Ordering::Relaxed);
                }
                local
            }));
        }
        for v in 1..=1000u64 {
            tx.send(v).unwrap();
        }
        tx.close();
        let per_worker: Vec<u64> = workers.into_iter().map(|h| h.join()).collect();
        assert_eq!(
            per_worker.iter().sum::<u64>(),
            1000,
            "each job exactly once"
        );
        assert_eq!(done.load(Ordering::Relaxed), 1000 * 1001 / 2);
        // Work should be spread, not hoarded by one worker.
        assert!(per_worker.iter().filter(|&&n| n > 0).count() >= 4);
    });
}

#[test]
fn waitset_handles_notify_storms() {
    Runtime::new().run(|| {
        let ws = Arc::new(WaitSet::new("storm"));
        let woken = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..32 {
            let ws = Arc::clone(&ws);
            let woken = Arc::clone(&woken);
            handles.push(spawn(&format!("s{t}"), move || {
                ws.wait();
                woken.fetch_add(1, Ordering::Relaxed);
            }));
        }
        sleep_nanos(5_000);
        assert_eq!(ws.len(), 32);
        // Wake in three unequal batches.
        assert!(ws.notify_one());
        sleep_nanos(10);
        assert_eq!(ws.notify_all(), 31);
        assert!(!ws.notify_one(), "nothing left to wake");
        for h in handles {
            h.join();
        }
        assert_eq!(woken.load(Ordering::Relaxed), 32);
    });
}

#[test]
fn nested_spawn_trees_join_cleanly() {
    Runtime::new().run(|| {
        fn tree(depth: u32) -> u64 {
            if depth == 0 {
                sleep_nanos(10);
                return 1;
            }
            let left = spawn(&format!("l{depth}"), move || tree(depth - 1));
            let right = spawn(&format!("r{depth}"), move || tree(depth - 1));
            left.join() + right.join()
        }
        assert_eq!(tree(6), 64);
    });
}

#[test]
fn virtual_time_is_exact_under_load() {
    Runtime::new().run(|| {
        // 50 threads × 20 sleeps of 1 µs each, fully parallel: the clock
        // must end at exactly 20 µs, not 1000 µs.
        let mut handles = Vec::new();
        for t in 0..50 {
            handles.push(spawn(&format!("p{t}"), || {
                for _ in 0..20 {
                    sleep_nanos(1_000);
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(now_nanos(), 20_000);
    });
}
