//! The run-token hand-off protocol, from outside the crate: it must keep the
//! scheduling order and the counters exactly, and it must never lose a wake-up.

use parking_lot::Mutex;
use std::sync::Arc;
use xlsm_sim::runtime::stats;
use xlsm_sim::sync::{channel, Semaphore, WaitSet};
use xlsm_sim::{now_nanos, sleep_nanos, spawn, yield_now, Nanos, Runtime};

/// `(thread, now_nanos)` at every resume, in resume order.
type Log = Arc<Mutex<Vec<(u8, Nanos)>>>;

fn mark(log: &Log, thread: u8) {
    log.lock().push((thread, now_nanos()));
}

/// Eight threads (root = 0, seven spawned, one of them by a child) that
/// between them use every way of giving up the run token.
fn golden_scenario() -> (Vec<(u8, Nanos)>, u64, u64) {
    Runtime::new().run(|| {
        let log: Log = Arc::default();
        let sem = Arc::new(Semaphore::new("golden-sem", 1));
        let ws = Arc::new(WaitSet::new("golden-ws"));
        let (tx, rx) = channel::<Nanos>("golden-chan");
        let mut handles = Vec::new();

        // 1, 2: sleepers with co-prime periods, yielding between sleeps.
        for (id, period) in [(1u8, 700), (2u8, 1_100)] {
            let log = Arc::clone(&log);
            handles.push(spawn(&format!("sleeper{id}"), move || {
                for _ in 0..4 {
                    sleep_nanos(period);
                    mark(&log, id);
                    yield_now();
                    mark(&log, id);
                }
            }));
        }
        // 3, 4: contend for one permit and sleep while holding it.
        for id in [3u8, 4] {
            let (log, sem) = (Arc::clone(&log), Arc::clone(&sem));
            handles.push(spawn(&format!("holder{id}"), move || {
                for _ in 0..3 {
                    sem.acquire(1);
                    mark(&log, id);
                    sleep_nanos(450);
                    mark(&log, id);
                    sem.release(1);
                    yield_now();
                    mark(&log, id);
                }
            }));
        }
        // 5: waits to be notified, then spawns and joins a grandchild (7).
        {
            let (log, ws) = (Arc::clone(&log), Arc::clone(&ws));
            handles.push(spawn("waiter5", move || {
                ws.wait();
                mark(&log, 5);
                let log7 = Arc::clone(&log);
                let grandchild = spawn("grandchild7", move || {
                    mark(&log7, 7);
                    sleep_nanos(300);
                    mark(&log7, 7);
                });
                grandchild.join();
                mark(&log, 5);
            }));
        }
        // 6: serves a channel, one sleep per job.
        {
            let log = Arc::clone(&log);
            handles.push(spawn("server6", move || {
                while let Some(job) = rx.recv() {
                    mark(&log, 6);
                    sleep_nanos(job);
                    mark(&log, 6);
                }
                mark(&log, 6);
            }));
        }

        for job in [250, 900, 50] {
            tx.send(job).unwrap();
            sleep_nanos(600);
            mark(&log, 0);
        }
        assert!(ws.notify_one());
        yield_now();
        mark(&log, 0);
        tx.close();
        for h in handles {
            h.join();
            mark(&log, 0);
        }
        let s = stats();
        assert_eq!(s.now, now_nanos());
        let log = log.lock().clone();
        (log, s.switches, s.timer_events)
    })
}

/// The literals were captured at commit bd28d99, whose scheduler woke the
/// successor under its lock through a `Condvar`: reproducing them shows that
/// waking after the unlock moved neither the order nor the counters.
#[test]
fn scheduling_order_is_golden() {
    let (log, switches, timer_events) = golden_scenario();
    #[rustfmt::skip]
    let expected: &[(u8, Nanos)] = &[
        (3, 0), (6, 0), (6, 250), (3, 450), (4, 450), (3, 450),
        (0, 600), (6, 600), (1, 700), (1, 700), (4, 900), (3, 900),
        (4, 900), (2, 1100), (2, 1100), (0, 1200), (3, 1350), (4, 1350),
        (3, 1350), (1, 1400), (1, 1400), (6, 1500), (6, 1500), (6, 1550),
        (0, 1800), (5, 1800), (0, 1800), (7, 1800), (6, 1800), (4, 1800),
        (3, 1800), (4, 1800), (1, 2100), (1, 2100), (7, 2100), (5, 2100),
        (2, 2200), (2, 2200), (3, 2250), (4, 2250), (3, 2250), (4, 2700),
        (4, 2700), (1, 2800), (1, 2800), (0, 2800), (2, 3300), (2, 3300),
        (2, 4400), (2, 4400), (0, 4400), (0, 4400), (0, 4400), (0, 4400),
        (0, 4400),
    ];
    assert_eq!(log, expected);
    assert_eq!((switches, timer_events), (42, 21));
}

/// 32 threads x 50 000 cycles, each cycle a yield, a sleep, or an
/// unblock-then-block around a ring of semaphores. `cargo test` does not pin
/// the process, so on a multi-CPU host a woken successor really does run
/// while its predecessor is still on its way to park.
fn stress_once() -> (Nanos, u64) {
    const THREADS: usize = 32;
    const CYCLES: u64 = 50_000;
    Runtime::new().run(|| {
        let ring: Arc<Vec<Semaphore>> =
            Arc::new((0..THREADS).map(|_| Semaphore::new("ring", 0)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ring = Arc::clone(&ring);
                spawn(&format!("s{t}"), move || {
                    for i in 0..CYCLES {
                        if i % 3 == 2 {
                            // Every thread takes this arm on the same cycles,
                            // so each permit released is acquired.
                            ring[(t + 1) % THREADS].release(1);
                            ring[t].acquire(1);
                        } else if (t as u64 + i).is_multiple_of(2) {
                            yield_now();
                        } else {
                            sleep_nanos(1 + (t as u64 * 31 + i * 17) % 97);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        (now_nanos(), stats().switches)
    })
}

#[test]
fn no_wake_up_is_lost_under_stress() {
    assert_eq!(
        stress_once(),
        stress_once(),
        "same virtual end time and switch count"
    );
}

/// Two threads that do nothing but yield to each other: the successor hands
/// the token straight back, often before its predecessor has parked, so the
/// grant must wait for the park instead of being lost.
#[test]
fn early_regrant_of_an_unparked_predecessor_is_kept() {
    let switches = Runtime::new().run(|| {
        let other = spawn("pong", || {
            for _ in 0..200_000 {
                yield_now();
            }
        });
        for _ in 0..200_000 {
            yield_now();
        }
        other.join();
        stats().switches
    });
    assert!(switches >= 400_000);
}
