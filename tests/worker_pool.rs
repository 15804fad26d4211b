//! Stream workers of [`Runtime::scope`]: one thread per (device, stream)
//! within a scope, ordered queues, and panic isolation — a poisoned scope
//! re-panics without disturbing the next one.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::thread::ThreadId;

use gsword_simt::{DeviceConfig, Event, Runtime, RuntimeConfig};

fn runtime(devices: usize, streams: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        num_devices: devices,
        streams_per_device: streams,
        device: DeviceConfig {
            num_blocks: 4,
            threads_per_block: 32,
            host_threads: 1,
        },
        sim_workers: 1,
    })
}

/// Run one scope that submits three jobs to every (device, stream) and
/// collect, per stream, the thread ids its jobs ran on.
fn worker_ids(rt: &Runtime) -> HashMap<(usize, usize), HashSet<ThreadId>> {
    let ids = Mutex::new(HashMap::<_, HashSet<_>>::new());
    rt.scope(|rs| {
        for _ in 0..3 {
            for d in 0..rt.num_devices() {
                for s in 0..rt.streams_per_device() {
                    let ids = &ids;
                    rs.submit(d, s, move || {
                        let id = std::thread::current().id();
                        ids.lock().unwrap().entry((d, s)).or_default().insert(id);
                    });
                }
            }
        }
    });
    ids.into_inner().unwrap()
}

/// Every stream ran on exactly one worker, distinct per stream and off the
/// submitting thread.
fn assert_one_worker_per_stream(rt: &Runtime) {
    let per_stream = worker_ids(rt);
    let streams = rt.num_devices() * rt.streams_per_device();
    assert_eq!(per_stream.len(), streams, "every stream ran its jobs");
    let main = std::thread::current().id();
    let mut all: HashSet<ThreadId> = HashSet::new();
    for (stream, ids) in &per_stream {
        assert_eq!(
            ids.len(),
            1,
            "stream {stream:?} ran on {} workers",
            ids.len()
        );
        assert!(!ids.contains(&main), "jobs run off the submitting thread");
        all.extend(ids.iter().copied());
    }
    assert_eq!(
        all.len(),
        streams,
        "one dedicated worker per (device, stream)"
    );
}

#[test]
fn each_stream_has_one_worker_per_scope() {
    let rt = runtime(2, 2);
    for _ in 0..3 {
        assert_one_worker_per_stream(&rt);
    }
}

#[test]
fn pool_survives_a_poisoned_scope() {
    let rt = runtime(1, 2);

    // A panicking job poisons its scope (which re-panics on exit) but must
    // not take its stream down: the record queued behind it still runs.
    let after = Event::new();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.scope(|rs| {
            rs.submit(0, 0, || panic!("kernel exploded"));
            let after = after.clone();
            rs.submit(0, 0, move || after.record());
            rs.submit(0, 1, || {});
        });
    }))
    .expect_err("poisoned scope must panic");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| err.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("");
    assert!(
        msg.contains("stream job panicked"),
        "unexpected panic message: {msg:?}"
    );
    assert!(after.is_complete(), "jobs behind a panicked job still run");

    // Poisoning is local to the failed scope; later scopes run clean.
    for _ in 0..2 {
        assert_one_worker_per_stream(&rt);
    }
}

#[test]
fn ordering_and_results_hold_on_reused_workers() {
    // Ordered-queue semantics must hold on the Nth reuse of a worker, not
    // just the first: same stream → submission order, and launch results
    // still come back in block order.
    let rt = runtime(1, 1);
    for _ in 0..3 {
        let log = Mutex::new(Vec::new());
        let blocks = rt.scope(|rs| {
            for i in 0..6 {
                let log = &log;
                rs.submit(0, 0, move || log.lock().unwrap().push(i));
            }
            rs.launch(0, 0, 0..4, |b| b * 2).wait()
        });
        assert_eq!(log.into_inner().unwrap(), (0..6).collect::<Vec<_>>());
        assert_eq!(blocks, vec![0, 2, 4, 6]);
    }
}
