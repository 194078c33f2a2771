//! Criterion benches for the middleware itself: the request path whose cost
//! the paper measures in Figure 5 (finding, submission, initiation), plus
//! the codec that replaces CORBA's marshalling.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, Criterion};
use diet_core::agent::{AgentNode, MasterAgent};
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::data::{DietValue, Persistence};
use diet_core::monitor::Estimate;
use diet_core::profile::{ramses_zoom2_desc, ArgTag, Profile, ProfileDesc};
use diet_core::sched::{RoundRobin, Scheduler, WeightedSpeed};
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use std::hint::black_box;
use std::sync::Arc;

fn zoom2_call_profile(file_kb: usize) -> Profile {
    let d = ramses_zoom2_desc();
    let mut p = Profile::alloc(&d);
    p.set(
        0,
        DietValue::File {
            name: "ramses.nml".into(),
            data: Bytes::from(vec![b'x'; file_kb * 1024]),
        },
        Persistence::Volatile,
    )
    .unwrap();
    for i in 1..=6 {
        p.set(i, DietValue::ScalarI32(i as i32), Persistence::Volatile)
            .unwrap();
    }
    p
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for kb in [8usize, 256] {
        let msg = Message::Call {
            request_id: 1,
            ctx: obs::TraceCtx::default(),
            profile: zoom2_call_profile(kb),
        };
        g.bench_function(format!("encode_{kb}KiB"), |b| {
            b.iter(|| black_box(encode_message(&msg).len()))
        });
        let enc = encode_message(&msg);
        g.bench_function(format!("decode_{kb}KiB"), |b| {
            b.iter(|| black_box(decode_message(enc.clone()).unwrap()))
        });
    }
    g.finish();
}

fn bench_profile_encode(c: &mut Criterion) {
    c.bench_function("profile_encode_zoom2", |b| {
        let p = zoom2_call_profile(8);
        b.iter(|| {
            let mut buf = BytesMut::new();
            diet_core::codec::encode_profile(&mut buf, &p);
            black_box(buf.len())
        })
    });
}

fn estimates(n: usize) -> Vec<Estimate> {
    (0..n)
        .map(|i| Estimate {
            server: format!("sed{i}"),
            speed_factor: 0.8 + (i % 5) as f64 * 0.1,
            free_memory: 32 << 30,
            queue_length: i % 7,
            completed: i as u64,
            known_mean_duration: if i % 2 == 0 { Some(5000.0) } else { None },
            ..Estimate::default()
        })
        .collect()
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_decision");
    for n in [11usize, 110, 1100] {
        let ests = estimates(n);
        let rr = RoundRobin::new();
        g.bench_function(format!("round_robin_{n}"), |b| {
            b.iter(|| black_box(rr.select(&ests)))
        });
        let ws = WeightedSpeed;
        g.bench_function(format!("weighted_speed_{n}"), |b| {
            b.iter(|| black_box(ws.select(&ests)))
        });
    }
    g.finish();
}

fn bench_finding_path(c: &mut Criterion) {
    // The live "finding time": MA traversal + estimates + decision over the
    // paper's 11-SeD hierarchy.
    let mut desc = ProfileDesc::alloc("noop", 0, 0, 0);
    desc.set_arg(0, ArgTag::Scalar).unwrap();
    let seds: Vec<Arc<SedHandle>> = (0..11)
        .map(|i| {
            let solve: SolveFn = Arc::new(|_| Ok(0));
            let mut t = ServiceTable::init(1);
            t.add(desc.clone(), solve).unwrap();
            SedHandle::spawn(SedConfig::new(&format!("sed{i}"), 1.0), t)
        })
        .collect();
    let las: Vec<_> = seds
        .iter()
        .enumerate()
        .map(|(i, s)| AgentNode::leaf(&format!("LA{i}"), vec![s.clone()]))
        .collect();
    let ma = MasterAgent::new("MA", las, Arc::new(RoundRobin::new()));
    c.bench_function("ma_submit_11_seds", |b| {
        b.iter(|| black_box(ma.submit("noop").unwrap().config.label.len()))
    });
    for s in seds {
        s.shutdown();
    }
}

criterion_group!(
    benches,
    bench_codec,
    bench_profile_encode,
    bench_schedulers,
    bench_finding_path
);
criterion_main!(benches);
