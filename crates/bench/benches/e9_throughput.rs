//! E9 — SEM daemon token throughput vs worker count.
//!
//! Paper claim (§4): one online SEM serves the whole system; this bench
//! measures how token service over loopback TCP scales with the
//! daemon's pool threads on one host, framing and sockets included.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bench::token_throughput;
use sempair_core::bf_ibe::Pkg;
use sempair_net::tcp::{ServerConfig, TcpSemServer};
use sempair_pairing::CurveParams;
use std::time::Duration;

const REQUESTS: usize = 64;

fn bench_throughput(c: &mut Criterion) {
    let curve = CurveParams::fast_insecure();
    let mut rng = StdRng::seed_from_u64(9001);
    let pkg = Pkg::setup(&mut rng, curve);
    let params = pkg.params();
    let (_, sem_key) = pkg.extract_split(&mut rng, "load");
    let ct = params.encrypt_full(&mut rng, "load", &[0u8; 32]).unwrap();
    let daemon = |workers: usize| {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = TcpSemServer::bind_with("127.0.0.1:0", params.clone(), config).unwrap();
        server.install_ibe(sem_key.clone());
        server
    };

    let mut group = c.benchmark_group("e9/server_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    group.throughput(Throughput::Elements(REQUESTS as u64));
    for workers in [1usize, 2, 4, 8] {
        let server = daemon(workers);
        let addr = server.local_addr();
        group.bench_function(BenchmarkId::new("tokens", format!("w{workers}")), |b| {
            b.iter(|| {
                token_throughput(addr, params, "load", &ct.u, workers.min(4), REQUESTS).unwrap()
            })
        });
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
