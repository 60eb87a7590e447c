#![forbid(unsafe_code)]
//! Experiment F2: Fig. 2 — communication via proxies.
//!
//! Measures the cost Fig. 2's indirection adds: a marshaled, type-checked
//! method invocation through the client-proxy/server-proxy pair versus a
//! direct call, plus the channel layer's split/redirection routing.
//! Expected shape: proxy round trip costs ~1 µs of marshaling (vs ~ns for
//! a direct call) — negligible against 1994 LAN latencies (~1000 µs),
//! which is the design's premise.

use std::time::Instant;

use vce_channels::{ChannelRegistry, ClientProxy, InterfaceDef, ParamType, Role, ServerProxy};
use vce_codec::Value;
use vce_net::{Addr, NodeId, PortId};
use vce_workloads::table::Table;

fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    let iface = InterfaceDef::new("Predictor").method(
        "predict",
        vec![ParamType::F64, ParamType::Str],
        ParamType::F64,
    );
    let client = ClientProxy::new(iface.clone());
    let mut server = ServerProxy::new(
        iface,
        Box::new(|_m: &str, args: &[Value]| Ok(Value::F64(args[0].as_f64().unwrap() * 2.0))),
    );
    let args = [Value::F64(21.0), Value::Str("snowfall".into())];

    let mut sink = 0.0f64;
    let direct = time_ns(1_000_000, || {
        sink += std::hint::black_box(21.0f64) * 2.0;
    });
    let marshal = time_ns(200_000, || {
        std::hint::black_box(client.marshal_call("predict", &args).unwrap());
    });
    let round_trip = time_ns(200_000, || {
        let v = client
            .call("predict", &args, |req| server.dispatch(&req))
            .unwrap();
        std::hint::black_box(v);
    });

    let mut t = Table::new(
        "F2: proxy invocation overhead (per call)",
        &["path", "cost (ns)", "vs 1994 LAN hop (1000 µs)"],
    );
    let vs_lan = |ns: f64| format!("{:.4}%", ns / 10_000_000.0 * 100.0);
    t.row(&["direct call".into(), format!("{direct:.0}"), vs_lan(direct)]);
    t.row(&[
        "client marshal (XDR-style)".into(),
        format!("{marshal:.0}"),
        vs_lan(marshal),
    ]);
    t.row(&[
        "full proxy round trip".into(),
        format!("{round_trip:.0}"),
        vs_lan(round_trip),
    ]);
    t.print();
    let _ = sink;

    // Channel split/redirect routing costs.
    let mut reg = ChannelRegistry::new();
    let c = reg.create_channel();
    let s = reg.create_port(Addr::new(NodeId(0), PortId(1000)));
    reg.attach(s, c, Role::Sender).unwrap();
    for i in 1..=8 {
        let p = reg.create_port(Addr::new(NodeId(i), PortId(1000)));
        reg.attach(p, c, Role::Receiver).unwrap();
    }
    let plain = time_ns(200_000, || {
        std::hint::black_box(reg.route(c, s).unwrap());
    });
    let filter = reg.create_port(Addr::new(NodeId(9), PortId(1000)));
    reg.split(c, filter).unwrap();
    let split = time_ns(200_000, || {
        std::hint::black_box(reg.route(c, s).unwrap());
        std::hint::black_box(reg.route_from_interposer(c, 0, s).unwrap());
    });
    let mut t = Table::new(
        "F2: channel routing (8 receivers)",
        &["configuration", "route cost (ns)"],
    );
    t.row(&["plain channel".into(), format!("{plain:.0}")]);
    t.row(&["split (1 interposer)".into(), format!("{split:.0}")]);
    t.print();
    println!(
        "Paper-expected shape: marshaling costs microseconds against\nmillisecond LAN hops — the proxy indirection of Fig. 2 is affordable."
    );
}
